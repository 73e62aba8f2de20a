// Transport — the substrate contract under the RPC layer.
//
// The paper's ALPS kernel ran on a 16-node transputer network (§4): objects
// on distinct nodes, entry calls crossing real links. This interface is the
// seam that makes that claim testable both ways. A Transport moves frames
// between named nodes and delivers them, asynchronously, to per-node
// handlers. A frame is posted in the one form every encoder produces, the
// codec's scatter-gather FrameBuilder, and delivered as an owned Buffer.
// Everything above the seam (rpc.h) — retries, at-most-once dedup,
// routing, batching — is transport-agnostic by construction. Two
// implementations ship:
//
//   * net::Network (network.h) — the in-process simulation. Deterministic
//     under a seed, with per-link latency and injected faults (drop /
//     duplicate / reorder / partition). The fault-model tests live here.
//   * net::SocketTransport (transport_socket.h) — real TCP or Unix-domain
//     sockets between OS processes: listener/connector lifecycle, per-peer
//     reconnect with backoff, length-prefixed stream framing, and a
//     writev-style scatter-gather send path that skips the final frame
//     gather entirely.
//
// What the contract promises (and deliberately does not):
//   * Per-link FIFO for delivered frames (sim clamps jitter; TCP is a
//     byte stream) — unless a sim reorder fault is injected on purpose.
//   * Frames may be lost. The sim loses them by injection; sockets lose
//     them when a connection dies mid-flight or a peer is unreachable.
//     Loss is counted, never reported synchronously to the poster.
//   * Frames may be duplicated by the sim (injection) but never by the
//     socket transport; the RPC dedup layer tolerates both.
//   * Delivery handlers run on transport-owned threads and must not block
//     for long; the RPC layer's handlers only enqueue kernel work.
//   * Each directed link reports whether it is busy, and tells the sending
//     node when a busy link goes idle — the clock a batcher coalesces by
//     (batch.h). Socket: a write in flight or queued; sim: not delivered.
// DESIGN.md §4.10 tabulates the full sim-vs-socket contract.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/buffer.h"

namespace alps::net {

using NodeId = std::uint64_t;

class Directory;
class FrameBuilder;

/// Transport-agnostic traffic accounting — one shape for both backends, so
/// benches and tests read the same fields over the sim and over sockets.
/// Sim-only fault-injection counters live in SimFaultStats (network.h).
struct TransportStats {
  std::uint64_t frames_posted = 0;     ///< every post(), incl. lost frames
  std::uint64_t bytes_posted = 0;      ///< payload bytes across all posts
  std::uint64_t frames_delivered = 0;  ///< handed to a handler
  std::uint64_t bytes_delivered = 0;
  std::uint64_t frames_dropped = 0;    ///< dst unknown or no handler
  std::uint64_t frames_lost = 0;       ///< injected loss / partition (sim),
                                       ///< dead or unreachable link (sockets)
  // Socket-only resilience counters (always zero on the sim — it has no
  // wire, no handshake and no reconnect; see DESIGN.md §4.11):
  std::uint64_t handshake_rejected = 0;    ///< inbound connections refused
                                           ///< before any frame dispatched
  std::uint64_t connections_poisoned = 0;  ///< connections dropped on
                                           ///< framing corruption
  std::uint64_t frames_requeued = 0;       ///< frames that survived a dead
                                           ///< connection for in-order replay
};

class Transport {
 public:
  /// Delivery callback. `payload` owns its storage (the received frame), so
  /// ≥ kZeroCopySliceThreshold blob decodes alias the frame instead of
  /// copying out of it — on both backends.
  using Handler = std::function<void(NodeId src, Buffer payload)>;

  virtual ~Transport() = default;

  /// Registers a local delivery endpoint; returns its id. The simulation
  /// mints dense ids for any number of in-process nodes; a socket transport
  /// is configured with exactly one local node per process and returns its
  /// preassigned cluster id.
  virtual NodeId add_node(const std::string& name) = 0;

  /// Installs (or, with nullptr, removes) the handler for `node`. Must not
  /// return while a delivery into a previous handler is still running, so a
  /// deregistering caller (~Node) can safely destroy the captures.
  virtual void set_handler(NodeId node, Handler handler) = 0;

  /// Posts one frame src → dst for asynchronous delivery. Never blocks on
  /// the remote end; loss is silent (counted in stats), exactly as a
  /// datagram network. The frame is moved in, still in scatter-gather
  /// form: a stream transport writes its slice list directly (no
  /// contiguous frame is ever assembled, so data-plane `bytes_assembled`
  /// stays at zero); the sim flattens it once with build().
  virtual void post(NodeId src, NodeId dst, FrameBuilder frame) = 0;

  virtual TransportStats transport_stats() const = 0;

  /// The cluster's object directory (name → home node). The simulation owns
  /// the authoritative map for all in-process nodes; a socket transport owns
  /// this process's replica, seeded from static placement configuration and
  /// healed in-band by kWrongNode redirects (DESIGN.md §4.10).
  virtual Directory& directory() = 0;
  const Directory& directory() const {
    return const_cast<Transport*>(this)->directory();
  }

  /// True while a↔b is known unreachable: an active sim partition, or a
  /// socket peer whose connection is dead/in backoff. The RPC layer uses it
  /// to type a delivery failure as "partitioned" rather than plain timeout.
  virtual bool is_partitioned(NodeId a, NodeId b) const {
    (void)a;
    (void)b;
    return false;
  }

  // ---- link state for self-clocked batching (batch.h) ----

  /// True while a frame src → dst is still on its way out: a socket link
  /// with a write in flight or frames queued behind one; a sim link with a
  /// frame scheduled but not yet delivered. A batcher coalesces frames
  /// only behind a busy link and sends at once on an idle one. A true
  /// answer also asks for one idle notification: the link's next
  /// busy → idle transition calls src's idle handler (Nagle's "send when
  /// the ACK comes back"), so links nobody waits on pay no callback. A
  /// transport that never reports busy never fires idle; batching then
  /// degenerates to direct sends.
  virtual bool link_busy(NodeId src, NodeId dst) {
    (void)src;
    (void)dst;
    return false;
  }

  /// Told `dst` after the link node → dst stopped being busy, following a
  /// link_busy that answered true, on a transport thread (or a posting
  /// thread that just finished a write), holding no transport lock.
  /// Installs (or, with nullptr, removes) `node`'s handler; like
  /// set_handler, does not return while a call into a previous handler is
  /// still running, so a deregistering ~Node can destroy the captures.
  using IdleHandler = std::function<void(NodeId dst)>;
  void set_idle_handler(NodeId node, IdleHandler handler);

  virtual std::size_t node_count() const = 0;
  virtual std::string node_name(NodeId id) const = 0;

  /// Best effort: blocks until nothing this transport buffered locally is
  /// still queued or being delivered. The sim's version is exact (it owns
  /// both ends); a socket transport can only quiesce its own send queues —
  /// bytes in kernel buffers or the peer process are out of reach.
  virtual void wait_quiescent() const {}

  // ---- dynamic membership (DESIGN.md §4.11) ----
  //
  // Both backends support changing the peer set on a live transport: the
  // socket backend spins PeerLinks and reader threads up and down without
  // quiescing; the sim marks nodes departed (their frames are lost, exactly
  // as a cut). Removing a peer also purges its directory entries, so a
  // departed node's named objects fail typed instead of timing out.

  /// Admits `id` to the peer set. `address` is backend-specific ("unix:<path>"
  /// or "host:port" for sockets; ignored by the sim, which revives or appends
  /// the node). Raises kNetwork if the backend cannot honor the request.
  virtual void add_peer(NodeId id, const std::string& name,
                        const std::string& address);

  /// Evicts `id` from the peer set: frames to/from it are dropped or lost
  /// from now on, its queued frames are counted lost, and its directory
  /// entries are removed. Returns false if the peer was not present.
  virtual bool remove_peer(NodeId id);

  /// Membership-change hook: invoked (outside transport locks) after every
  /// add_peer / remove_peer, with `added` telling which. Nodes use it to
  /// flush departed-peer batch buffers and drop stale routes. Returns a
  /// token for remove_membership_listener.
  using MembershipListener = std::function<void(NodeId peer, bool added)>;
  std::uint64_t add_membership_listener(MembershipListener listener);
  void remove_membership_listener(std::uint64_t token);

 protected:
  /// Backends call this after a membership change, holding no locks.
  void notify_membership(NodeId peer, bool added);

  /// Backends call this after link src → dst turned from busy to idle,
  /// holding no locks.
  void notify_idle(NodeId src, NodeId dst);

 private:
  mutable std::mutex listeners_mu_;
  std::unordered_map<std::uint64_t, MembershipListener> listeners_;
  std::uint64_t next_listener_token_ = 1;

  /// One installed idle handler and the calls into it still running.
  struct IdleSlot {
    std::shared_ptr<const IdleHandler> handler;
    int running = 0;
  };
  std::mutex idle_mu_;
  std::condition_variable idle_done_;  ///< a call into a handler returned
  std::unordered_map<NodeId, IdleSlot> idle_slots_;
};

}  // namespace alps::net
