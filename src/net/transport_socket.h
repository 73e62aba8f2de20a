// SocketTransport — real TCP / Unix-domain-socket transport between
// OS processes.
//
// The other half of the Transport seam (transport.h): where net::Network
// simulates the paper's transputer links in one address space, this
// implementation actually crosses the OS boundary, so "calls to the entry
// procedures of an object are implemented as remote procedure calls" (§1)
// holds between separate processes on separate nodes. The RPC stack above
// (rpc.h) runs unchanged on either backend.
//
// Cluster model. Each process is told its own NodeId, a listen address, and
// the address of every initial peer (SocketTransportOptions); add_peer /
// remove_peer then change the peer set on the live transport — PeerLinks and
// reader threads spin up and down without quiescing (DESIGN.md §4.11). One
// SocketTransport serves exactly one local node — processes are the unit of
// distribution here, unlike the sim's many-nodes-in-one-process model.
//
// Connection lifecycle.
//   * A listener thread accepts inbound connections. Before any frame is
//     dispatched, the connection must present a valid HELLO (codec.h):
//     right magic, matching protocol version, matching cluster token, and a
//     claimed NodeId in the current peer set. Anything else is counted
//     (handshake_rejected), logged, and disconnected — an impostor never
//     feeds the reassembler. After the handshake, a reader thread
//     reassembles length-prefixed stream frames (StreamReassembler) and
//     dispatches them; a frame whose src differs from the handshaken id, or
//     a corrupt length field, poisons the connection (connections_poisoned)
//     and tears it down. Frame payloads arrive as owned Buffers, so ≥256 B
//     blob decodes alias the receive buffer exactly as they alias a
//     simulated delivery.
//   * Outbound links are created on demand: the first post() towards a peer
//     starts its sender thread, which connects lazily (sending its own
//     HELLO first) and reconnects with exponential backoff after failures.
//     While a peer is down, queued frames survive up to the retransmit
//     budget (frames and bytes) and replay in order on reconnect — a TCP
//     blip no longer needs the RPC layer's full backoff round-trip. Frames
//     past the budget are counted lost and dropped, per the datagram
//     contract the RPC retry layer already converges under.
//   * sever()/restore() are the real-transport analog of a sim partition:
//     sever tears the connection down and holds (budget-bounded) outbound
//     frames until restore replays them; is_partitioned() reports the cut
//     so RPC failures are typed kPartitioned. ~SocketTransport tears down
//     every connection after a best-effort drain of queued frames.
//   * A reconnecting peer's new stream delivers only after its previous
//     stream has drained — and any older stream still in its handshake,
//     which may be that peer's too — bounded by connect_timeout, so frames
//     written before a reconnect are not overtaken by frames written after.
//
// Send path. The thread that calls post() writes the frame itself when the
// link is idle (connected, nothing queued, no write in flight): one
// non-blocking sendmsg() of the 12-byte stream header plus the
// FrameBuilder's scatter-gather segments (writev semantics). post() never
// blocks: a short write or EAGAIN puts the frame back at the queue front
// with its written-byte offset, and the sender thread finishes the tail.
// Frames posted while a write is in flight queue behind it. The sender
// thread owns everything else: connecting, the HELLO, backoff, replay of
// parked frames, and tails. One `sending` flag makes the two writers
// mutually exclusive, so the stream stays in posted order. A link is busy
// while `sending` is held or frames are queued; the writer that finishes
// with an empty queue fires the idle handler (transport.h), which is when a
// batching Node sends what coalesced behind the write. A frame torn by
// a dying connection replays whole on the next one. Either way no
// contiguous frame is built: the data plane's `bytes_assembled` counter
// stays at zero for every frame this transport sends — the slices' single
// remaining copy happens inside the kernel, on the way to the wire.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/directory.h"
#include "net/transport.h"

namespace alps::net {

/// One endpoint: either TCP (host:port) or a Unix-domain socket path.
struct SocketAddress {
  std::string host;         ///< TCP peer address; empty for Unix sockets
  std::uint16_t port = 0;   ///< TCP port; 0 asks the OS to pick (listen only)
  std::string path;         ///< Unix socket path; empty for TCP

  static SocketAddress tcp(std::string host, std::uint16_t port) {
    SocketAddress a;
    a.host = std::move(host);
    a.port = port;
    return a;
  }
  static SocketAddress unix_path(std::string path) {
    SocketAddress a;
    a.path = std::move(path);
    return a;
  }
  bool is_unix() const { return !path.empty(); }
  std::string to_string() const;
  /// Inverse of to_string: "unix:<path>" or "host:port" (last ':' splits).
  /// Raises kNetwork on anything unparseable.
  static SocketAddress parse(const std::string& text);
};

struct SocketPeer {
  NodeId id = 0;
  std::string name;
  SocketAddress address;
};

struct SocketTransportOptions {
  NodeId local_node = 0;
  std::string local_name;
  SocketAddress listen;
  std::vector<SocketPeer> peers;  ///< the rest of the static cluster
  /// Reconnect backoff after a failed connect: doubles from initial to max.
  std::chrono::milliseconds connect_backoff_initial{20};
  std::chrono::milliseconds connect_backoff_max{1000};
  /// Per-connect-attempt timeout (non-blocking connect + poll).
  std::chrono::milliseconds connect_timeout{1000};
  /// Bound on frames buffered towards one peer; overflow is counted lost
  /// and dropped (a real NIC queue tail-drops the same way).
  std::size_t max_queued_per_peer = 4096;
  /// While a peer is down (severed, or a connect round failed), at most this
  /// many frames / payload bytes wait for the reconnect and replay in order;
  /// the excess tail-drops as frames_lost. Both bounds apply.
  std::size_t retransmit_budget_frames = 1024;
  std::size_t retransmit_budget_bytes = 4u << 20;
  /// Pre-shared cluster secret carried in the HELLO; an inbound connection
  /// with a different token is rejected before any frame is dispatched.
  /// Empty means "no token required" — but both sides must agree on empty.
  std::string cluster_token;
  /// Wire protocol version claimed and required. Overridable only so tests
  /// can manufacture a version-mismatch rejection.
  std::uint32_t protocol_version = kHelloVersion;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Returns the preconfigured local node id. One local node per transport;
  /// a second registration raises kNetwork.
  NodeId add_node(const std::string& name) override;

  void set_handler(NodeId node, Handler handler) override;

  /// The segment list goes to sendmsg as-is, never assembled — written on
  /// this thread when the link is idle, else queued in builder form for the
  /// sender thread. Never blocks.
  void post(NodeId src, NodeId dst, FrameBuilder frame) override;

  TransportStats transport_stats() const override;
  Directory& directory() override { return directory_; }

  /// True while `sever` is in force for the peer, or its connection is down
  /// and in reconnect backoff after a failure.
  bool is_partitioned(NodeId a, NodeId b) const override;

  std::size_t node_count() const override;
  std::string node_name(NodeId id) const override;

  /// True while a write towards `dst` is in flight or frames are queued
  /// for it. After a true answer, the idle handler fires when a writer (a
  /// posting thread or the sender) finishes and the queue is empty.
  bool link_busy(NodeId src, NodeId dst) override;

  /// Blocks until every peer's send queue is drained and no write is in
  /// flight. Send-side only: bytes in kernel buffers or the peer process
  /// are beyond this transport's knowledge (DESIGN.md §4.10).
  void wait_quiescent() const override;

  /// Real-transport partition: closes the connection to `peer` and fails
  /// every receive for that peer until restore(). Outbound frames posted
  /// during the cut are held up to the retransmit budget and replay in
  /// order on restore; past-budget frames are counted lost. The RPC layer
  /// sees is_partitioned() and types failures kPartitioned, exactly as
  /// under a sim cut.
  void sever(NodeId peer);
  void restore(NodeId peer);

  /// Dynamic membership (DESIGN.md §4.11): admit / evict a peer on the live
  /// transport. add_peer is idempotent per id; remove_peer joins the peer's
  /// sender, drops its queue as lost, tears down its inbound connections and
  /// purges its directory entries.
  void add_peer(const SocketPeer& peer);
  void add_peer(NodeId id, const std::string& name,
                const std::string& address) override;
  bool remove_peer(NodeId id) override;

  /// Closes the outbound connection to `peer` (it reconnects on demand on
  /// the next post). Unhost/teardown hook and a reconnect test handle.
  void disconnect(NodeId peer);

  /// The port the listener actually bound (TCP with port 0); the configured
  /// port otherwise.
  std::uint16_t bound_port() const;

 private:
  /// Outbound link to one peer: lazily-started sender thread, its queue,
  /// and the connection state machine (disconnected → connecting →
  /// connected, with backoff between failed rounds).
  struct PeerLink {
    NodeId id = 0;
    SocketAddress address;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<FrameBuilder> queue;
    std::size_t queue_bytes = 0;  ///< payload bytes across `queue`
    /// Stream bytes (header included) of queue.front() already written on
    /// the current connection; a fresh connection resets it to 0.
    std::size_t front_written = 0;
    int fd = -1;
    /// A connection dropped while a write was in flight: shut down, but its
    /// number is kept open until the writer finishes, so it cannot be
    /// reused under that writer's sendmsg.
    int retired_fd = -1;
    bool severed = false;
    /// One writer at a time — a posting thread or the sender — owns the
    /// stream between taking a frame and the wire.
    bool sending = false;
    int quiescent_waiters = 0;  ///< wait_quiescent callers blocked on cv
    /// link_busy answered true: the next writer to leave the link idle
    /// fires the idle handler.
    bool idle_wanted = false;
    bool unreachable = false;   ///< last connect round failed (in backoff)
    bool removed = false;       ///< evicted by remove_peer; terminal
    bool replaying = false;     ///< queue survived a dead connection
    std::chrono::milliseconds backoff{0};
    std::chrono::steady_clock::time_point next_attempt{};
    // Last member on purpose: ~jthread (request_stop + join) runs first, so
    // the sender never outlives mu/cv above it.
    std::jthread sender;
  };

  /// One accepted inbound connection and its reader thread.
  struct Inbound {
    int fd = -1;
    /// NodeId the HELLO claimed; 0 until `authed`. Atomics because sever /
    /// remove_peer scan these from other threads while the reader runs.
    std::atomic<NodeId> peer{0};
    std::atomic<bool> authed{false};
    bool finished = false;  ///< reader has exited; guarded by mu_
    std::jthread reader;
  };

  void listen_loop(const std::stop_token& st);
  void reader_loop(const std::stop_token& st, std::shared_ptr<Inbound> conn);
  /// Receive loop of one connection; reader_loop wraps it to mark the
  /// connection finished on every exit path.
  void read_stream(const std::stop_token& st, Inbound& conn);
  /// Holds a freshly authed connection until older connections from the
  /// same peer, or still in their handshake, have drained (at most
  /// connect_timeout): a reconnect must not overtake frames still buffered
  /// on the stream it replaced.
  void await_older_streams(const std::stop_token& st, const Inbound& conn);
  void sender_loop(const std::stop_token& st, PeerLink* link);
  /// Connects link->fd (non-blocking + poll timeout). Returns false and
  /// arms the backoff on failure. Caller holds link->mu.
  bool connect_locked(PeerLink& link);
  /// Arms the exponential reconnect backoff (same schedule as a failed
  /// connect round). Caller holds link.mu.
  void arm_backoff_locked(PeerLink& link);
  /// Tail-drops frames past the retransmit budget, counting them lost.
  /// Caller holds link.mu.
  void trim_queue_locked(PeerLink& link);
  /// Closes the link's connection. While a write is in flight the fd is
  /// only shut down (waking a blocked sendmsg) and closed by end_write.
  /// Caller holds link.mu.
  void drop_connection_locked(PeerLink& link);
  /// Releases `sending` and closes a connection retired meanwhile. Caller
  /// holds link.mu.
  void end_write_locked(PeerLink& link);
  /// A write on `fd` failed, or was cut short by the connection going away:
  /// `frame` (already off the queue) goes back to the front to replay whole
  /// on the next connection, behind a backoff — or is counted lost when the
  /// link is severed, evicted or stopping. Shared by the sender and the
  /// posting-thread write. Caller holds link.mu.
  void requeue_failed_locked(PeerLink& link, int fd, FrameBuilder frame,
                             bool stopping);
  /// Parks the queue for in-order replay after a blip (cut, failed connect
  /// round, or a connection dying mid-send) and trims it to the retransmit
  /// budget. The single choke point for "parked then dropped": a parked
  /// frame leaves the queue through exactly one of this trim, a teardown
  /// drain, or remove_peer — each of which counts it lost exactly once.
  /// Caller holds link.mu.
  void park_and_trim_locked(PeerLink& link);
  enum class WriteResult { kDone, kPartial, kFailed };
  /// Writes one frame over `fd` as header + scatter segments, starting at
  /// stream byte `written` and advancing it. `flags` adds MSG_DONTWAIT for
  /// the posting thread; kPartial means the socket buffer filled first.
  WriteResult write_frame(int fd, const FrameBuilder& frame,
                          std::size_t& written, int flags);
  /// Writes our HELLO as the first bytes of a fresh connection.
  bool send_hello(int fd);
  /// Allowlist check: version, token, claimed node known and not us.
  bool validate_hello(const HelloFrame& hello, std::string* why) const;
  /// Counts + logs a pre-dispatch rejection / post-handshake poisoning and
  /// shuts the connection down.
  void reject_inbound(Inbound& conn, const std::string& why);
  void poison_inbound(Inbound& conn, const std::string& why);
  void deliver(NodeId src, Buffer payload);
  void enqueue(NodeId dst, FrameBuilder frame);
  void count_lost(std::size_t frames, std::size_t bytes);
  /// Snapshot lookup; the returned shared_ptr keeps the link alive across a
  /// racing remove_peer.
  std::shared_ptr<PeerLink> find_link(NodeId id) const;

  SocketTransportOptions options_;
  FrameBuilder hello_;  ///< our encoded HELLO, immutable
  Directory directory_;

  mutable std::mutex mu_;
  Handler handler_;
  bool have_node_ = false;
  int active_deliveries_ = 0;
  mutable std::condition_variable delivery_cv_;
  TransportStats stats_;

  /// Peer set. Guarded by links_mu_ (map shape + names); each link's own
  /// state is under its PeerLink::mu. Lock order: links_mu_ or link->mu may
  /// each be followed by mu_, never the reverse.
  mutable std::mutex links_mu_;
  std::unordered_map<NodeId, std::shared_ptr<PeerLink>> links_;
  std::unordered_map<NodeId, std::string> peer_names_;

  std::vector<std::shared_ptr<Inbound>> inbound_;  ///< accept order
  std::condition_variable inbound_cv_;  ///< an Inbound finished (under mu_)

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::jthread listener_;
};

}  // namespace alps::net
