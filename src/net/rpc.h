// RPC over a Transport backend: remote entry calls and remote channels.
//
// "Calls to the entry procedures of an object are implemented as remote
// procedure calls. A user can further communicate with an executing remote
// procedure using message passing on point-to-point channels." (§1)
//
// A Node hosts kernel Objects and speaks six frame types (see codec.h for
// the wire layout):
//   kRequest   — (req_id, epoch, ack, object, entry, params) → Object::async_call
//   kResponse  — (req_id, cause, flags, results | error)     → completes the future
//   kChanSend  — (chan_id, message)                          → local channel send
//   kAck       — (ack_through)                               → dedup eviction
//   kWrongNode — (req_id, home, object, shard, map_epoch)    → stale route; re-send
//   kBatch     — (count, member frames)                      → coalesced link traffic
//
// Location transparency. Objects are addressable by name alone: the
// Network's Directory (directory.h) maps object → placement (one home, N
// shard homes, or a replica set), Node::host registers there, and the
// name-based call surface (`node.call("Dict", "Search", ...)` /
// `node.remote("Dict")`) resolves through a per-node route cache backed by
// the directory. For a sharded object the router hashes the call's first
// parameter (shard_key_hash → jump consistent hash) and targets that
// shard's home; for a read-replicated object writes go to the primary and
// reads spread across the replicas (CallOptions::read). When placement
// changes (host on the new node, then unhost on the old — the directory
// keeps an entry through that order; or a live shard split via
// add_sharded), a request that lands on a stale home earns a stateless
// kWrongNode redirect carrying the current home *for that key's shard*
// plus the answering map's epoch; the client patches the one slot of its
// cached shard map (or refreshes the whole route), re-patches the
// piggybacked ack watermark for the new link, and re-sends the *same*
// (req_id, epoch) frame — so the at-most-once dedup key survives the
// re-route, the redirect composes with retries (at most one extra hop,
// never a double execution), and resharding needs no global barrier.
//
// Frame coalescing. set_batching() sends a frame at once on an idle link
// and coalesces frames posted behind a write in flight into one kBatch
// envelope, sent when the link goes idle or the buffer fills (batch.h); the
// receiver unpacks kBatch members in order, preserving link FIFO. High
// fan-in workloads pay well under one frame per call (bench_routing, E15).
//
// Fault tolerance. The network may drop, duplicate or reorder frames and
// sever links (see network.h). Two cooperating mechanisms restore the
// exactly-once call semantics ALPS objects assume:
//
//   * Client retries — a RetryPolicy retransmits an unanswered request with
//     exponential backoff + jitter, driven by a per-Node retry timer thread.
//     Failures surface as a typed RpcError (timeout, partitioned,
//     object-not-found, remote-error) rather than an untyped hang.
//   * Server-side at-most-once — a per-(caller, epoch) dedup table keyed by
//     req_id. A retransmission of an executed request replays the cached
//     response frame instead of re-invoking the entry body; one still in
//     flight is dropped (its response is already on the way). Entries are
//     evicted by the caller's ack watermark (piggybacked on requests and
//     sent standalone when a caller goes idle) and bounded per caller.
//
// Channels cross the wire by name: a local channel encodes as (home node,
// id); the receiving node materializes a proxy whose sends come back as
// kChanSend frames. This is what lets a remote caller pass a reply channel
// to an executing entry procedure, exactly as the paper describes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/call.h"
#include "core/channel.h"
#include "core/object.h"
#include "net/batch.h"
#include "net/codec.h"
#include "net/directory.h"
#include "net/transport.h"
#include "support/rng.h"

namespace alps::net {

class Node;

/// Why a remote call failed, as surfaced to the caller. kTimeout covers both
/// ends of the same contract: no response arrived in time, or the serving
/// kernel itself expired the call's deadline (the request header carries it)
/// and said so in a typed response.
enum class RpcCause {
  kTimeout,         ///< attempt/overall deadline passed, locally or remotely
  kPartitioned,     ///< as kTimeout, but a partition to the target is active
  kObjectNotFound,  ///< target node does not host the named object
  kRemoteError,     ///< entry body threw / no such entry / object stopped
  kCancelled,       ///< caller cancelled the request (client- or kernel-side)
  kShutdown,        ///< local node destroyed with the call outstanding
  kObjectDown,      ///< target object quarantined after a manager failure
};

const char* to_string(RpcCause cause);

/// Typed RPC failure. Derives from Error so legacy `.get()` callers that
/// catch Error keep working; new callers receive it as the error arm of
/// `Result<ValueList, RpcError>` and switch on cause().
class RpcError : public Error {
 public:
  RpcError(RpcCause cause, const std::string& what, int attempts = 1)
      : Error(code_for(cause), std::string(to_string(cause)) + ": " + what),
        cause_(cause),
        attempts_(attempts) {}

  [[noreturn]] void raise_copy() const override { throw RpcError(*this); }

  RpcCause cause() const { return cause_; }
  /// Number of transmissions made before the failure surfaced.
  int attempts() const { return attempts_; }

 private:
  /// Keeps ErrorCode and RpcCause telling the same story, so callers that
  /// only see the Error base still get the right typed code.
  static ErrorCode code_for(RpcCause cause) {
    switch (cause) {
      case RpcCause::kTimeout: return ErrorCode::kTimeout;
      case RpcCause::kCancelled: return ErrorCode::kCancelled;
      case RpcCause::kObjectDown: return ErrorCode::kObjectDown;
      default: return ErrorCode::kNetwork;
    }
  }

  RpcCause cause_;
  int attempts_;
};

/// Retransmission discipline for one call. Attempt k waits
/// `attempt_timeout`, then backs off `initial_backoff * multiplier^(k-1)`
/// (capped at `max_backoff`, ± `jitter` fraction) before retransmitting.
/// max_attempts == 0 means unlimited — retry until the overall deadline
/// (or forever if none); that is the default, because with at-most-once
/// dedup a retransmission is always safe and eventual completion is what
/// the exactly-once call semantics promise.
struct RetryPolicy {
  int max_attempts = 0;  ///< 0 = unlimited (bounded by the overall deadline)
  std::chrono::milliseconds attempt_timeout{50};
  std::chrono::milliseconds initial_backoff{10};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{200};
  double jitter = 0.2;  ///< fraction of the backoff, uniform ±
};

/// Per-call knobs for the redesigned call surface.
struct CallOptions {
  /// Overall deadline across all attempts; zero means none (wait forever).
  std::chrono::milliseconds deadline{0};
  /// Engaged = retransmit per the policy (server dedup keeps this safe for
  /// non-idempotent entries). Disengaged = single attempt.
  std::optional<RetryPolicy> retry;
  /// Marks the call read-only: on a read-replicated object it may be served
  /// by any replica (the router spreads reads by key hash) instead of the
  /// primary. Ignored for single-home and sharded placements.
  bool read = false;
};

/// Handle to an in-flight fault-tolerant call. result() blocks and never
/// throws for RPC-level failures — they come back as the RpcError arm.
class RpcHandle {
 public:
  RpcHandle() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->ready(); }
  void wait() const { state_->wait(); }

  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) const {
    return state_->wait_for(timeout);
  }

  /// Blocks until completion; returns results or the typed failure.
  Result<ValueList, RpcError> result();

  /// Abandons the call if still in flight: stops its retry timer, fails the
  /// handle with RpcError(kCancelled), and guarantees a late response frame
  /// is dropped (req_ids are never reused). No-op once completed. Note the
  /// entry body may still execute remotely — cancellation is client-side.
  void cancel();

  std::uint64_t req_id() const { return req_id_; }

  /// The underlying future, for interop with CallHandle-based code. Its
  /// get() rethrows the RpcError.
  CallHandle handle() const { return CallHandle(state_); }

 private:
  friend class RemoteObject;
  RpcHandle(std::shared_ptr<CallState> state, Node* node, std::uint64_t req_id)
      : state_(std::move(state)), node_(node), req_id_(req_id) {}

  std::shared_ptr<CallState> state_;
  Node* node_ = nullptr;
  std::uint64_t req_id_ = 0;
};

/// Client-side proxy for an object hosted on another node.
class RemoteObject {
 public:
  RemoteObject() = default;

  /// Fault-tolerant call: blocks (respecting opts.deadline) and returns the
  /// results or a typed RpcError. With opts.retry engaged the request is
  /// retransmitted under the policy; server dedup guarantees the entry body
  /// still executes at most once.
  Result<ValueList, RpcError> call(const std::string& entry, ValueList params,
                                   const CallOptions& opts);

  /// Asynchronous form of the same surface.
  RpcHandle async_call(const std::string& entry, ValueList params,
                       const CallOptions& opts);

  bool valid() const { return node_ != nullptr; }

 private:
  friend class Node;
  RemoteObject(Node* node, NodeId target, std::string object_name)
      : node_(node), target_(target), object_name_(std::move(object_name)) {}
  RemoteObject(Node* node, std::string object_name)
      : node_(node), by_name_(true), object_name_(std::move(object_name)) {}

  Node* node_ = nullptr;
  NodeId target_ = 0;
  bool by_name_ = false;  ///< resolve per call via route cache / directory
  std::string object_name_;
};

class Node : public ChannelResolver {
 public:
  /// Counters for the at-most-once server side (tests assert exactly-once
  /// execution through `dispatched` and the dedup counters).
  struct ServerStats {
    std::uint64_t requests_received = 0;
    std::uint64_t dispatched = 0;       ///< entry bodies actually invoked
    std::uint64_t dedup_replayed = 0;   ///< retransmissions answered from cache
    std::uint64_t dup_in_flight = 0;    ///< retransmissions of running calls
    std::uint64_t dup_acked = 0;        ///< duplicates at/below the ack mark
    std::uint64_t dedup_evicted = 0;    ///< entries evicted by ack/bound
    std::uint64_t dedup_rejected = 0;   ///< retransmissions past the bound,
                                        ///< refused typed (never re-executed)
    std::uint64_t wrong_node_redirects = 0;  ///< kWrongNode frames sent
  };

  /// Counters for the client side.
  struct ClientStats {
    std::uint64_t retransmits = 0;
    std::uint64_t failures = 0;          ///< calls surfaced as RpcError
    std::uint64_t stale_responses = 0;   ///< late/duplicate responses dropped
    std::uint64_t acks_sent = 0;
    std::uint64_t redirects = 0;         ///< requests re-routed by kWrongNode
  };

  /// Binds this node to a transport backend — the in-process simulator
  /// (net::Network) or a real socket transport (net::SocketTransport); the
  /// whole RPC surface above is backend-agnostic.
  Node(Transport& transport, const std::string& name);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Makes `object` callable from other nodes under its own name. The
  /// object must outlive the node (or be unhosted first).
  void host(Object& object);
  void unhost(const std::string& object_name);

  /// A proxy for `object_name` on node `target`.
  RemoteObject remote(NodeId target, const std::string& object_name);

  /// Location-transparent proxy: the home node is resolved per call through
  /// this node's route cache, falling back to the cluster directory, and is
  /// corrected in-band by kWrongNode redirects after a migration.
  RemoteObject remote(const std::string& object_name);

  /// Name-based call surface — `object` is resolved as in remote(name).
  /// A name with no directory entry fails typed (kObjectNotFound) without
  /// touching the network.
  Result<ValueList, RpcError> call(const std::string& object,
                                   const std::string& entry, ValueList params,
                                   const CallOptions& opts = {});
  RpcHandle async_call(const std::string& object, const std::string& entry,
                       ValueList params, const CallOptions& opts = {});

  /// Enables per-link coalescing of this node's outgoing frames (batch.h).
  /// Configure during setup, before traffic flows: swapping the batcher
  /// while calls are in flight is not synchronized against them.
  void set_batching(const BatchOptions& options);
  /// Synchronously flushes any buffered outgoing frames (quiesce points).
  void flush_batches();
  FrameBatcher::Stats batch_stats() const;

  /// This node's cached route for `object` (tests/diagnostics).
  std::optional<NodeId> cached_route(const std::string& object) const;

  /// Exports a locally created channel so its (node, id) name can be handed
  /// out manually. Hosted-call marshalling does this automatically.
  void export_channel(const ChannelRef& channel);

  // ChannelResolver:
  std::pair<std::uint64_t, std::uint64_t> encode_channel(
      const ChannelRef& channel) override;
  ChannelRef decode_channel(std::uint64_t node, std::uint64_t id) override;

  /// Outstanding client requests (for tests).
  std::size_t inflight() const;

  ServerStats server_stats() const;
  ClientStats client_stats() const;
  /// Live at-most-once entries cached for `caller` (for eviction tests).
  std::size_t dedup_entries(NodeId caller) const;

 private:
  friend class RemoteObject;
  friend class RpcHandle;

  struct Pending {
    std::shared_ptr<CallState> state;
    NodeId target = 0;
    std::string object;                  // target object (route-cache upkeep)
    std::string label;                   // "object.entry" for diagnostics
    /// Request frame in scatter-gather form, re-sendable: a retransmit
    /// copies the builder (header arena + payload slice refcounts) instead
    /// of a full encoded frame.
    FrameBuilder frame;
    bool retry = false;
    RetryPolicy policy;
    int attempts = 1;
    int redirects = 0;                   // kWrongNode hops taken so far
    std::chrono::microseconds backoff{0};
    std::chrono::steady_clock::time_point overall_deadline;
  };

  struct DedupEntry {
    bool done = false;
    /// Cached response still in scatter-gather form — large results are
    /// held as slices shared with the original send, so caching a response
    /// for replay costs O(participants), not O(bytes).
    FrameBuilder response;
  };

  struct CallerTable {
    std::uint64_t epoch = 0;
    /// Highest req_id the caller has acked. Requests at or below this are
    /// network-level duplicates of completed calls — dropped outright, since
    /// the ack promises the caller will never want their responses again.
    std::uint64_t acked_through = 0;
    /// Highest req_id discarded by the per-caller size bound while un-acked.
    /// A retransmission at or below this mark might have executed already,
    /// so it is refused typed (kRemoteError) instead of re-dispatched —
    /// at-most-once is preserved even past the bound, at the cost of a
    /// spurious failure for a pathological (ack-less) caller.
    std::uint64_t bound_evicted_through = 0;
    std::map<std::uint64_t, DedupEntry> entries;  // ordered for watermarks
  };

  struct TimerEntry {
    std::chrono::steady_clock::time_point due;
    std::uint64_t req_id;
    bool operator>(const TimerEntry& o) const { return due > o.due; }
  };

  /// Dispatches one decoded payload (a direct frame or a kBatch member).
  /// `payload` owns its storage (the received frame), so blob params can
  /// alias it instead of copying. `batched` rejects nested kBatch envelopes.
  void dispatch_payload(NodeId from, const Buffer& payload, bool batched);
  void handle_request(NodeId from, const Buffer& payload, std::size_t pos);
  void handle_response(NodeId from, const Buffer& payload, std::size_t pos);
  void handle_chan_send(const Buffer& payload, std::size_t pos);
  void handle_ack(NodeId from, const Buffer& payload, std::size_t pos);
  void handle_wrong_node(NodeId from, const Buffer& payload, std::size_t pos);

  std::shared_ptr<CallState> start_call(NodeId target,
                                        const std::string& object_name,
                                        const std::string& entry,
                                        ValueList params,
                                        const CallOptions& opts,
                                        std::uint64_t* req_id_out,
                                        std::uint8_t flags = 0);

  /// Name-based start: resolves the home via route cache → directory. On a
  /// miss the returned state is already failed (kObjectNotFound).
  std::shared_ptr<CallState> start_named_call(const std::string& object_name,
                                              const std::string& entry,
                                              ValueList params,
                                              const CallOptions& opts,
                                              std::uint64_t* req_id_out);

  /// Sends one frame to dst — through the batcher when enabled (keeping the
  /// scatter-gather form so the envelope re-references payload slices),
  /// handed to the transport in builder form otherwise (a socket backend
  /// writes the segments directly; the sim builds once). Never called with
  /// mu_ held.
  void post_frame(NodeId dst, FrameBuilder frame);

  /// The ack watermark safe to piggyback on a frame to `target`: no req_id
  /// at or below it will ever be retransmitted. Per-target progress capped
  /// by the globally smallest pending id, because a redirect can migrate an
  /// outstanding id to a different target. Caller holds mu_.
  std::uint64_t ack_watermark_locked(NodeId target) const;

  /// Enforces the per-caller dedup bound: evicts oldest *done* entries past
  /// the cap and advances bound_evicted_through. Caller holds mu_.
  void shrink_dedup_locked(CallerTable& table);

  /// Abandons an in-flight request: the caller's handle fails with
  /// RpcError(kCancelled) and a late response frame is ignored.
  void cancel_request(std::uint64_t req_id);

  void retry_loop(const std::stop_token& st);
  /// Membership-change hook (Transport listener): a departed peer's batch
  /// buffer is flushed fail-fast and its cached routes dropped.
  void on_membership(NodeId peer, bool added);
  /// Unhooks the batcher from the transport's idle notifications and
  /// destroys it (flushing residue). No-op without batching.
  void retire_batcher();
  /// Removes client bookkeeping for req_id; returns an ack frame to post
  /// (empty if none is due). Caller holds mu_.
  FrameBuilder finish_pending_locked(std::uint64_t req_id, NodeId target);
  void evict_dedup_locked(CallerTable& table, std::uint64_t ack_through);

  Transport* transport_;
  NodeId id_;
  std::string name_;
  std::uint64_t epoch_;
  std::uint64_t membership_token_ = 0;  ///< Transport listener registration

  mutable std::mutex mu_;
  std::unordered_map<std::string, Object*> hosted_;
  /// Ordered so begin() is the smallest outstanding req_id — the global ack
  /// watermark a redirect-migrated id must still be protected by.
  std::map<std::uint64_t, Pending> pending_;
  /// Name → last known placement, fed by directory lookups and patched one
  /// shard slot at a time by kWrongNode redirect hints; an entry is dropped
  /// on a kObjectNotFound response from any of its homes.
  std::unordered_map<std::string, Placement> route_cache_;
  /// Outstanding req_ids per target plus the last id sent there — the two
  /// feed the ack watermark ("no id <= X will ever be retransmitted").
  std::unordered_map<NodeId, std::set<std::uint64_t>> outstanding_;
  std::unordered_map<NodeId, std::uint64_t> last_sent_;
  /// Server-side at-most-once state, keyed by caller node.
  std::unordered_map<NodeId, CallerTable> dedup_;
  /// Channels this node has exported (kept alive; keyed by channel id).
  std::unordered_map<std::uint64_t, ChannelRef> exported_channels_;
  /// Proxies for channels homed elsewhere, keyed by (node, id).
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, std::weak_ptr<ChannelCore>>>
      proxies_;
  std::uint64_t next_req_ = 1;
  ServerStats server_stats_;
  ClientStats client_stats_;
  support::Rng rng_;  // backoff jitter (seeded from the node name)

  /// Outgoing frame coalescing (set_batching). The owning pointer is only
  /// written at setup time; hot paths read the raw pointer with acquire
  /// ordering so posting threads never touch mu_ for the common case.
  std::unique_ptr<FrameBatcher> batcher_;
  std::atomic<FrameBatcher*> batcher_raw_{nullptr};

  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>>
      timers_;
  std::condition_variable timer_cv_;
  std::jthread timer_thread_;
};

}  // namespace alps::net
