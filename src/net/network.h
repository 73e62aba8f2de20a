// Simulated multi-node transport.
//
// The ALPS kernel was being implemented on a 16-node transputer network
// (§4); no such hardware here, so this Transport implementation simulates
// the substrate the RPC layer needs: named nodes, point-to-point frames,
// per-link latency (base + uniform jitter, deterministic under a seed),
// delivery on a dedicated thread, and traffic accounting. The substitution
// preserves the code path the paper depends on — entry calls marshalled
// into messages, delivered asynchronously, answered with response messages
// — while staying laptop-runnable (experiment E11 sweeps the latency).
//
// This is the deterministic half of the Transport seam (transport.h): the
// fault injectors below (drop/duplicate/reorder, scripted partitions) have
// no socket equivalent, which is exactly why the simulation stays — every
// fault-model test keeps its reproducible substrate, while the same RPC
// stack runs unchanged over real sockets (transport_socket.h).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/transport.h"
#include "support/rng.h"

namespace alps::net {

struct LinkLatency {
  std::chrono::microseconds base{0};
  std::chrono::microseconds jitter{0};  // uniform in [0, jitter]
};

/// Per-link fault injection knobs. All probabilities are independent
/// per-frame Bernoulli draws from the network's seeded RNG, so a given
/// frame-post sequence produces the same fault pattern every run.
struct LinkFaults {
  double drop = 0.0;       ///< frame silently lost
  double duplicate = 0.0;  ///< a second copy is delivered after extra jitter
  double reorder = 0.0;    ///< frame escapes the link's FIFO clamp
  /// Extra delay bound for duplicated copies (uniform in [0, this]).
  std::chrono::microseconds duplicate_jitter{2000};
};

/// Counters only the simulation can produce: a socket transport never
/// duplicates or reorders frames on its own, so these stay out of the
/// transport-agnostic TransportStats shape.
struct SimFaultStats {
  std::uint64_t frames_duplicated = 0;  ///< injected duplicate copies
  std::uint64_t frames_reordered = 0;   ///< frames that escaped the FIFO clamp
};

/// One frame as the simulation schedules it: flattened payload bytes from
/// src to dst. Also the unit of raw injection (Network::post(Frame)), which
/// fault tests use to put hand-made or corrupt bytes on a link.
struct Frame {
  NodeId src = 0;
  NodeId dst = 0;
  std::vector<std::uint8_t> payload;
};

/// A set of nodes plus a delivery thread. Handlers run on the delivery
/// thread and must not block for long (the RPC layer's handlers only
/// enqueue kernel work).
class Network final : public Transport {
 public:
  explicit Network(LinkLatency default_latency = {}, std::uint64_t seed = 1);
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; returns its id (ids are dense, starting at 0).
  NodeId add_node(const std::string& name) override;

  /// The cluster's object directory (see directory.h). The Network models
  /// the whole cluster, so it owns the authoritative name → home-node map;
  /// Node::host/unhost maintain it and name-based calls resolve through it.
  Directory& directory() override { return *directory_; }

  void set_handler(NodeId node, Handler handler) override;

  /// Overrides the latency of the directed link src → dst.
  void set_link_latency(NodeId src, NodeId dst, LinkLatency latency);

  void set_default_latency(LinkLatency latency);

  /// Flattens `frame` with build() — the sim's single gather — and
  /// schedules it as post(Frame) does.
  void post(NodeId src, NodeId dst, FrameBuilder frame) override;

  /// Schedules delivery of raw bytes after the link's latency, subject to
  /// the injected faults. Frames to the sender itself are delivered through
  /// the same path (loopback latency).
  void post(Frame frame);

  // ---- failure injection (experiments & tests) ----

  /// Drops each frame independently with probability `p` (0 disables).
  /// Deterministic under the network's seed. Equivalent to setting the
  /// default LinkFaults' drop probability.
  void set_loss_probability(double p);

  /// Faults applied to every link without a per-link override.
  void set_default_faults(LinkFaults faults);

  /// Overrides the fault model of the directed link src → dst.
  void set_link_faults(NodeId src, NodeId dst, LinkFaults faults);

  /// Severs both directions between the two node sets containing `a` and
  /// `b`: frames between a's side and b's side are lost until heal() — a
  /// network partition. (Simple two-sided model: the partition is defined
  /// by the explicit pair list.)
  void partition(NodeId a, NodeId b);

  /// Scripted partition, deterministic under the frame stream: the a↔b cut
  /// activates once `after_frames` total frames have been posted and heals
  /// after `duration_frames` more. Lost frames count as posted, so
  /// retransmissions drive the script forward even while the cut is active.
  void schedule_partition(NodeId a, NodeId b, std::uint64_t after_frames,
                          std::uint64_t duration_frames);

  /// Removes all partitions, manual and scripted.
  void heal();

  /// True while an a↔b cut (manual or currently-active scripted) exists.
  /// The RPC layer uses this to type a delivery failure as "partitioned"
  /// rather than a plain timeout.
  bool is_partitioned(NodeId a, NodeId b) const override;

  // ---- dynamic membership (parity with SocketTransport) ----

  /// Revives a departed node, or appends a brand-new one when `id` equals
  /// the next dense id (`address` is meaningless in-process and ignored).
  /// Raises kNetwork for a sparse id — the sim's ids stay dense.
  void add_peer(NodeId id, const std::string& name,
                const std::string& address) override;

  /// Marks `id` departed: frames to or from it — queued, in flight, or
  /// posted later — are counted lost, is_partitioned() reports it cut, and
  /// its directory entries are purged, exactly what a SocketTransport
  /// eviction looks like from the RPC layer.
  bool remove_peer(NodeId id) override;

  TransportStats transport_stats() const override;
  /// Injected-fault accounting (sim-only; see SimFaultStats).
  SimFaultStats fault_stats() const;

  std::size_t node_count() const override;
  std::string node_name(NodeId id) const override;

  /// Blocks until no frame is queued or in flight (for tests/benches).
  /// Exact, unlike a socket transport's best-effort version: the sim owns
  /// both ends of every link.
  void wait_quiescent() const override;

  /// True while a frame src → dst is scheduled but not yet delivered (or
  /// dropped at delivery). After a true answer, the delivery thread fires
  /// the idle handler when the last one leaves.
  bool link_busy(NodeId src, NodeId dst) override;

 private:
  struct Scheduled {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;  // FIFO tiebreak for equal deadlines
    Frame frame;
    bool operator>(const Scheduled& o) const {
      return due != o.due ? due > o.due : seq > o.seq;
    }
  };

  struct PartitionScript {
    NodeId a, b;
    std::uint64_t start;  // activates when total_posted_ >= start
    std::uint64_t end;    // heals when total_posted_ >= end
  };

  void delivery_loop(const std::stop_token& st);
  LinkLatency latency_for(NodeId src, NodeId dst) const;
  LinkFaults faults_for(NodeId src, NodeId dst) const;
  bool partitioned_locked(NodeId a, NodeId b) const;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::condition_variable idle_cv_;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>> queue_;
  std::vector<std::string> node_names_;
  std::vector<Handler> handlers_;
  std::vector<std::pair<std::pair<NodeId, NodeId>, LinkLatency>> link_overrides_;
  std::vector<std::pair<std::pair<NodeId, NodeId>, LinkFaults>> fault_overrides_;
  std::vector<std::pair<NodeId, NodeId>> partitions_;  // undirected pairs
  std::unordered_set<NodeId> departed_;  ///< evicted by remove_peer
  std::vector<PartitionScript> scripted_partitions_;
  std::uint64_t total_posted_ = 0;  // all post() calls, including lost frames
  LinkFaults default_faults_;
  LinkLatency default_latency_;
  support::Rng rng_;
  TransportStats stats_;
  SimFaultStats fault_stats_;
  /// Per-directed-link schedule state (keyed by link_key): `clamp` is the
  /// FIFO watermark jittered frames are held to; `max_due` is the latest
  /// delivery ever scheduled, used to detect when an injected reorder fault
  /// actually overtook an earlier frame; `in_flight` counts frames
  /// scheduled and not yet popped — the link is busy while it is non-zero —
  /// and `idle_wanted` records that link_busy answered true since.
  struct LinkSchedule {
    std::chrono::steady_clock::time_point clamp;
    std::chrono::steady_clock::time_point max_due;
    std::uint64_t in_flight = 0;
    bool idle_wanted = false;
  };
  static std::uint64_t link_key(NodeId src, NodeId dst) {
    return (src << 32) | (dst & 0xffffffffu);
  }
  /// One scheduled frame src → dst left the queue. Returns true when that
  /// was the link's last one and an idle notification is wanted. Caller
  /// holds mu_.
  bool leave_link_locked(NodeId src, NodeId dst);
  std::unordered_map<std::uint64_t, LinkSchedule> last_due_;
  std::uint64_t next_seq_ = 0;
  bool delivering_ = false;
  NodeId delivering_to_ = 0;  ///< valid while delivering_ is true
  std::unique_ptr<Directory> directory_;
  std::jthread delivery_thread_;
};

}  // namespace alps::net
