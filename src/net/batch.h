// Per-link frame coalescing, clocked by the link itself.
//
// High fan-in RPC workloads pay one network frame per request, response and
// ack; on a real transport each frame is a syscall and a wire header. The
// batcher applies Nagle's rule (RFC 896) per destination link instead of a
// timer: a frame posted while the link is idle goes out at once, raw (no
// envelope, so an idle link's latency matches direct sends); frames posted
// while a write on that link is still in flight wait in the link's buffer
// and leave together, as one kBatch envelope, from whichever thread sees the
// link go idle. Under load a write is almost always in flight, so batches
// form without anyone waiting out a clock; an idle link never delays a frame.
// The receiving node unpacks envelope members in order, preserving the
// link's FIFO semantics.
//
// "Busy" and "went idle" come from the transport (Transport::link_busy and
// the idle handler, transport.h). A full buffer (max_frames members or
// max_bytes) leaves at once even while the link is busy, so the batcher
// never holds more than one envelope's worth per link — also while a peer
// is down and the transport parks what it is given.
//
// Ordering: one thread at a time posts a given link's frames (the link's
// "drainer"); a frame enqueued meanwhile joins the buffer behind it, and the
// drainer re-checks the buffer before it lets go. So frames leave in the
// order they were enqueued, and none is stranded: either the drainer sees
// it, or the link's next idle transition does.
//
// Fault interplay: a batch is one frame to the transport, so injected drop /
// duplication / partition hits all members together. That is by design —
// the retry + at-most-once machinery above (rpc.h) already converges under
// whole-frame loss, and a duplicated batch only produces member duplicates
// the dedup table absorbs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/codec.h"
#include "net/transport.h"

namespace alps::net {

struct BatchOptions {
  std::size_t max_frames = 8;        ///< most members one envelope carries
  std::size_t max_bytes = 48 * 1024; ///< ... or buffered bytes
  /// Ignored: batches are clocked by the link, not by a timer. Kept only so
  /// existing callers that still set it compile.
  std::chrono::microseconds flush_interval{0};
};

/// Buffers (dst, payload) pairs per destination while that link is busy and
/// emits them through the supplied post function, coalesced into kBatch
/// frames. Thread-safe; owns no thread — every post happens on a thread that
/// enqueued a frame, reported a link idle, or asked for a flush. The
/// destructor flushes residue.
class FrameBatcher {
 public:
  /// Flushes leave in scatter-gather form so the transport can keep the
  /// batch envelope on the writev path (a socket backend sends the segment
  /// list directly; the sim builds it at post).
  using PostFn = std::function<void(NodeId dst, FrameBuilder frame)>;
  /// True while a write towards `dst` is in flight (Transport::link_busy).
  /// A true answer promises a later on_link_idle(dst) once the link is idle
  /// again. Called with the batcher's lock held: it must not call back into
  /// the batcher.
  using BusyFn = std::function<bool(NodeId dst)>;

  struct Stats {
    std::uint64_t frames_enqueued = 0;
    std::uint64_t batches_posted = 0;    ///< kBatch envelopes (≥ 2 members)
    std::uint64_t frames_coalesced = 0;  ///< members carried inside batches
    std::uint64_t singles_posted = 0;    ///< posted alone, sent raw
    std::uint64_t size_flushes = 0;      ///< posted because the buffer filled
    /// Always 0: there is no interval flush. Kept for existing readers.
    std::uint64_t interval_flushes = 0;
  };

  FrameBatcher(BatchOptions options, PostFn post, BusyFn busy);
  ~FrameBatcher();

  FrameBatcher(const FrameBatcher&) = delete;
  FrameBatcher& operator=(const FrameBatcher&) = delete;

  /// Posts the frame now if its link is idle and nothing is buffered for
  /// it; otherwise buffers it behind the write in flight. Payload slices are
  /// carried by reference into a batch envelope and written once, at the
  /// envelope's single build.
  void enqueue(NodeId dst, FrameBuilder frame);

  /// The transport's "link went idle" notification for `dst`: what
  /// coalesced behind the finished write leaves now, as one envelope.
  void on_link_idle(NodeId dst);

  /// Posts every link's buffer regardless of link state (tests / quiesce
  /// points). A link whose drainer is running on another thread is left to
  /// it, marked to post everything before it lets go.
  void flush_all();

  /// Posts (and forgets) one destination's buffer — the membership-change
  /// hook. Posting fails fast at the transport for a removed peer (counted
  /// dropped) instead of the members waiting for an idle that never comes.
  void flush_peer(NodeId dst);

  /// Frames buffered across all links right now (tests / diagnostics).
  std::size_t buffered() const;

  Stats stats() const;

 private:
  struct LinkBuffer {
    std::vector<FrameBuilder> members;
    std::size_t bytes = 0;
    /// A thread is posting this link's frames; everyone else only appends.
    bool draining = false;
    /// flush_all landed while draining: post everything, busy or not.
    bool flush = false;
  };

  /// Becomes `buf`'s drainer and posts from it until the buffer is empty,
  /// or the link is busy and the buffer not full (`flush` ignores busy).
  /// Caller holds `lock` on mu_ and has checked !buf.draining; the lock is
  /// dropped around each post.
  void drain(NodeId dst, LinkBuffer& buf, std::unique_lock<std::mutex>& lock,
             bool flush);
  /// Takes up to one envelope's worth from the front of `buf`: a lone
  /// member raw, two or more wrapped in a kBatch frame. Caller holds mu_.
  FrameBuilder take_locked(LinkBuffer& buf);
  bool full(const LinkBuffer& buf) const {
    return buf.members.size() >= options_.max_frames ||
           buf.bytes >= options_.max_bytes;
  }

  BatchOptions options_;
  PostFn post_;
  BusyFn busy_;
  mutable std::mutex mu_;
  /// Node-based, so a LinkBuffer& stays valid while a drainer has mu_
  /// dropped; only flush_peer erases, and never a link being drained.
  std::unordered_map<NodeId, LinkBuffer> buffers_;
  std::size_t buffered_ = 0;  ///< members across all buffers; under mu_
  Stats stats_;
};

}  // namespace alps::net
