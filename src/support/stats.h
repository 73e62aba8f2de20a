// Measurement utilities for the benchmark harness and the property tests:
// thread-safe latency histograms with percentile queries, simple counters,
// and a wall-clock stopwatch.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "support/sync.h"

namespace alps::support {

/// Log-bucketed latency histogram (ns resolution, ~4% relative error).
/// record() is lock-free-ish (spin lock over a handful of increments) so it
/// can sit on benchmark hot paths without distorting the measurement much.
class Histogram {
 public:
  Histogram();

  /// Copyable (fresh lock, snapshotted contents) so reports embedding
  /// histograms can be returned by value.
  Histogram(const Histogram& other) : Histogram() { merge(other); }
  Histogram& operator=(const Histogram& other) {
    if (this != &other) {
      reset();
      merge(other);
    }
    return *this;
  }

  void record(std::uint64_t value_ns);

  template <class Rep, class Period>
  void record_duration(std::chrono::duration<Rep, Period> d) {
    // Clamp negative deltas to zero: clock-skewed or out-of-order timestamp
    // pairs would otherwise cast to ~2^64 ns and blow out max/mean/p99.
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
    record(ns.count() < 0 ? 0 : static_cast<std::uint64_t>(ns.count()));
  }

  void merge(const Histogram& other);

  std::uint64_t count() const;
  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;
  /// q in [0,1]; returns an approximate value at that quantile.
  std::uint64_t percentile(double q) const;

  /// "count=... mean=...us p50=...us p99=...us max=...us"
  std::string summary() const;

  void reset();

 private:
  static constexpr int kSubBuckets = 16;  // per power of two
  static constexpr int kBuckets = 64 * kSubBuckets;

  static int bucket_for(std::uint64_t v);
  static std::uint64_t bucket_mid(int b);

  mutable SpinLock mu_;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  std::chrono::nanoseconds elapsed() const { return clock::now() - start_; }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(elapsed()).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// A named atomic counter group for throughput accounting in benches.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Process-wide data-plane accounting (DESIGN.md §4.9). The codec's
/// FrameBuilder flushes one set of adds per assembled frame (never per byte)
/// and the value decoder adds per payload, so the counters are cheap enough
/// to stay always-on. `bytes_copied` counts payload bytes memcpy'd into
/// intermediate storage (frame arenas, decode materialization);
/// `bytes_referenced` counts bytes that crossed the data plane as refcounted
/// slices instead. The single final gather into the wire vector is
/// `bytes_assembled` — every frame pays it exactly once by construction.
struct DataPlaneStats {
  Counter bytes_copied;
  Counter bytes_referenced;
  Counter frames_assembled;
  Counter bytes_assembled;

  void reset() {
    bytes_copied.reset();
    bytes_referenced.reset();
    frames_assembled.reset();
    bytes_assembled.reset();
  }
};

/// The process-wide instance (benches reset() it between A/B phases).
DataPlaneStats& data_plane();

/// Process-wide transport-health accounting (DESIGN.md §4.11). Per-transport
/// TransportStats carries the same counters for tests that own the instance;
/// this aggregate exists so the trace summary footer can report poisoned
/// streams and rejected handshakes process-wide — the codec's reassembler
/// counts poison events even when no transport owns it (fuzz harnesses).
struct NetHealthStats {
  Counter handshake_rejected;    ///< inbound connections refused pre-dispatch
  Counter connections_poisoned;  ///< connections dropped on framing corruption
  Counter streams_poisoned;      ///< StreamReassembler poison events

  void reset() {
    handshake_rejected.reset();
    connections_poisoned.reset();
    streams_poisoned.reset();
  }
};

/// The process-wide instance.
NetHealthStats& net_health();

/// Formats nanoseconds human-readably ("742ns", "12.3us", "4.5ms", "1.2s").
std::string format_ns(double ns);

}  // namespace alps::support
