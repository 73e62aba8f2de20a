// Low-level synchronization primitives used throughout the ALPS runtime.
//
// Everything here follows the C++ Core Guidelines concurrency rules: RAII
// locking only, condition variables always waited on with a predicate, and
// no busy-waiting on the hot paths.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace alps::support {

/// A counting semaphore with an unbounded count.
///
/// std::counting_semaphore requires a compile-time least-max-value and lacks
/// a timed acquire that reports the remaining count, so the runtime uses this
/// small mutex/cv implementation instead. Contention on these semaphores is
/// low (they guard per-object scheduling decisions, not data paths).
class Semaphore {
 public:
  explicit Semaphore(std::int64_t initial = 0) : count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  void release(std::int64_t n = 1) {
    {
      std::scoped_lock lock(mu_);
      count_ += n;
    }
    if (n == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  void acquire() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return count_ > 0; });
    --count_;
  }

  bool try_acquire() {
    std::scoped_lock lock(mu_);
    if (count_ <= 0) return false;
    --count_;
    return true;
  }

  template <class Rep, class Period>
  bool try_acquire_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    if (!cv_.wait_for(lock, timeout, [&] { return count_ > 0; })) return false;
    --count_;
    return true;
  }

  std::int64_t value() const {
    std::scoped_lock lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t count_;
};

/// A waiter-counted event epoch (an "eventcount", the futex-style discipline
/// used by lean runtime schedulers). Producers call signal() after publishing
/// state; consumers register with prepare_wait(), re-check their predicate,
/// and only then block. The fast path on both sides is purely atomic:
///
///  - signal() with no registered waiter is two atomic operations and never
///    takes the internal mutex or issues a wake syscall;
///  - a waiter whose predicate is already true cancels its registration with
///    one atomic decrement.
///
/// Lost-wakeup freedom: prepare_wait() publishes the waiter count *before*
/// reading the epoch (both seq_cst), and signal() bumps the epoch *before*
/// reading the waiter count (both seq_cst). In the seq_cst total order either
/// the signaler sees the waiter (and notifies under the mutex), or the waiter
/// sees the bumped epoch (and commit_wait() returns without blocking).
class EventCount {
 public:
  /// Wakes all registered waiters whose epoch predates this call. Safe to
  /// call from any thread, with or without unrelated locks held.
  void signal() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;  // fast path
    {
      // Empty critical section: a waiter between its epoch re-check and
      // cv_.wait() holds mu_, so this fence orders us after it and the
      // notify below cannot be missed.
      std::scoped_lock lock(mu_);
    }
    cv_.notify_all();
  }

  /// Like signal(), but wakes (at least) one waiter instead of the whole
  /// herd. Use when a single unit of work arrived and any one waiter can
  /// consume it — e.g. one task into a worker pool. Waiters must re-scan
  /// shared state before re-waiting (our ticket discipline does), because
  /// consecutive one-wakeups may coalesce onto the same waiter.
  void signal_one() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;  // fast path
    {
      std::scoped_lock lock(mu_);
    }
    cv_.notify_one();
  }

  /// Registers the caller as a waiter and returns the current epoch ticket.
  /// Must be balanced by exactly one cancel_wait() or commit_wait().
  std::uint64_t prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Deregisters without blocking (the predicate turned out to be true).
  void cancel_wait() { waiters_.fetch_sub(1, std::memory_order_release); }

  /// Blocks until the epoch moves past `ticket`, then deregisters.
  void commit_wait(std::uint64_t ticket) {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] {
        return epoch_.load(std::memory_order_relaxed) != ticket;
      });
    }
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// RAII registration: construct before reading the predicate's inputs,
  /// call wait() to block, or let the destructor cancel (predicate was
  /// satisfied, or an exception is unwinding).
  class Ticket {
   public:
    explicit Ticket(EventCount& ec) : ec_(&ec), epoch_(ec.prepare_wait()) {}
    ~Ticket() {
      if (armed_) ec_->cancel_wait();
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    /// Blocks until a signal() after this ticket was issued; consumes the
    /// registration.
    void wait() {
      armed_ = false;
      ec_->commit_wait(epoch_);
    }

   private:
    EventCount* ec_;
    std::uint64_t epoch_;
    bool armed_ = true;
  };

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// A manual-reset event: once set it stays set until reset() is called, and
/// every waiter (past or future) observes it.
class Event {
 public:
  void set() {
    // Notify while holding the lock: a woken waiter must reacquire mu_
    // before returning, so it cannot destroy this Event while notify_all is
    // still touching the condition variable (the common stack-local-Event
    // pattern in tests relies on this).
    std::scoped_lock lock(mu_);
    set_ = true;
    cv_.notify_all();
  }

  void reset() {
    std::scoped_lock lock(mu_);
    set_ = false;
  }

  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return set_; });
  }

  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return set_; });
  }

  bool is_set() const {
    std::scoped_lock lock(mu_);
    return set_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool set_ = false;
};

/// A one-shot start/finish barrier for benchmarks: threads park in wait()
/// until arm() releases them all at once, so measured intervals do not
/// include thread start-up skew.
class StartGate {
 public:
  void arm() {
    {
      std::scoped_lock lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Spin lock for micro-critical sections in stats recording. Not used in the
/// kernel proper (kernel sections can block, and CP.43 says keep critical
/// sections short — the stats sections are a handful of arithmetic ops).
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__cpp_lib_atomic_flag_test)
      while (flag_.test(std::memory_order_relaxed)) {
      }
#endif
    }
  }

  void unlock() { flag_.clear(std::memory_order_release); }

  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

}  // namespace alps::support
