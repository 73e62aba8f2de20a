// Call records and completion futures.
//
// Every invocation of an entry procedure creates a CallRecord carrying the
// full caller-supplied parameter list and a shared CallState that the caller
// holds as a CallHandle. The kernel completes the state exactly once — with
// results at `finish` (or immediately for non-intercepted entries), or with
// an error if the body threw or the object stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/value.h"

namespace alps {

/// Cooperative cancellation handle shared between a caller and the kernel.
/// The caller keeps the token and calls request_cancel(); every call launched
/// with this token in its CallOptions is then failed with kCancelled at
/// whatever lifecycle stage it has reached (pending calls are unqueued,
/// started bodies are abandoned and their result discarded). One token may
/// cover many calls, and may outlive the objects it was used against.
class CancelToken {
 public:
  void request_cancel() {
    std::vector<std::function<void()>> subs;
    {
      std::scoped_lock lock(mu_);
      if (cancelled_) return;
      cancelled_ = true;
      subs.swap(subs_);
    }
    for (auto& fn : subs) fn();
  }

  bool cancelled() const {
    std::scoped_lock lock(mu_);
    return cancelled_;
  }

  /// Kernel-internal: registers a callback run exactly once when the token is
  /// cancelled (immediately if it already is). Callbacks must not assume the
  /// object that registered them is still alive; the kernel registers thunks
  /// that only touch independently-owned supervisor state.
  void subscribe(std::function<void()> fn) {
    bool run_now = false;
    {
      std::scoped_lock lock(mu_);
      if (cancelled_) {
        run_now = true;
      } else {
        subs_.push_back(std::move(fn));
      }
    }
    if (run_now) fn();
  }

 private:
  mutable std::mutex mu_;
  bool cancelled_ = false;
  std::vector<std::function<void()>> subs_;
};

/// Per-call options for local (kernel-level) invocations. Distinct from
/// net::CallOptions, which drives the RPC retry machinery; this one is
/// enforced inside the object kernel and works at every stage of the
/// intercepted-call lifecycle. Zero-cost when default-constructed: the
/// kernel registers nothing unless a deadline or token is present.
struct CallOptions {
  /// Relative deadline; <=0 means none. On expiry the caller observes a
  /// typed Error(kTimeout) and the kernel reclaims whatever the call held.
  std::chrono::milliseconds deadline{0};
  /// Optional cancellation token (see CancelToken).
  std::shared_ptr<CancelToken> cancel = nullptr;

  bool none() const { return deadline.count() <= 0 && cancel == nullptr; }
};

class CallState {
 public:
  /// Completes with results. First completion wins; later ones are ignored
  /// (the kernel never double-completes, but shutdown races are tolerated).
  void complete(ValueList results) {
    std::function<void(CallState&)> cb;
    {
      std::scoped_lock lock(mu_);
      if (done_) return;
      results_ = std::move(results);
      done_ = true;
      cb = std::move(on_complete_);
    }
    cv_.notify_all();
    if (cb) cb(*this);
  }

  void fail(std::exception_ptr error) {
    std::function<void(CallState&)> cb;
    {
      std::scoped_lock lock(mu_);
      if (done_) return;
      error_ = std::move(error);
      done_ = true;
      cb = std::move(on_complete_);
    }
    cv_.notify_all();
    if (cb) cb(*this);
  }

  void fail(ErrorCode code, const std::string& what) {
    fail(std::make_exception_ptr(Error(code, what)));
  }

  bool ready() const {
    std::scoped_lock lock(mu_);
    return done_;
  }

  /// Untimed wait. The only wait that registers as parked: while this
  /// caller sleeps here, the kernel may hand it the call's own multiactive
  /// body to run on this thread instead of waking a pool worker
  /// (hand_to_waiter; DESIGN.md §4.8). A handed-off body is always run, even
  /// when the call completed first, as the pool drains a queued task.
  void wait() const {
    std::unique_lock lock(mu_);
    if (done_) return;  // a pending handoff belongs to a parked waiter
    // parked_ is only written under mu_; the atomic serves waiters(). The
    // object's count rises first, so a reader that sees this waiter there
    // sees it in the object's count too.
    if (parked_in_) parked_in_->fetch_add(1, std::memory_order_relaxed);
    parked_.store(parked_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
    for (;;) {
      cv_.wait(lock, [&] { return done_ || handoff_; });
      if (!handoff_) break;
      std::function<void()> body = std::move(handoff_);
      handoff_ = nullptr;
      lock.unlock();
      body();
      body = nullptr;  // captures released outside mu_
      lock.lock();
    }
    parked_.store(parked_.load(std::memory_order_relaxed) - 1,
                  std::memory_order_relaxed);
    if (parked_in_) parked_in_->fetch_sub(1, std::memory_order_release);
  }

  /// Plain timed wait; returns false on timeout without completing the call.
  /// Callers that want a typed outcome should use get_for, which converts a
  /// timeout into an Error(kTimeout) completion instead of a bare false.
  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) const {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return done_; });
  }

  /// Waits up to `timeout`; on expiry fails the call with a typed
  /// Error(kTimeout) and throws it. First-completion-wins still holds: if a
  /// real completion races past the timeout, that completion is what get()
  /// observes and no timeout error is recorded.
  template <class Rep, class Period>
  ValueList get_for(std::chrono::duration<Rep, Period> timeout) {
    if (!wait_for(timeout)) {
      fail(ErrorCode::kTimeout, "call still outstanding at deadline");
    }
    return get();
  }

  /// Waits and returns the results, rethrowing any stored error. Kernel
  /// errors are rethrown as a per-caller copy (Error::raise_copy), never as
  /// the shared stored object, so the caller may keep reading its exception
  /// after every CallState reference is gone.
  ValueList get() {
    wait();
    std::scoped_lock lock(mu_);
    if (error_) {
      try {
        std::rethrow_exception(error_);
      } catch (const Error& e) {
        e.raise_copy();
      }
      // Non-Error exceptions (foreign types) propagate from the rethrow
      // unchanged.
    }
    return results_;
  }

  /// True iff completed with an error.
  bool failed() const {
    std::scoped_lock lock(mu_);
    return done_ && error_ != nullptr;
  }

  /// Threads parked in the untimed wait(). A lock-free hint: the kernel
  /// reads it to skip hand_to_waiter for a call nobody waits on, and tests
  /// poll it to park a caller before its body launches.
  std::size_t waiters() const {
    return parked_.load(std::memory_order_acquire);
  }

  /// Kernel-internal, before the call is published: wait() also counts its
  /// parked callers in `counter`, the object's count of parked callers
  /// (Object::parked_callers_), which must outlive every such wait.
  void count_parked_in(std::atomic<std::size_t>* counter) {
    parked_in_ = counter;
  }

  /// Kernel-internal (caller-runs dispatch, DESIGN.md §4.8): if a caller is
  /// parked in the untimed wait(), the call is not done and no body is
  /// already handed off, stores make_task() for exactly one such caller to
  /// run and wakes it; otherwise returns false without calling make_task.
  /// Decided once, under mu_, so a body goes to the caller or to the pool,
  /// never both, and a pending handoff is never overwritten unrun.
  template <class MakeTask>
  bool hand_to_waiter(MakeTask&& make_task) {
    {
      std::scoped_lock lock(mu_);
      if (done_ || handoff_ || parked_.load(std::memory_order_relaxed) == 0) {
        return false;
      }
      handoff_ = make_task();
    }
    // All waiters: a timed waiter shares cv_ and ignores the handoff.
    cv_.notify_all();
    return true;
  }

  /// Registers a completion callback invoked exactly once, on the completing
  /// thread (or immediately if already done). Used by the RPC layer to send
  /// the response frame without dedicating a thread per in-flight call.
  void on_complete(std::function<void(CallState&)> cb) {
    bool run_now = false;
    {
      std::scoped_lock lock(mu_);
      if (done_) {
        run_now = true;
      } else {
        on_complete_ = std::move(cb);
      }
    }
    if (run_now) cb(*this);
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  ValueList results_;
  std::exception_ptr error_;
  std::function<void(CallState&)> on_complete_;
  bool done_ = false;
  /// Untimed waiters (written under mu_) and the body handed to one of them
  /// (see wait()). After done_, so the members the completion path touches
  /// keep their offsets; 32 bits, so parked_in_ adds no size.
  mutable std::atomic<std::uint32_t> parked_{0};
  mutable std::function<void()> handoff_;
  std::atomic<std::size_t>* parked_in_ = nullptr;
};

/// The caller's side of an invocation (a lightweight shared future).
class CallHandle {
 public:
  CallHandle() = default;
  explicit CallHandle(std::shared_ptr<CallState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->ready(); }
  void wait() const { state_->wait(); }

  template <class Rep, class Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) const {
    return state_->wait_for(timeout);
  }

  /// Blocks for the results; rethrows the call's error if it failed.
  ValueList get() { return state_->get(); }

  /// Timed get: throws Error(kTimeout) if the call is still outstanding
  /// after `timeout` (and fails the call so later observers agree).
  template <class Rep, class Period>
  ValueList get_for(std::chrono::duration<Rep, Period> timeout) {
    return state_->get_for(timeout);
  }

  std::shared_ptr<CallState> state() const { return state_; }

 private:
  std::shared_ptr<CallState> state_;
};

/// Kernel-internal record of one invocation.
struct CallRecord {
  ValueList params;  // full caller-supplied parameter list
  std::shared_ptr<CallState> state;
  std::chrono::steady_clock::time_point arrived;
  std::uint64_t id = 0;  // per-object unique id (tracing)
  /// Carries a deadline or a cancel token: its body always takes the pool,
  /// so kTimeout/kCancelled reach a waiting caller at expiry, not after it.
  bool guarded = false;
};

}  // namespace alps
