// Supervision policies and watchdog configuration for objects.
//
// The paper makes the manager the sole owner of an object's synchronization
// and scheduling — which also makes it the object's single point of failure.
// This header defines what the kernel does when that single point fails
// (SupervisionPolicy) and how it notices when the manager has silently
// stopped making progress (WatchdogOptions). Both ride on ObjectOptions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

namespace alps {

/// What the kernel does when the manager thread exits with an error (an
/// uncaught exception from user manager code, or a watchdog abort).
enum class SupervisionMode : std::uint8_t {
  /// Record manager_error() and log; pending callers keep waiting and are
  /// failed with kObjectStopped at stop(). This is the pre-supervision
  /// behavior and the default.
  kFailFast = 0,
  /// Take the object down: every pending caller and every subsequent call
  /// fails immediately with a typed Error(kObjectDown) whose message carries
  /// the original manager failure. In-flight entry bodies run to completion
  /// but their results are discarded.
  kQuarantine = 1,
  /// Restart the manager with bounded exponential backoff. Accepted-but-not-
  /// started calls are re-queued for the new incarnation (replay_pending),
  /// started bodies are failed and abandoned (side effects cannot be
  /// replayed) unless multiactive, whose epilogue completes the caller
  /// without a manager, and attached/overflow calls simply wait for the new
  /// manager.
  /// When the restart budget is exhausted the object is quarantined.
  kRestart = 2,
};

inline const char* to_string(SupervisionMode m) {
  switch (m) {
    case SupervisionMode::kFailFast: return "fail-fast";
    case SupervisionMode::kQuarantine: return "quarantine";
    case SupervisionMode::kRestart: return "restart";
  }
  return "?";
}

struct SupervisionPolicy {
  SupervisionMode mode = SupervisionMode::kFailFast;

  /// kRestart: total restarts allowed over the object's lifetime; the
  /// (max_restarts+1)-th manager failure quarantines the object.
  int max_restarts = 3;
  /// kRestart: delay before the first restart; doubles (backoff_multiplier)
  /// per consecutive restart up to max_backoff.
  std::chrono::milliseconds initial_backoff{1};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds max_backoff{1000};

  /// kRestart: if true (default) calls the failed incarnation had accepted
  /// but not started are re-queued (re-attached) for the new manager; if
  /// false they are failed with kObjectDown like started ones.
  bool replay_pending = true;

  /// kRestart: invoked on the supervisor thread after the old manager has
  /// been joined and pending calls reconciled, before the new incarnation
  /// starts. Use it to reset shared object state the dead manager may have
  /// left inconsistent. Runs outside all kernel locks.
  std::function<void()> on_restart = nullptr;
};

/// Kernel watchdog: detects a manager that stops making progress while work
/// is pending (wedged in user code, stuck accept/await/select with eligible
/// work it never reaches, deadlocked on external state).
struct WatchdogOptions {
  bool enabled = false;
  /// A stall is declared when calls are pending and the manager's progress
  /// counter has not moved for at least this long.
  std::chrono::milliseconds stall_threshold{1000};
  /// How often the supervisor samples the progress counter; <=0 derives
  /// stall_threshold/4 (min 1ms).
  std::chrono::milliseconds poll_interval{0};
  /// If true, a detected stall aborts the manager (it observes a typed
  /// Error(kTimeout) at its next kernel primitive) and the supervision
  /// policy takes over: restart or quarantine. Under kFailFast escalation
  /// still quarantines — an escalation that changed nothing would be a
  /// silent no-op. If false the watchdog only reports (Tracer::on_stall +
  /// error log), once per stall episode.
  bool escalate = false;
};

}  // namespace alps
