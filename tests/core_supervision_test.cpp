// Supervision & failure containment: per-call deadlines and cancellation at
// every lifecycle stage, entry-body failures surfacing to the manager,
// supervision policies (fail-fast / quarantine / restart-with-backoff), the
// kernel watchdog, and the typed-timeout / idempotent-stop satellites.
//
// The fault-matrix invariant under test throughout: every caller observes
// exactly ONE typed completion (results, kTimeout, kCancelled, kObjectDown,
// or kObjectStopped) for every fault class — never a hang, never two
// outcomes, never an untyped error.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/alps.h"

namespace alps {
namespace {

using namespace std::chrono_literals;

/// Two-phase latch for cross-thread test choreography with a timeout so a
/// deadlock fails the test instead of hanging ctest.
class Gate {
 public:
  void open() {
    {
      std::scoped_lock lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  bool wait(std::chrono::milliseconds timeout = 5000ms) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Waits (bounded) for `pred` to become true.
template <class Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// Extracts the ErrorCode a handle fails with (nullopt = completed OK).
std::optional<ErrorCode> outcome_of(CallHandle h) {
  try {
    h.get();
    return std::nullopt;
  } catch (const Error& e) {
    return e.code();
  }
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation across the call lifecycle
// ---------------------------------------------------------------------------

TEST(CallDeadline, ExpiresWhilePendingAndUnqueues) {
  Object obj("Slow");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 1});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {Value(1)}; });
  Gate release;
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    release.wait();  // accept nothing until the test says so
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  CallHandle h = obj.async_call(work, {}, CallOptions{.deadline = 40ms});
  EXPECT_EQ(outcome_of(h), ErrorCode::kTimeout);
  // The expired call must be unqueued, not left for the manager.
  EXPECT_TRUE(eventually([&] { return obj.pending(work) == 0; }));

  // The object still serves live callers afterwards.
  release.open();
  EXPECT_EQ(obj.call(work, {})[0].as_int(), 1);
  obj.stop();
}

TEST(CallDeadline, CompletionBeatsDeadline) {
  Object obj("Fast");
  EntryRef work = obj.define_entry({.name = "Work", .params = 1, .results = 1});
  obj.implement(work, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(work));
  });
  obj.start();
  EXPECT_EQ(obj.call(work, {Value(7)}, CallOptions{.deadline = 5000ms})[0]
                .as_int(),
            7);
  obj.stop();
}

TEST(CallCancel, PendingCallCancelled) {
  Object obj("Slow");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  Gate release;
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    release.wait();
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  auto token = std::make_shared<CancelToken>();
  CallHandle h = obj.async_call(work, {}, CallOptions{.cancel = token});
  token->request_cancel();
  EXPECT_EQ(outcome_of(h), ErrorCode::kCancelled);
  EXPECT_TRUE(eventually([&] { return obj.pending(work) == 0; }));
  release.open();
  obj.stop();
}

TEST(CallCancel, AlreadyCancelledTokenFailsImmediately) {
  Object obj("Slow");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  auto token = std::make_shared<CancelToken>();
  token->request_cancel();
  CallHandle h = obj.async_call(work, {}, CallOptions{.cancel = token});
  EXPECT_EQ(outcome_of(h), ErrorCode::kCancelled);
  obj.stop();
}

TEST(CallCancel, AcceptedCallAbandonedBodyNeverRuns) {
  Object obj("Admit");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  std::atomic<int> body_runs{0};
  obj.implement(work, [&](BodyCtx&) -> ValueList {
    ++body_runs;
    return {};
  });
  Gate accepted, cancelled;
  std::atomic<bool> saw_abandoned{false};
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    Accepted a = m.accept(work);
    accepted.open();
    cancelled.wait();
    m.start(a);  // abandoned fast-path: body is skipped
    Awaited w = m.await(a);
    saw_abandoned = w.abandoned;
    m.finish(w);  // completion already delivered; this must be a no-op
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  auto token = std::make_shared<CancelToken>();
  CallHandle h = obj.async_call(work, {}, CallOptions{.cancel = token});
  ASSERT_TRUE(accepted.wait());
  token->request_cancel();
  EXPECT_EQ(outcome_of(h), ErrorCode::kCancelled);
  cancelled.open();

  // The protocol still ran to finish and the object is healthy.
  EXPECT_TRUE(eventually([&] { return saw_abandoned.load(); }));
  EXPECT_EQ(body_runs.load(), 0);
  obj.call(work, {});
  EXPECT_EQ(body_runs.load(), 1);
  obj.stop();
}

TEST(CallDeadline, RunningBodyResultDiscardedAtFinish) {
  Object obj("Busy");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 1});
  Gate body_block;
  obj.implement(work, [&](BodyCtx&) -> ValueList {
    body_block.wait();
    return {Value(42)};
  });
  std::atomic<bool> saw_abandoned{false};
  Gate finished_first;
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    Accepted a = m.accept(work);
    m.start(a);
    Awaited w = m.await(a);  // blocks until the body completes
    saw_abandoned = w.abandoned;
    m.finish(w);
    finished_first.open();
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  CallHandle h = obj.async_call(work, {}, CallOptions{.deadline = 40ms});
  EXPECT_EQ(outcome_of(h), ErrorCode::kTimeout);  // expires while running
  body_block.open();
  ASSERT_TRUE(finished_first.wait());
  EXPECT_TRUE(saw_abandoned.load());

  // A fresh caller is served normally by the same manager loop.
  EXPECT_EQ(obj.call(work, {})[0].as_int(), 42);
  obj.stop();
}

TEST(CallDeadline, RunningExecutedBodyResultDiscardedAtFinish) {
  // As above, through execute: the body runs inline on the manager thread,
  // and the deadline still fails the caller while it runs.
  Object obj("BusyInline");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 1});
  Gate body_block;
  std::atomic<bool> ran_on_manager{false};
  std::atomic<std::thread::id> manager_id{};
  obj.implement(work, [&](BodyCtx&) -> ValueList {
    ran_on_manager = std::this_thread::get_id() == manager_id;
    body_block.wait();
    return {Value(42)};
  });
  std::atomic<bool> saw_abandoned{false};
  Gate finished_first;
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    manager_id = std::this_thread::get_id();
    Awaited w = m.execute(m.accept(work));  // returns after finish
    saw_abandoned = w.abandoned;
    finished_first.open();
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  CallHandle h = obj.async_call(work, {}, CallOptions{.deadline = 40ms});
  EXPECT_EQ(outcome_of(h), ErrorCode::kTimeout);  // expires while running
  body_block.open();
  ASSERT_TRUE(finished_first.wait());
  EXPECT_TRUE(saw_abandoned.load());
  EXPECT_TRUE(ran_on_manager.load());

  EXPECT_EQ(obj.call(work, {})[0].as_int(), 42);
  const EntryStats st = obj.stats().entries[0];
  EXPECT_EQ(st.starts, 2u);
  EXPECT_EQ(st.finishes, 2u);
  obj.stop();
}

TEST(CallDeadline, RacingDeadlinesObserveExactlyOneOutcome) {
  Object obj("Race");
  EntryRef work = obj.define_entry({.name = "Work", .params = 1, .results = 1});
  obj.implement(work, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  constexpr int kCalls = 200;
  std::vector<CallHandle> handles;
  handles.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    // Deadlines race completions: some expire, some don't — but every
    // caller must see exactly one typed outcome.
    handles.push_back(obj.async_call(
        work, {Value(i)}, CallOptions{.deadline = 1ms * (1 + i % 4)}));
  }
  int completed = 0, timed_out = 0;
  for (int i = 0; i < kCalls; ++i) {
    auto out = outcome_of(handles[i]);
    if (!out) {
      ++completed;
    } else {
      EXPECT_EQ(*out, ErrorCode::kTimeout) << "call " << i;
      ++timed_out;
    }
  }
  EXPECT_EQ(completed + timed_out, kCalls);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Typed timeout satellite: get_for
// ---------------------------------------------------------------------------

TEST(TypedTimeout, GetForFailsCallWithTimeout) {
  Object obj("Never");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  EntryRef nope = obj.define_entry({.name = "Nope", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.implement(nope, [](BodyCtx&) -> ValueList { return {}; });
  // The manager only ever accepts Nope, so a Work call waits forever.
  obj.set_manager({intercept(work), intercept(nope)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(nope));
  });
  obj.start();

  CallHandle h = obj.async_call(work, {});
  try {
    h.get_for(30ms);
    FAIL() << "expected kTimeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
  // The timeout is a recorded completion: later observers agree.
  EXPECT_EQ(outcome_of(h), ErrorCode::kTimeout);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Entry-body failures surface to the manager, then to the caller
// ---------------------------------------------------------------------------

TEST(BodyFailure, SurfacesToManagerAtAwaitThenCaller) {
  Object obj("Thrower");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 1});
  obj.implement(work, [](BodyCtx&) -> ValueList {
    throw std::runtime_error("body boom");
  });
  std::atomic<bool> mgr_saw_failed{false}, mgr_saw_error{false};
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) {
      Accepted a = m.accept(work);
      m.start(a);
      Awaited w = m.await(a);
      mgr_saw_failed = w.failed;
      mgr_saw_error = (w.error != nullptr);
      m.finish(w);
    }
  });
  obj.start();

  try {
    obj.call(work, {});
    FAIL() << "expected the body error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("body boom"), std::string::npos);
  }
  EXPECT_TRUE(mgr_saw_failed.load());
  EXPECT_TRUE(mgr_saw_error.load());
  obj.stop();
}

TEST(BodyFailure, ExecutedBodyFailureSurfacesInAwaitedThenCaller) {
  // An alps::Error, so each caller rethrows its own copy: a foreign
  // exception object would be shared with the manager's Awaited, whose
  // release libstdc++ refcounts out of ThreadSanitizer's sight.
  Object obj("InlineThrower");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 1});
  obj.implement(work, [](BodyCtx&) -> ValueList {
    raise(ErrorCode::kBodyFailed, "inline boom");
  });
  std::atomic<int> mgr_saw_failed{0}, mgr_saw_error{0};
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) {
      // execute returns after finish has completed the caller.
      Awaited w = m.execute(m.accept(work));
      if (w.failed) ++mgr_saw_failed;
      if (w.error != nullptr) ++mgr_saw_error;
    }
  });
  obj.start();

  try {
    obj.call(work, {});
    FAIL() << "expected the body error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBodyFailed);
    EXPECT_NE(std::string(e.what()).find("inline boom"), std::string::npos);
  }
  // The manager survives its body's exception and serves the next call.
  EXPECT_EQ(outcome_of(obj.async_call(work, {})), ErrorCode::kBodyFailed);
  EXPECT_TRUE(eventually([&] {
    return mgr_saw_failed.load() == 2 && mgr_saw_error.load() == 2;
  }));
  EXPECT_EQ(obj.manager_error(), nullptr);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Supervision policies
// ---------------------------------------------------------------------------

TEST(Supervision, FailFastStoresManagerErrorAndStaysUp) {
  Object obj("Crashy");  // default policy: kFailFast
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    m.accept(work);
    throw std::runtime_error("manager crashed");
  });
  obj.start();

  CallHandle h = obj.async_call(work, {});
  EXPECT_TRUE(eventually([&] { return obj.manager_error() != nullptr; }));
  EXPECT_FALSE(obj.quarantined());
  try {
    std::rethrow_exception(obj.manager_error());
    FAIL();
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("manager crashed"),
              std::string::npos);
  }
  // Fail-fast keeps today's behavior: the accepted caller is not failed by
  // the kernel — a deadline is what bounds it.
  CallHandle h2 = obj.async_call(work, {}, CallOptions{.deadline = 40ms});
  EXPECT_EQ(outcome_of(h2), ErrorCode::kTimeout);
  obj.stop();
  // stop() fails the stranded caller with kObjectStopped.
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectStopped);
}

TEST(Supervision, QuarantineFailsPendingAndNewCalls) {
  Object obj("Quarantined",
             ObjectOptions{.supervision = {.mode = SupervisionMode::kQuarantine}});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  EntryRef boom = obj.define_entry({.name = "Boom", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.implement(boom, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work), intercept(boom)}, [&](Manager& m) {
    m.accept(boom);
    throw std::runtime_error("manager crashed");
  });
  obj.start();

  CallHandle pending = obj.async_call(work, {});
  CallHandle trigger = obj.async_call(boom, {});
  EXPECT_EQ(outcome_of(pending), ErrorCode::kObjectDown);
  EXPECT_EQ(outcome_of(trigger), ErrorCode::kObjectDown);
  EXPECT_TRUE(obj.quarantined());
  EXPECT_NE(obj.manager_error(), nullptr);

  // New calls are refused at the door with the same typed cause.
  CallHandle late = obj.async_call(work, {});
  EXPECT_EQ(outcome_of(late), ErrorCode::kObjectDown);
  obj.stop();
}

TEST(Supervision, RestartReplaysAcceptedCallAndServesNewOnes) {
  std::atomic<int> hook_runs{0};
  Object obj("Phoenix",
             ObjectOptions{.supervision = {
                               .mode = SupervisionMode::kRestart,
                               .max_restarts = 3,
                               .initial_backoff = 1ms,
                               .on_restart = [&] { ++hook_runs; },
                           }});
  EntryRef work = obj.define_entry({.name = "Work", .params = 1, .results = 1});
  obj.implement(work, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  std::atomic<bool> crashed{false};
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) {
      Accepted a = m.accept(work);
      if (!crashed.exchange(true)) {
        throw std::runtime_error("first-incarnation crash");
      }
      m.execute(a);
    }
  });
  obj.start();

  // The call that triggers the crash was ACCEPTED (body unstarted), so the
  // restart replays it: the caller sees its normal result, not an error.
  EXPECT_EQ(obj.call(work, {Value(5)})[0].as_int(), 5);
  EXPECT_EQ(obj.restarts(), 1);
  EXPECT_EQ(hook_runs.load(), 1);
  EXPECT_FALSE(obj.quarantined());
  EXPECT_NE(obj.manager_error(), nullptr);  // last incarnation's failure

  EXPECT_EQ(obj.call(work, {Value(6)})[0].as_int(), 6);
  obj.stop();
}

TEST(Supervision, RestartWithoutReplayFailsInFlightCalls) {
  Object obj("NoReplay",
             ObjectOptions{.supervision = {
                               .mode = SupervisionMode::kRestart,
                               .max_restarts = 3,
                               .initial_backoff = 1ms,
                               .replay_pending = false,
                           }});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  std::atomic<bool> crashed{false};
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) {
      Accepted a = m.accept(work);
      if (!crashed.exchange(true)) {
        throw std::runtime_error("crash");
      }
      m.execute(a);
    }
  });
  obj.start();

  CallHandle h = obj.async_call(work, {});
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectDown);
  EXPECT_TRUE(eventually([&] { return obj.restarts() == 1; }));
  // The restarted incarnation serves fresh calls.
  obj.call(work, {});
  obj.stop();
}

TEST(Supervision, RestartBudgetExhaustionQuarantines) {
  Object obj("Doomed",
             ObjectOptions{.supervision = {
                               .mode = SupervisionMode::kRestart,
                               .max_restarts = 2,
                               .initial_backoff = 1ms,
                           }});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work)}, [&](Manager&) {
    throw std::runtime_error("always crashes");
  });
  obj.start();

  EXPECT_TRUE(eventually([&] { return obj.quarantined(); }));
  EXPECT_EQ(obj.restarts(), 2);
  CallHandle h = obj.async_call(work, {});
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectDown);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Captures every stall report.
class StallCatcher : public Tracer {
 public:
  void on_event(const TraceEvent&) override {}
  void on_stall(const StallReport& report) override {
    std::scoped_lock lock(mu_);
    reports_.push_back(report);
  }
  /// The first report, if any.
  std::optional<StallReport> report() const {
    std::scoped_lock lock(mu_);
    if (reports_.empty()) return std::nullopt;
    return reports_.front();
  }
  bool any_activity(const std::string& activity) const {
    std::scoped_lock lock(mu_);
    for (const auto& r : reports_) {
      if (activity == r.manager_activity) return true;
    }
    return false;
  }

 private:
  mutable std::mutex mu_;
  std::vector<StallReport> reports_;
};

TEST(Watchdog, ReportsStalledManagerWithGuardSnapshot) {
  StallCatcher catcher;
  Object obj("Stalled", ObjectOptions{.watchdog = {.enabled = true,
                                                   .stall_threshold = 50ms}});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_tracer(&catcher);
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    // A manager that will never admit the pending call: a permanently
    // false acceptance condition — a bug the watchdog should name.
    Select()
        .on(accept_guard(work)
                .when([](const ValueList&) { return false; })
                .then([&](Accepted a) { m.execute(a); }))
        .loop(m);
  });
  obj.start();

  CallHandle h = obj.async_call(work, {});
  ASSERT_TRUE(eventually([&] { return catcher.report().has_value(); }));
  const StallReport report = *catcher.report();
  EXPECT_EQ(report.object, "Stalled");
  EXPECT_STREQ(report.manager_activity, "select-wait");
  EXPECT_GE(report.stalled_for, 50ms);
  EXPECT_FALSE(report.escalated);
  ASSERT_FALSE(report.entries.empty());
  bool found = false;
  for (const auto& row : report.entries) {
    if (row.name == "Work") {
      found = true;
      EXPECT_GE(row.pending, 1u);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_FALSE(report.guards.empty());
  EXPECT_NE(report.guards[0].find("accept Work"), std::string::npos);
  EXPECT_NE(report.summary().find("Stalled"), std::string::npos);

  obj.stop();
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectStopped);
}

TEST(Watchdog, LongInlineBodyReportsAwaitWait) {
  StallCatcher catcher;
  Object obj("SlowBody", ObjectOptions{.watchdog = {.enabled = true,
                                                    .stall_threshold = 50ms}});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  Gate release;
  obj.implement(work, [&](BodyCtx&) -> ValueList {
    release.wait();
    return {};
  });
  obj.set_tracer(&catcher);
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  CallHandle first = obj.async_call(work, {});
  CallHandle second = obj.async_call(work, {});
  // The manager thread is inside the body, standing in for await. (A
  // manager descheduled for a whole threshold before its accept could make
  // an earlier report read accept-wait, hence "any".)
  EXPECT_TRUE(eventually([&] { return catcher.any_activity("await-wait"); }));
  ASSERT_TRUE(catcher.report().has_value());
  EXPECT_FALSE(catcher.report()->escalated);
  release.open();
  EXPECT_EQ(outcome_of(first), std::nullopt);
  EXPECT_EQ(outcome_of(second), std::nullopt);
  obj.stop();
}

TEST(Watchdog, EscalationAbortsStalledManagerAndQuarantines) {
  StallCatcher catcher;
  Object obj("Aborted",
             ObjectOptions{
                 .supervision = {.mode = SupervisionMode::kQuarantine},
                 .watchdog = {.enabled = true,
                              .stall_threshold = 50ms,
                              .escalate = true}});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  EntryRef never =
      obj.define_entry({.name = "Never", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.implement(never, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_tracer(&catcher);
  obj.set_manager({intercept(work), intercept(never)}, [&](Manager& m) {
    m.accept(never);  // wrong entry: Work backs up while we block here
  });
  obj.start();

  CallHandle h = obj.async_call(work, {});
  // The watchdog aborts the stalled manager; quarantine then fails the
  // pending caller with the object-level cause.
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectDown);
  EXPECT_TRUE(obj.quarantined());
  ASSERT_TRUE(catcher.report().has_value());
  EXPECT_TRUE(catcher.report()->escalated);
  EXPECT_STREQ(catcher.report()->manager_activity, "accept-wait");
  EXPECT_NE(obj.manager_error(), nullptr);
  obj.stop();
}

// ---------------------------------------------------------------------------
// A body blocked on a call only its own manager could serve, launched by
// execute or by start of an ImplDecl::inline_start entry. Inline, the
// manager thread is the one stuck in the body; stop() and watchdog
// escalation must still give the outcomes a pooled body gets. Each probe
// runs both ways: a 1-byte parameter runs the body inline, a
// kZeroCopySliceThreshold-byte one sends it to the pool (the reference).
// ---------------------------------------------------------------------------

// Bit-fields keep the case two bytes, the size gtest prints in the names
// of the InlineExecute cases.
struct BlockedSiblingCase {
  SupervisionMode mode;
  bool run_inline : 1;
  /// start + await_guard/finish on inline_start entries, not execute.
  bool via_start : 1 = false;
};
static_assert(sizeof(BlockedSiblingCase) == 2);

std::string case_name(
    const ::testing::TestParamInfo<BlockedSiblingCase>& info) {
  std::string name = to_string(info.param.mode);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name + (info.param.run_inline ? "Inline" : "Pooled");
}

/// Object whose Outer body calls its sibling Inner and waits for it. The
/// first manager incarnation accepts Outer and Ping but never Inner, so
/// Inner waits until stop or escalation; a restarted incarnation serves
/// Inner too, answering the failed incarnation's still-running body.
class BlockedSibling {
 public:
  explicit BlockedSibling(const BlockedSiblingCase& c, bool escalate)
      : payload_(c.run_inline ? 1 : kZeroCopySliceThreshold, 'p'),
        obj_("Blocked",
             ObjectOptions{
                 .supervision = {.mode = c.mode,
                                 .max_restarts = 1,
                                 .initial_backoff = 1ms},
                 .watchdog = {.enabled = escalate,
                              .stall_threshold = 40ms,
                              .escalate = escalate}}) {
    outer_ = obj_.define_entry({.name = "Outer", .params = 1, .results = 0});
    inner_ = obj_.define_entry({.name = "Inner", .params = 0, .results = 0});
    ping_ = obj_.define_entry({.name = "Ping", .params = 0, .results = 0});
    const ImplDecl impl{.inline_start = c.via_start};
    obj_.implement(outer_, impl, [this](BodyCtx& ctx) -> ValueList {
      on_manager_ = std::this_thread::get_id() == manager_id_.load();
      entered_.open();
      inner_outcome_ = outcome_of(ctx.call_sibling(inner_, {}));
      body_done_.open();
      return {};
    });
    obj_.implement(inner_, impl, [](BodyCtx&) -> ValueList { return {}; });
    obj_.implement(ping_, impl, [](BodyCtx&) -> ValueList { return {}; });
    obj_.set_manager(
        {intercept(outer_), intercept(inner_), intercept(ping_)},
        [this, via_start = c.via_start](Manager& m) {
          const bool first = incarnations_.fetch_add(1) == 0;
          if (first) manager_id_ = std::this_thread::get_id();
          auto run = [&m, via_start](Accepted a) {
            if (via_start) {
              m.start(a);
            } else {
              m.execute(a);
            }
          };
          auto finish = [&m](Awaited w) { m.finish(w); };
          Select sel;
          sel.on(accept_guard(outer_).then(run))
              .on(accept_guard(ping_).then(run));
          if (!first) sel.on(accept_guard(inner_).then(run));
          if (via_start) {
            sel.on(await_guard(outer_).then(finish))
                .on(await_guard(ping_).then(finish))
                .on(await_guard(inner_).then(finish));
          }
          sel.loop(m);
        });
    obj_.start();
  }

  CallHandle call_outer() {
    return obj_.async_call(outer_, {Value(payload_)});
  }

  std::string payload_;
  EntryRef outer_, inner_, ping_;
  std::atomic<int> incarnations_{0};
  std::atomic<std::thread::id> manager_id_{};
  std::atomic<bool> on_manager_{false};
  Gate entered_, body_done_;
  std::optional<ErrorCode> inner_outcome_;  // read after body_done_
  Object obj_;  // last: stopped before the state its threads use goes away
};

class BlockedSiblingTest
    : public ::testing::TestWithParam<BlockedSiblingCase> {};

TEST_P(BlockedSiblingTest, StopReturnsAndFailsBothCalls) {
  BlockedSibling b(GetParam(), /*escalate=*/false);
  CallHandle outer = b.call_outer();
  ASSERT_TRUE(b.entered_.wait());
  EXPECT_EQ(b.on_manager_.load(), GetParam().run_inline);
  EXPECT_TRUE(eventually([&] { return b.obj_.pending(b.inner_) == 1; }));

  const auto t0 = std::chrono::steady_clock::now();
  b.obj_.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  EXPECT_EQ(outcome_of(outer), ErrorCode::kObjectStopped);
  ASSERT_TRUE(b.body_done_.wait());
  EXPECT_EQ(b.inner_outcome_, ErrorCode::kObjectStopped);
  EXPECT_FALSE(b.obj_.quarantined());
  EXPECT_EQ(b.obj_.manager_error(), nullptr);
}

TEST_P(BlockedSiblingTest, EscalationAppliesPolicyAndStopReturns) {
  const BlockedSiblingCase c = GetParam();
  BlockedSibling b(c, /*escalate=*/true);
  CallHandle outer = b.call_outer();
  ASSERT_TRUE(b.entered_.wait());
  EXPECT_EQ(b.on_manager_.load(), c.run_inline);

  // Every policy fails the started Outer call with kObjectDown. Fail-fast
  // and quarantine take the object down, failing Inner too; restart's new
  // incarnation serves Inner, so the old body completes (its result is
  // discarded) while the new manager runs.
  EXPECT_EQ(outcome_of(outer), ErrorCode::kObjectDown);
  ASSERT_TRUE(b.body_done_.wait());
  if (c.mode == SupervisionMode::kRestart) {
    EXPECT_EQ(b.inner_outcome_, std::nullopt);
  } else {
    EXPECT_EQ(b.inner_outcome_, ErrorCode::kObjectDown);
  }
  ASSERT_NE(b.obj_.manager_error(), nullptr);
  try {
    std::rethrow_exception(b.obj_.manager_error());
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
  if (c.mode == SupervisionMode::kRestart) {
    EXPECT_TRUE(eventually([&] { return b.obj_.restarts() == 1; }));
    EXPECT_FALSE(b.obj_.quarantined());
    EXPECT_EQ(outcome_of(b.obj_.async_call(b.ping_, {})), std::nullopt);
  } else {
    EXPECT_TRUE(b.obj_.quarantined());
    EXPECT_EQ(b.obj_.restarts(), 0);
    EXPECT_EQ(outcome_of(b.obj_.async_call(b.ping_, {})),
              ErrorCode::kObjectDown);
  }

  const auto t0 = std::chrono::steady_clock::now();
  b.obj_.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

INSTANTIATE_TEST_SUITE_P(
    InlineExecute, BlockedSiblingTest,
    ::testing::Values(
        BlockedSiblingCase{SupervisionMode::kFailFast, true},
        BlockedSiblingCase{SupervisionMode::kFailFast, false},
        BlockedSiblingCase{SupervisionMode::kQuarantine, true},
        BlockedSiblingCase{SupervisionMode::kQuarantine, false},
        BlockedSiblingCase{SupervisionMode::kRestart, true},
        BlockedSiblingCase{SupervisionMode::kRestart, false}),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    InlineStart, BlockedSiblingTest,
    ::testing::Values(
        BlockedSiblingCase{SupervisionMode::kFailFast, true, true},
        BlockedSiblingCase{SupervisionMode::kFailFast, false, true},
        BlockedSiblingCase{SupervisionMode::kQuarantine, true, true},
        BlockedSiblingCase{SupervisionMode::kQuarantine, false, true},
        BlockedSiblingCase{SupervisionMode::kRestart, true, true},
        BlockedSiblingCase{SupervisionMode::kRestart, false, true}),
    case_name);

// ---------------------------------------------------------------------------
// The teardown table (DESIGN.md §4.6): what stop, quarantine and a restart
// with or without replay do to a call in each lifecycle state. Each case
// holds one Target call in its state with latches on the manager and the
// body, applies the event, then checks the caller's single outcome, the
// object's supervision counters, the trace reconciliation and whether the
// object still serves calls.
// ---------------------------------------------------------------------------

enum class HeldIn : std::uint8_t {
  kOverflow,  ///< waiting for a slot (a first call holds it, Attached)
  kAttached,
  kAccepted,
  kDeferred,  ///< parked behind a running multiactive Holder call
  kRunningSerial,
  kRunningMultiactive,
  kReady,
  kAwaited,
};

enum class Teardown : std::uint8_t {
  kStop,
  kQuarantine,
  kRestartReplay,
  kRestartNoReplay,
};

struct TeardownCase {
  HeldIn state;
  Teardown event;
};

/// The table's cell for a held call: its caller's outcome (nullopt =
/// served normally, by a replay or by its own epilogue).
std::optional<ErrorCode> table_outcome(HeldIn state, Teardown event) {
  switch (event) {
    case Teardown::kStop:
      return ErrorCode::kObjectStopped;
    case Teardown::kQuarantine:
      return ErrorCode::kObjectDown;
    case Teardown::kRestartReplay:
      // Calls whose body never ran are replayed; started serial bodies
      // cannot be, and a multiactive body completes its caller itself.
      if (state == HeldIn::kRunningSerial || state == HeldIn::kReady ||
          state == HeldIn::kAwaited) {
        return ErrorCode::kObjectDown;
      }
      return std::nullopt;
    case Teardown::kRestartNoReplay:
      if (state == HeldIn::kRunningMultiactive) return std::nullopt;
      return ErrorCode::kObjectDown;
  }
  return std::nullopt;
}

std::string teardown_case_name(
    const ::testing::TestParamInfo<TeardownCase>& info) {
  static const char* const kStates[] = {
      "Overflow", "Attached",           "Accepted", "Deferred",
      "RunningSerial", "RunningMultiactive", "Ready", "Awaited"};
  static const char* const kEvents[] = {"Stop", "Quarantine", "RestartReplay",
                                        "RestartNoReplay"};
  return std::string(kStates[static_cast<int>(info.param.state)]) + "_" +
         kEvents[static_cast<int>(info.param.event)];
}

/// Forwards to a TraceCollector and counts events per (entry, phase), so a
/// test can wait for a call to reach a state the kernel does not expose.
class PhaseCounter : public Tracer {
 public:
  void on_event(const TraceEvent& ev) override {
    collector.on_event(ev);
    std::scoped_lock lock(mu_);
    ++counts_[ev.entry + "/" + to_string(ev.phase)];
  }
  int count(const std::string& entry, CallPhase phase) const {
    std::scoped_lock lock(mu_);
    auto it = counts_.find(entry + "/" + to_string(phase));
    return it == counts_.end() ? 0 : it->second;
  }

  TraceCollector collector;

 private:
  mutable std::mutex mu_;
  std::map<std::string, int> counts_;
};

/// Target (one slot) and Holder are serial-group entries, so a Target call
/// started through start_compatible while Holder runs is deferred. Both
/// bodies block on `release_`. The first manager incarnation stages the
/// case, then only accepts Boom, whose handler throws; later incarnations
/// serve every entry.
class TeardownRig {
 public:
  explicit TeardownRig(const TeardownCase& c)
      : c_(c),
        obj_("Teardown",
             ObjectOptions{.supervision = {
                               .mode = c.event == Teardown::kStop
                                           ? SupervisionMode::kFailFast
                                       : c.event == Teardown::kQuarantine
                                           ? SupervisionMode::kQuarantine
                                           : SupervisionMode::kRestart,
                               .max_restarts = 1,
                               .initial_backoff = 1ms,
                               .replay_pending =
                                   c.event != Teardown::kRestartNoReplay,
                           }}) {
    target_ = obj_.define_entry(
        EntryDecl{.name = "Target", .params = 1, .results = 1}.serial_group());
    holder_ = obj_.define_entry(
        EntryDecl{.name = "Holder", .params = 0, .results = 0}.serial_group());
    boom_ = obj_.define_entry({.name = "Boom", .params = 0, .results = 0});
    obj_.implement(target_, [this](BodyCtx& ctx) -> ValueList {
      ++entered_;
      release_.wait();
      return {ctx.param(0)};
    });
    obj_.implement(holder_, [this](BodyCtx&) -> ValueList {
      ++entered_;
      release_.wait();
      return {};
    });
    obj_.implement(boom_, [](BodyCtx&) -> ValueList { return {}; });
    obj_.set_tracer(&phases_);
    obj_.set_manager(
        {intercept(target_), intercept(holder_), intercept(boom_)},
        [this](Manager& m) {
          if (incarnations_.fetch_add(1) == 0) {
            stage(m);
            staged_.open();
            Select()
                .on(accept_guard(boom_).then([](Accepted) {
                  throw std::runtime_error("manager crash");
                }))
                .loop(m);
          } else {
            auto run = [&m](Accepted a) { m.start_compatible(a); };
            Select()
                .on(accept_guard(target_).then(run))
                .on(accept_guard(holder_).then(run))
                .on(accept_guard(boom_).then(
                    [&m](Accepted a) { m.execute(a); }))
                .loop(m);
          }
        });
    // Ready and Awaited need the body to return while the case is staged.
    if (c.state == HeldIn::kReady || c.state == HeldIn::kAwaited) {
      release_.open();
    }
    obj_.start();
  }

  void stage(Manager& m) {
    switch (c_.state) {
      case HeldIn::kOverflow:
      case HeldIn::kAttached:
        return;
      case HeldIn::kAccepted:
        m.accept(target_);
        return;
      case HeldIn::kDeferred:
        m.start_compatible(m.accept(holder_));
        m.start_compatible(m.accept(target_));
        return;
      case HeldIn::kRunningSerial:
      case HeldIn::kReady:
        m.start(m.accept(target_));
        return;
      case HeldIn::kRunningMultiactive:
        m.start_compatible(m.accept(target_));
        return;
      case HeldIn::kAwaited: {
        Accepted a = m.accept(target_);
        m.start(a);
        m.await(a);
        return;
      }
    }
  }

  /// True once the held Target call(s) sit in the case's state.
  bool staged(std::size_t held) {
    switch (c_.state) {
      case HeldIn::kOverflow:
      case HeldIn::kAttached:
        (void)obj_.stats();  // drains the intake: calls are attached/queued
        return phases_.count("Target", CallPhase::kAttached) == 1 &&
               obj_.pending(target_) == held;
      case HeldIn::kRunningSerial:
      case HeldIn::kRunningMultiactive:
        return entered_.load() == 1;
      case HeldIn::kReady:
        return phases_.count("Target", CallPhase::kReady) == 1;
      case HeldIn::kAccepted:
      case HeldIn::kDeferred:
      case HeldIn::kAwaited:
        return true;  // the manager staged it synchronously
    }
    return false;
  }

  TeardownCase c_;
  EntryRef target_, holder_, boom_;
  PhaseCounter phases_;
  std::atomic<int> incarnations_{0};
  std::atomic<int> entered_{0};
  Gate staged_, release_;
  Object obj_;  // last: stopped before the state its threads use goes away
};

class TeardownTableTest : public ::testing::TestWithParam<TeardownCase> {};

TEST_P(TeardownTableTest, HeldCallMeetsItsCell) {
  const TeardownCase c = GetParam();
  TeardownRig rig(c);
  std::optional<CallHandle> holder;
  if (c.state == HeldIn::kDeferred) {
    holder = rig.obj_.async_call(rig.holder_, {});
  }
  std::vector<CallHandle> held;
  if (c.state == HeldIn::kOverflow) {
    held.push_back(rig.obj_.async_call(rig.target_, {Value(1)}));
  }
  held.push_back(rig.obj_.async_call(rig.target_, {Value(2)}));
  ASSERT_TRUE(rig.staged_.wait());
  ASSERT_TRUE(eventually([&] { return rig.staged(held.size()); }));

  // Apply the event. A stop returns only once the held bodies drain, so it
  // runs aside while the outcomes are read; a crash has been applied once
  // the Boom call resolves (failed, or replayed by the next incarnation).
  const std::optional<ErrorCode> want = table_outcome(c.state, c.event);
  std::vector<std::optional<ErrorCode>> got;
  std::optional<ErrorCode> holder_got;
  if (c.event == Teardown::kStop) {
    std::thread stopper([&] { rig.obj_.stop(); });
    for (auto& h : held) got.push_back(outcome_of(h));
    if (holder) holder_got = outcome_of(*holder);
    rig.release_.open();
    stopper.join();
  } else {
    (void)outcome_of(rig.obj_.async_call(rig.boom_, {}));
    rig.release_.open();
    for (auto& h : held) got.push_back(outcome_of(h));
    if (holder) holder_got = outcome_of(*holder);
  }
  for (const auto& g : got) EXPECT_EQ(g, want);
  if (holder) {
    EXPECT_EQ(holder_got,
              table_outcome(HeldIn::kRunningMultiactive, c.event));
  }

  const bool restart = c.event == Teardown::kRestartReplay ||
                       c.event == Teardown::kRestartNoReplay;
  EXPECT_EQ(rig.obj_.quarantined(), c.event == Teardown::kQuarantine);
  EXPECT_EQ(rig.obj_.restarts(), restart ? 1 : 0);
  if (restart) {
    EXPECT_EQ(rig.obj_.call(rig.target_, {Value(3)})[0].as_int(), 3);
  } else {
    EXPECT_EQ(outcome_of(rig.obj_.async_call(rig.target_, {Value(3)})),
              c.event == Teardown::kStop ? ErrorCode::kObjectStopped
                                         : ErrorCode::kObjectDown);
  }

  // Every call reached exactly one terminal trace event.
  for (const char* entry : {"Target", "Holder", "Boom"}) {
    const TraceCollector::EntryReport r = rig.phases_.collector.report(entry);
    EXPECT_EQ(r.arrived + r.unmatched, r.finished + r.failed + r.combined +
                                           r.still_pending + r.abandoned)
        << entry;
    EXPECT_EQ(r.still_pending, 0u) << entry;
    EXPECT_EQ(r.unmatched, 0u) << entry;
  }
}

std::vector<TeardownCase> all_teardown_cases() {
  std::vector<TeardownCase> out;
  for (int s = 0; s <= static_cast<int>(HeldIn::kAwaited); ++s) {
    for (int e = 0; e <= static_cast<int>(Teardown::kRestartNoReplay); ++e) {
      out.push_back(
          TeardownCase{static_cast<HeldIn>(s), static_cast<Teardown>(e)});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, TeardownTableTest,
                         ::testing::ValuesIn(all_teardown_cases()),
                         teardown_case_name);

/// A slot that quarantine or a restart frees drops the results it held:
/// nothing reuses a quarantined object's slots, so a result left behind
/// would stay pinned for the object's lifetime.
class PayloadReleaseTest : public ::testing::TestWithParam<SupervisionMode> {};

TEST_P(PayloadReleaseTest, FreedReadySlotDropsItsResults) {
  auto owner = std::make_shared<const std::string>(4096, 'r');
  std::atomic<int> incarnations{0};
  Gate staged;
  Object obj("Pinned", ObjectOptions{.supervision = {.mode = GetParam(),
                                                     .max_restarts = 1,
                                                     .initial_backoff = 1ms}});
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 1});
  EntryRef boom = obj.define_entry({.name = "Boom", .params = 0, .results = 0});
  obj.implement(work, ImplDecl{.inline_start = true},
                [&owner](BodyCtx&) -> ValueList {
                  return {Value(Buffer::from_shared(owner))};
                });
  obj.implement(boom, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work), intercept(boom)}, [&](Manager& m) {
    if (incarnations.fetch_add(1) == 0) {
      m.start(m.accept(work));  // inline: returns with the slot Ready
      staged.open();
      m.accept(boom);
      throw std::runtime_error("manager crash");
    }
    for (;;) m.execute(m.accept(boom));
  });
  obj.start();

  CallHandle h = obj.async_call(work, {});
  ASSERT_TRUE(staged.wait());
  EXPECT_EQ(owner.use_count(), 2);  // the Ready slot holds the result
  (void)obj.async_call(boom, {});
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectDown);
  EXPECT_EQ(owner.use_count(), 1);
  obj.stop();
}

INSTANTIATE_TEST_SUITE_P(Teardown, PayloadReleaseTest,
                         ::testing::Values(SupervisionMode::kRestart,
                                           SupervisionMode::kQuarantine),
                         [](const auto& info) {
                           return info.param == SupervisionMode::kRestart
                                      ? std::string("Restart")
                                      : std::string("Quarantine");
                         });

// ---------------------------------------------------------------------------
// stop() idempotence (double-stop race satellite; run under TSan)
// ---------------------------------------------------------------------------

TEST(StopIdempotence, ConcurrentAndRepeatedStopsAreSafe) {
  for (int round = 0; round < 8; ++round) {
    Object obj("Stopper");
    EntryRef work =
        obj.define_entry({.name = "Work", .params = 0, .results = 0});
    obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
    obj.set_manager({intercept(work)}, [&](Manager& m) {
      for (;;) m.execute(m.accept(work));
    });
    obj.start();
    obj.call(work, {});

    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&] { obj.stop(); });
    }
    for (auto& t : stoppers) t.join();
    obj.stop();  // and once more, sequentially
    EXPECT_FALSE(obj.running());
  }
}

TEST(StopIdempotence, StopRacesInFlightCallers) {
  Object obj("StopRace");
  EntryRef work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(work));
  });
  obj.start();

  std::atomic<bool> go{false};
  std::vector<std::thread> callers;
  std::atomic<int> typed{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int k = 0; k < 50; ++k) {
        try {
          obj.call(work, {});
        } catch (const Error& e) {
          EXPECT_EQ(e.code(), ErrorCode::kObjectStopped);
          ++typed;
          return;
        }
      }
    });
  }
  std::thread stopper([&] {
    while (!go.load()) std::this_thread::yield();
    std::this_thread::sleep_for(1ms);
    obj.stop();
  });
  go = true;
  for (auto& t : callers) t.join();
  stopper.join();
  // Whatever the interleaving, nobody hung and failures were typed.
  SUCCEED();
}

}  // namespace
}  // namespace alps
