// Multiactive objects (DESIGN.md §4.8): compatibility-group scheduling for
// intra-object parallelism. Covers the annotation surface (compatible_with /
// serial_group and their validation at start()), start_compatible
// dispatch, deferred-call parking and arrival-order drain, gate fairness
// (no overtaking of an older incompatible call), interaction with
// cancellation / deadlines / restart, which thread runs a body
// (caller-runs dispatch), kernel admission under the manager's standing
// orders (at arrival and in a leaving body's epilogue), the epilogue's
// manager wake, serial equivalence against the unannotated protocol, and
// the trace/stats cross-check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/readers_writers.h"
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

template <class Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

std::optional<ErrorCode> outcome_of(CallHandle h) {
  try {
    h.get();
    return std::nullopt;
  } catch (const Error& e) {
    return e.code();
  }
}

EntryStats stats_of(Object& obj, const std::string& entry) {
  for (const auto& e : obj.stats().entries) {
    if (e.name == entry) return e;
  }
  ADD_FAILURE() << "no entry named " << entry;
  return {};
}

/// A two-entry read/write object with compat annotations: Read overlaps
/// Read, Write conflicts with everything. Bodies park on gates so tests can
/// hold calls in flight deterministically.
///
/// Two manager shapes:
///  - gated (default): accept guards carry .compatible(), so an incompatible
///    call is never accepted while a conflicting group runs — deferral
///    happens in the select engine, before accept.
///  - ungated: plain accept guards + start_compatible, so conflicting calls
///    are accepted and PARKED by the kernel (SlotState::kDeferred) and
///    launched in arrival order when the group drains. This is the shape
///    that exercises ma_conflict_blocks and the deferred lifecycle.
struct CompatRig {
  Object obj;
  EntryRef read, write;
  std::atomic<int> reads_active{0}, writes_active{0};
  std::atomic<int> max_reads_active{0};
  std::atomic<bool> overlap_violated{false};
  std::mutex order_mu;
  std::vector<std::int64_t> order;  // tag of each body, in start order
  Gate hold_reads;                  // read bodies block here until opened
  Gate hold_writes;

  explicit CompatRig(std::size_t read_slots = 8, bool block_reads = false,
                     bool block_writes = false, bool gated = true)
      : obj("CompatRig", ObjectOptions{.pool_workers = 24}) {
    read = obj.define_entry(
        EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
            {"Read"}));
    write = obj.define_entry(
        EntryDecl{.name = "Write", .params = 1, .results = 0}.serial_group());
    obj.implement(read, ImplDecl{.array = read_slots},
                  [this, block_reads](BodyCtx& ctx) -> ValueList {
                    const int now = ++reads_active;
                    int prev = max_reads_active.load();
                    while (now > prev &&
                           !max_reads_active.compare_exchange_weak(prev, now)) {
                    }
                    if (writes_active.load() > 0) overlap_violated = true;
                    note(ctx.param(0).as_int());
                    if (block_reads) hold_reads.wait();
                    --reads_active;
                    return {ctx.param(0)};
                  });
    obj.implement(write, ImplDecl{.array = 4},
                  [this, block_writes](BodyCtx& ctx) -> ValueList {
      if (++writes_active > 1 || reads_active.load() > 0) {
        overlap_violated = true;
      }
      note(ctx.param(0).as_int());
      if (block_writes) hold_writes.wait();
      --writes_active;
      return {};
    });
    if (gated) {
      obj.set_manager({intercept(read), intercept(write)}, [this](Manager& m) {
        Select()
            .on(accept_guard(read).compatible().then([&](Accepted a) {
              m.start_compatible(a);
            }))
            .on(accept_guard(write).compatible().then([&](Accepted a) {
              m.start_compatible(a);
            }))
            .loop(m);
      });
    } else {
      obj.set_manager({intercept(read), intercept(write)}, [this](Manager& m) {
        Select()
            .on(accept_guard(read).then(
                [&](Accepted a) { m.start_compatible(a); }))
            .on(accept_guard(write).then(
                [&](Accepted a) { m.start_compatible(a); }))
            .loop(m);
      });
    }
  }

  void note(std::int64_t tag) {
    std::scoped_lock lock(order_mu);
    order.push_back(tag);
  }
};

// ---------------------------------------------------------------------------
// Overlap and deferral basics
// ---------------------------------------------------------------------------

TEST(Multiactive, CompatibleCallsOverlapInsideOneObject) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true);
  rig.obj.start();

  std::vector<CallHandle> reads;
  for (int i = 0; i < 6; ++i) {
    reads.push_back(rig.obj.async_call(rig.read, vals(i)));
  }
  // All six run at once — none waits for a manager await/finish turn.
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 6; }));
  rig.hold_reads.open();
  for (int i = 0; i < 6; ++i) EXPECT_EQ(reads[i].get()[0].as_int(), i);
  EXPECT_GE(rig.max_reads_active.load(), 6);
  EXPECT_FALSE(rig.overlap_violated.load());

  const auto st = stats_of(rig.obj, "Read");
  EXPECT_EQ(st.ma_started, 6u);
  EXPECT_GE(st.ma_concurrent_starts, 5u);  // all but the first overlapped
  rig.obj.stop();
}

TEST(Multiactive, IncompatibleCallDefersUntilGroupDrains) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true, /*block_writes=*/false,
                /*gated=*/false);
  rig.obj.start();

  auto r0 = rig.obj.async_call(rig.read, vals(100));
  auto r1 = rig.obj.async_call(rig.read, vals(101));
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 2; }));

  // The write conflicts with the in-flight Read group: it must park, not run.
  auto w = rig.obj.async_call(rig.write, vals(200));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(rig.writes_active.load(), 0);
  EXPECT_FALSE(w.wait_for(0ms));

  rig.hold_reads.open();
  EXPECT_EQ(outcome_of(std::move(w)), std::nullopt);
  r0.get();
  r1.get();
  EXPECT_FALSE(rig.overlap_violated.load());

  const auto st = stats_of(rig.obj, "Write");
  EXPECT_EQ(st.ma_started, 1u);
  EXPECT_GE(st.ma_conflict_blocks, 1u);
  rig.obj.stop();
}

TEST(Multiactive, SerialGroupEntryNeverOverlapsItself) {
  CompatRig rig;
  rig.obj.start();
  std::vector<CallHandle> writes;
  for (int i = 0; i < 16; ++i) {
    writes.push_back(rig.obj.async_call(rig.write, vals(i)));
  }
  for (auto& w : writes) EXPECT_EQ(outcome_of(std::move(w)), std::nullopt);
  EXPECT_FALSE(rig.overlap_violated.load());
  const auto st = stats_of(rig.obj, "Write");
  EXPECT_EQ(st.ma_started, 16u);
  EXPECT_EQ(st.ma_concurrent_starts, 0u);
  rig.obj.stop();
}

TEST(Multiactive, DeferredCallsLaunchInArrivalOrder) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true, /*block_writes=*/false,
                /*gated=*/false);
  rig.obj.start();

  auto r = rig.obj.async_call(rig.read, vals(0));
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 1; }));
  // Three conflicting writes park behind the read, in arrival order.
  std::vector<CallHandle> writes;
  for (int i = 1; i <= 3; ++i) {
    writes.push_back(rig.obj.async_call(rig.write, vals(i)));
    // Serialize arrival so order is deterministic.
    ASSERT_TRUE(eventually([&] {
      return stats_of(rig.obj, "Write").ma_conflict_blocks >=
             static_cast<std::uint64_t>(i);
    }));
  }
  rig.hold_reads.open();
  r.get();
  for (auto& w : writes) w.get();

  std::scoped_lock lock(rig.order_mu);
  ASSERT_EQ(rig.order.size(), 4u);
  EXPECT_EQ(rig.order, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_FALSE(rig.overlap_violated.load());
  rig.obj.stop();
}

TEST(Multiactive, GateFairnessLaterReadsDoNotOvertakeOlderWrite) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true);
  rig.obj.start();

  auto r0 = rig.obj.async_call(rig.read, vals(0));
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 1; }));
  auto w = rig.obj.async_call(rig.write, vals(1));
  ASSERT_TRUE(eventually(
      [&] { return stats_of(rig.obj, "Write").pending >= 1; }));
  std::this_thread::sleep_for(20ms);  // let the manager attach the write
  // These reads arrive AFTER the write: the gate must hold them back even
  // though they are compatible with the running read.
  auto r1 = rig.obj.async_call(rig.read, vals(2));
  auto r2 = rig.obj.async_call(rig.read, vals(3));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(rig.reads_active.load(), 1) << "late reads overtook the write";

  rig.hold_reads.open();
  r0.get();
  w.get();
  r1.get();
  r2.get();
  std::scoped_lock lock(rig.order_mu);
  ASSERT_EQ(rig.order.size(), 4u);
  EXPECT_EQ(rig.order[1], 1) << "write must start before the later reads";
  EXPECT_FALSE(rig.overlap_violated.load());
  rig.obj.stop();
}

TEST(Multiactive, EpilogueWakesTheManagerForAnOpenGateBehindAClosedOne) {
  // A and B may overlap each other but not themselves, and neither has a
  // standing order, so every call is the manager's. The oldest attached
  // call's gate can stay shut while a younger one's opens: the epilogue
  // that opens it must wake the manager.
  struct Attaches : Tracer {
    std::atomic<int> n{0};
    void on_event(const TraceEvent& ev) override {
      if (ev.phase == CallPhase::kAttached) ++n;
    }
  } attaches;
  Gate release_a1, release_b1;
  std::atomic<int> entered{0};
  Object obj("Pairs", ObjectOptions{.pool_workers = 4});
  EntryRef a = obj.define_entry(
      EntryDecl{.name = "A", .params = 1, .results = 0}.compatible_with(
          {"B"}));
  EntryRef b = obj.define_entry({.name = "B", .params = 1, .results = 0});
  auto body = [&](BodyCtx& ctx) -> ValueList {
    ++entered;
    if (ctx.param(0).as_int() == 1) release_a1.wait();
    if (ctx.param(0).as_int() == 2) release_b1.wait();
    return {};
  };
  obj.implement(a, ImplDecl{.array = 2}, body);
  obj.implement(b, ImplDecl{.array = 2}, body);
  obj.set_manager({intercept(a), intercept(b)}, [&](Manager& m) {
    Select()
        .on(accept_guard(a).compatible().then(
            [&](Accepted x) { m.start_compatible(x); }))
        .on(accept_guard(b).compatible().then(
            [&](Accepted x) { m.start_compatible(x); }))
        .loop(m);
  });
  obj.set_tracer(&attaches);
  obj.start();
  CallHandle a1 = obj.async_call(a, vals(1));
  CallHandle b1 = obj.async_call(b, vals(2));
  ASSERT_TRUE(eventually([&] { return entered.load() == 2; }));
  CallHandle a2 = obj.async_call(a, vals(3));
  CallHandle b2 = obj.async_call(b, vals(4));
  // The manager attaches both, finds both gates shut and sleeps.
  ASSERT_TRUE(eventually([&] { return attaches.n.load() == 4; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(obj.pending(a), 1u);
  EXPECT_EQ(obj.pending(b), 1u);
  release_b1.open();
  b1.get();
  ASSERT_TRUE(eventually([&] { return b2.ready(); }))
      << "B2's gate opened when B1 left, but the manager slept";
  b2.get();
  EXPECT_FALSE(a1.ready());
  EXPECT_FALSE(a2.ready());
  release_a1.open();
  a1.get();
  a2.get();
  EXPECT_EQ(entered.load(), 4);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Annotation validation
// ---------------------------------------------------------------------------

TEST(Multiactive, CompatibleWithUnknownEntryFailsAtStart) {
  Object obj("BadAnnot");
  auto e = obj.define_entry(
      EntryDecl{.name = "E", .params = 0, .results = 0}.compatible_with(
          {"NoSuchEntry"}));
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(e));
  });
  try {
    obj.start();
    FAIL() << "start() must reject an annotation naming an unknown entry";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kNoSuchEntry);
  }
}

TEST(Multiactive, AnnotatedButUnmanagedEntryFailsAtStart) {
  Object obj("Unmanaged");
  auto e = obj.define_entry(
      EntryDecl{.name = "E", .params = 0, .results = 0}.serial_group());
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  // No manager at all: the entry is dispatched unmanaged, so there is no
  // accept/start point for the compat scheduler to hook.
  try {
    obj.start();
    FAIL() << "start() must reject compat annotations on unmanaged entries";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kProtocolViolation);
  }
}

TEST(Multiactive, StartCompatibleOnUnannotatedEntryIsAProtocolViolation) {
  Object obj(
      "Unannotated",
      ObjectOptions{.supervision = {.mode = SupervisionMode::kQuarantine}});
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    for (;;) m.start_compatible(m.accept(e));
  });
  obj.start();
  // The violation unwinds the manager; the caller sees the object go down.
  EXPECT_EQ(outcome_of(obj.async_call(e, {})), ErrorCode::kObjectDown);
  EXPECT_NE(obj.manager_error(), nullptr);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Deferred calls vs cancellation / deadlines / restart
// ---------------------------------------------------------------------------

TEST(Multiactive, DeferredCallHonoursCancellation) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true, /*block_writes=*/false,
                /*gated=*/false);
  rig.obj.start();
  auto r = rig.obj.async_call(rig.read, vals(0));
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 1; }));

  auto token = std::make_shared<CancelToken>();
  auto w = rig.obj.async_call(rig.write, vals(1), CallOptions{.cancel = token});
  ASSERT_TRUE(eventually(
      [&] { return stats_of(rig.obj, "Write").ma_conflict_blocks >= 1; }));
  token->request_cancel();
  EXPECT_EQ(outcome_of(std::move(w)), ErrorCode::kCancelled);

  // The group drains normally and later calls still run.
  rig.hold_reads.open();
  r.get();
  auto w2 = rig.obj.async_call(rig.write, vals(2));
  EXPECT_EQ(outcome_of(std::move(w2)), std::nullopt);
  EXPECT_EQ(rig.writes_active.load(), 0);
  rig.obj.stop();
}

TEST(Multiactive, DeferredCallHonoursDeadline) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true, /*block_writes=*/false,
                /*gated=*/false);
  rig.obj.start();
  auto r = rig.obj.async_call(rig.read, vals(0));
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 1; }));

  auto w = rig.obj.async_call(rig.write, vals(1), CallOptions{.deadline = 30ms});
  EXPECT_EQ(outcome_of(std::move(w)), ErrorCode::kTimeout);

  rig.hold_reads.open();
  r.get();
  EXPECT_FALSE(rig.overlap_violated.load());
  rig.obj.stop();
}

TEST(Multiactive, StopFailsDeferredCallsWithTypedError) {
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true, /*block_writes=*/false,
                /*gated=*/false);
  rig.obj.start();
  auto r = rig.obj.async_call(rig.read, vals(0));
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 1; }));
  auto w = rig.obj.async_call(rig.write, vals(1));
  ASSERT_TRUE(eventually(
      [&] { return stats_of(rig.obj, "Write").ma_conflict_blocks >= 1; }));

  // Stop while the write is still parked: it must fail with the typed stop
  // error, not run. The read body is still blocked, so stop() runs from a
  // helper thread and we release the gate only after the write resolved.
  std::thread stopper([&] { rig.obj.stop(); });
  const auto wo = outcome_of(std::move(w));
  ASSERT_TRUE(wo.has_value());
  EXPECT_EQ(*wo, ErrorCode::kObjectStopped);
  rig.hold_reads.open();
  stopper.join();
  (void)outcome_of(std::move(r));  // exactly one completion, either outcome
}

TEST(Multiactive, RestartReplaysDeferredCall) {
  std::atomic<bool> crashed{false};
  Gate hold_reads;
  std::atomic<int> reads_active{0};
  std::mutex mu;
  std::vector<std::int64_t> writes_run;

  Object obj("PhoenixCompat",
             ObjectOptions{.supervision = {.mode = SupervisionMode::kRestart,
                                           .max_restarts = 3,
                                           .initial_backoff = 1ms}});
  auto read = obj.define_entry(
      EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
          {"Read"}));
  auto write = obj.define_entry(
      EntryDecl{.name = "Write", .params = 1, .results = 0}.serial_group());
  auto boom = obj.define_entry({.name = "Boom", .params = 0, .results = 0});
  obj.implement(read, ImplDecl{.array = 4}, [&](BodyCtx& ctx) -> ValueList {
    ++reads_active;
    hold_reads.wait();
    --reads_active;
    return {ctx.param(0)};
  });
  obj.implement(write, [&](BodyCtx& ctx) -> ValueList {
    std::scoped_lock lock(mu);
    writes_run.push_back(ctx.param(0).as_int());
    return {};
  });
  obj.implement(boom, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(read), intercept(write), intercept(boom)},
                  [&](Manager& m) {
                    Select()
                        .on(accept_guard(read).then(
                            [&](Accepted a) { m.start_compatible(a); }))
                        .on(accept_guard(write).then(
                            [&](Accepted a) { m.start_compatible(a); }))
                        .on(accept_guard(boom).then([&](Accepted a) {
                          if (!crashed.exchange(true)) {
                            throw std::runtime_error("incarnation crash");
                          }
                          m.execute(a);
                        }))
                        .loop(m);
                  });
  obj.start();

  auto r = obj.async_call(read, vals(7));
  ASSERT_TRUE(eventually([&] { return reads_active.load() == 1; }));
  auto w = obj.async_call(write, vals(42));  // parks behind the read group
  ASSERT_TRUE(eventually([&] {
    for (const auto& e : obj.stats().entries) {
      if (e.name == "Write") return e.ma_conflict_blocks >= 1;
    }
    return false;
  }));

  // Crash the manager while the write is parked. replay_pending re-queues it
  // for the next incarnation; the caller sees a normal completion.
  auto trigger = obj.async_call(boom, {});
  ASSERT_TRUE(eventually([&] { return obj.restarts() == 1; }));
  hold_reads.open();
  EXPECT_EQ(outcome_of(std::move(w)), std::nullopt);
  EXPECT_EQ(outcome_of(std::move(trigger)), std::nullopt);
  {
    std::scoped_lock lock(mu);
    EXPECT_EQ(writes_run, (std::vector<std::int64_t>{42}));
  }
  // The read that was RUNNING at crash time completes in its own epilogue;
  // either way the caller gets exactly one completion.
  (void)outcome_of(std::move(r));
  obj.stop();
}

TEST(Multiactive, DeferredCallLaunchedDuringRestartBackoffCompletes) {
  // The read group drains inside the restart backoff, so the kernel launches
  // the parked write before the reconcile, and the write is still running
  // when the reconcile looks at it. Both bodies are multiactive: each
  // completes its caller in its own epilogue, so neither may be failed
  // kObjectDown for belonging to the dead incarnation.
  std::atomic<bool> crashed{false};
  std::atomic<bool> reconciled{false};
  std::atomic<bool> write_began_before_reconcile{false};
  std::atomic<int> reads_active{0};
  std::atomic<int> writes_started{0};
  Gate hold_reads;
  Gate hold_write;  // opened by on_restart, i.e. after the reconcile

  Object obj("PhoenixBackoff",
             ObjectOptions{.supervision = {.mode = SupervisionMode::kRestart,
                                           .max_restarts = 3,
                                           .initial_backoff = 500ms,
                                           .on_restart = [&] {
                                             reconciled = true;
                                             hold_write.open();
                                           }}});
  auto read = obj.define_entry(
      EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
          {"Read"}));
  auto write = obj.define_entry(
      EntryDecl{.name = "Write", .params = 1, .results = 0}.serial_group());
  auto boom = obj.define_entry({.name = "Boom", .params = 0, .results = 0});
  obj.implement(read, ImplDecl{.array = 4}, [&](BodyCtx& ctx) -> ValueList {
    ++reads_active;
    hold_reads.wait();
    --reads_active;
    return {ctx.param(0)};
  });
  obj.implement(write, [&](BodyCtx&) -> ValueList {
    write_began_before_reconcile = !reconciled.load();
    ++writes_started;
    hold_write.wait();
    return {};
  });
  obj.implement(boom, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(read), intercept(write), intercept(boom)},
                  [&](Manager& m) {
                    Select()
                        .on(accept_guard(read).then(
                            [&](Accepted a) { m.start_compatible(a); }))
                        .on(accept_guard(write).then(
                            [&](Accepted a) { m.start_compatible(a); }))
                        .on(accept_guard(boom).then([&](Accepted a) {
                          if (!crashed.exchange(true)) {
                            throw std::runtime_error("incarnation crash");
                          }
                          m.execute(a);
                        }))
                        .loop(m);
                  });
  obj.start();

  auto r = obj.async_call(read, vals(7));
  ASSERT_TRUE(eventually([&] { return reads_active.load() == 1; }));
  auto w = obj.async_call(write, vals(42));
  ASSERT_TRUE(eventually(
      [&] { return stats_of(obj, "Write").ma_conflict_blocks >= 1; }));

  // restarts() counts the crash before the backoff starts; release the
  // reads inside the backoff so the write launches ahead of the reconcile.
  auto trigger = obj.async_call(boom, {});
  ASSERT_TRUE(eventually([&] { return obj.restarts() == 1; }));
  hold_reads.open();
  ASSERT_TRUE(eventually([&] { return writes_started.load() == 1; }));
  ASSERT_TRUE(write_began_before_reconcile.load())
      << "the write must launch inside the 500 ms backoff";

  EXPECT_EQ(outcome_of(std::move(r)), std::nullopt);
  EXPECT_EQ(outcome_of(std::move(w)), std::nullopt);
  EXPECT_EQ(outcome_of(std::move(trigger)), std::nullopt);
  EXPECT_EQ(writes_started.load(), 1);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Caller-runs dispatch: who runs a multiactive body (DESIGN.md §4.8)
// ---------------------------------------------------------------------------

/// One compat-annotated Read entry. The manager holds each accepted call
/// until `launch` opens, so a test can park the caller before the kernel
/// picks the body's thread; with `block`, bodies then wait on `hold`.
struct CallerRunRig {
  Object obj;
  EntryRef read;
  Gate launch, hold;
  std::atomic<int> entered{0}, active{0};
  std::mutex mu;
  std::map<std::int64_t, std::thread::id> body_thread;  // by tag

  explicit CallerRunRig(bool block,
                        ObjectOptions opts = ObjectOptions{.pool_workers = 2})
      : obj("CallerRun", std::move(opts)) {
    read = obj.define_entry(
        EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
            {"Read"}));
    obj.implement(read, ImplDecl{.array = 4},
                  [this, block](BodyCtx& ctx) -> ValueList {
                    {
                      std::scoped_lock lock(mu);
                      body_thread[ctx.param(0).as_int()] =
                          std::this_thread::get_id();
                    }
                    ++active;
                    ++entered;
                    if (block) hold.wait();
                    --active;
                    return {ctx.param(0)};
                  });
    obj.set_manager({intercept(read)}, [this](Manager& m) {
      Select()
          .on(accept_guard(read).compatible().then([&](Accepted a) {
            launch.wait();
            m.start_compatible(a);
          }))
          .loop(m);
    });
  }

  std::thread::id thread_of(std::int64_t tag) {
    std::scoped_lock lock(mu);
    return body_thread[tag];
  }
};

bool parked(const CallHandle& h, std::size_t n) {
  return eventually([&] { return h.state()->waiters() == n; });
}

TEST(Multiactive, ParkedCallerRunsItsOwnBody) {
  CallerRunRig rig(/*block=*/false);
  rig.obj.start();
  CallHandle h = rig.obj.async_call(rig.read, vals(7));
  std::thread::id caller_id;
  std::optional<ValueList> got;
  std::thread caller([&] {
    caller_id = std::this_thread::get_id();
    got = h.get();
  });
  ASSERT_TRUE(parked(h, 1));
  rig.launch.open();
  caller.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0].as_int(), 7);
  EXPECT_EQ(rig.thread_of(7), caller_id);
  EXPECT_EQ(h.state()->waiters(), 0u);
  rig.obj.stop();
}

TEST(Multiactive, CallerNotWaitingUsesThePool) {
  CallerRunRig rig(/*block=*/true);
  rig.launch.open();
  rig.obj.start();
  // Pipelined: the body starts while its caller is still issuing.
  CallHandle h = rig.obj.async_call(rig.read, vals(1));
  ASSERT_TRUE(eventually([&] { return rig.entered.load() == 1; }));
  // A timed wait never takes a body either.
  CallHandle t = rig.obj.async_call(rig.read, vals(2));
  std::thread::id timed_id;
  std::optional<ValueList> timed_got;
  std::thread timed([&] {
    timed_id = std::this_thread::get_id();
    timed_got = t.get_for(5s);
  });
  ASSERT_TRUE(eventually([&] { return rig.entered.load() == 2; }));
  rig.hold.open();
  EXPECT_EQ(h.get()[0].as_int(), 1);
  timed.join();
  ASSERT_TRUE(timed_got.has_value());
  EXPECT_EQ((*timed_got)[0].as_int(), 2);
  EXPECT_NE(rig.thread_of(1), std::this_thread::get_id());
  EXPECT_NE(rig.thread_of(2), timed_id);
  rig.obj.stop();
}

TEST(Multiactive, DeadlineAndCancelCallsStayPooled) {
  CallerRunRig rig(/*block=*/true);
  rig.obj.start();
  auto token = std::make_shared<CancelToken>();
  CallHandle d =
      rig.obj.async_call(rig.read, vals(1), CallOptions{.deadline = 1000ms});
  CallHandle c =
      rig.obj.async_call(rig.read, vals(2), CallOptions{.cancel = token});
  std::thread::id d_id, c_id;
  std::optional<ErrorCode> d_got, c_got;
  std::thread dt([&] {
    d_id = std::this_thread::get_id();
    d_got = outcome_of(d);
  });
  std::thread ct([&] {
    c_id = std::this_thread::get_id();
    c_got = outcome_of(c);
  });
  ASSERT_TRUE(parked(d, 1));
  ASSERT_TRUE(parked(c, 1));
  rig.launch.open();
  ASSERT_TRUE(eventually([&] { return rig.entered.load() == 2; }));
  token->request_cancel();
  // Both callers return while both bodies are still blocked on `hold`.
  ct.join();
  dt.join();
  EXPECT_EQ(c_got, ErrorCode::kCancelled);
  EXPECT_EQ(d_got, ErrorCode::kTimeout);
  EXPECT_EQ(rig.active.load(), 2);
  rig.hold.open();
  EXPECT_NE(rig.thread_of(1), d_id);
  EXPECT_NE(rig.thread_of(2), c_id);
  rig.obj.stop();
}

TEST(Multiactive, TwoWaitersOnOneHandleRunTheBodyOnce) {
  CallerRunRig rig(/*block=*/false);
  rig.obj.start();
  CallHandle h = rig.obj.async_call(rig.read, vals(5));
  std::thread::id ids[2];
  std::optional<ValueList> got[2];
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&, i] {
      ids[i] = std::this_thread::get_id();
      got[i] = CallHandle(h).get();
    });
  }
  ASSERT_TRUE(parked(h, 2));
  rig.launch.open();
  for (auto& w : waiters) w.join();
  for (const auto& g : got) {
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ((*g)[0].as_int(), 5);
  }
  EXPECT_EQ(rig.entered.load(), 1);
  const std::thread::id ran_on = rig.thread_of(5);
  EXPECT_TRUE(ran_on == ids[0] || ran_on == ids[1]);
  rig.obj.stop();
}

TEST(Multiactive, StopWaitsForACallerRunBody) {
  auto rig = std::make_unique<CallerRunRig>(/*block=*/true);
  rig->obj.start();
  CallHandle h = rig->obj.async_call(rig->read, vals(1));
  std::thread::id caller_id;
  std::optional<ErrorCode> got;
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    caller_id = std::this_thread::get_id();
    got = outcome_of(h);
    returned = true;
  });
  ASSERT_TRUE(parked(h, 1));
  rig->launch.open();
  ASSERT_TRUE(eventually([&] { return rig->entered.load() == 1; }));
  EXPECT_EQ(rig->thread_of(1), caller_id);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    rig->obj.stop();
    stopped = true;
  });
  // stop() fails the call at once, but the caller running its body sees
  // that only when the body returns (DESIGN.md §4.6).
  EXPECT_TRUE(eventually([&] { return h.ready(); }));
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(returned.load()) << "caller left a body still running";
  EXPECT_FALSE(stopped.load()) << "stop() returned under a caller-run body";
  rig->hold.open();
  stopper.join();
  // Destroyed while the caller thread may still be leaving its wait: a
  // stop() that returned early would leave it inside freed memory.
  rig.reset();
  caller.join();
  EXPECT_EQ(got, ErrorCode::kObjectStopped);
}

TEST(Multiactive, SupervisedObjectsKeepThePool) {
  // Quarantine, restart and an escalating watchdog each release the caller
  // of a hung body; a caller running that body could not be released.
  std::vector<ObjectOptions> supervised(3, ObjectOptions{.pool_workers = 2});
  supervised[0].supervision.mode = SupervisionMode::kQuarantine;
  supervised[1].supervision.mode = SupervisionMode::kRestart;
  supervised[2].watchdog = {.enabled = true, .escalate = true};
  for (ObjectOptions& opts : supervised) {
    CallerRunRig rig(/*block=*/false, std::move(opts));
    rig.obj.start();
    CallHandle h = rig.obj.async_call(rig.read, vals(3));
    std::thread::id caller_id;
    std::thread caller([&] {
      caller_id = std::this_thread::get_id();
      EXPECT_EQ(h.get()[0].as_int(), 3);
    });
    ASSERT_TRUE(parked(h, 1));
    rig.launch.open();
    caller.join();
    EXPECT_NE(rig.thread_of(3), caller_id);
    rig.obj.stop();
  }
}

// ---------------------------------------------------------------------------
// Caller-side admission: the manager's standing order (DESIGN.md §4.8)
// ---------------------------------------------------------------------------

/// Read (compatible with itself) and Write (serial group), with a manager
/// that issues Manager::start_compatible_on_arrival for Read before its
/// gated select. `inline_read` declares ImplDecl::inline_start on Read. A
/// Hold call parks the manager in its arm until `release_manager` opens.
struct AdmitRig {
  Object obj;
  EntryRef read, write, hold;
  Gate ordered, manager_held, release_manager, hold_reads, hold_writes;
  std::atomic<int> reads_entered{0}, writes_entered{0};
  std::mutex mu;
  std::vector<std::int64_t> order;                      // body tags
  std::map<std::int64_t, std::thread::id> body_thread;  // by tag

  AdmitRig(bool inline_read, bool block_reads, bool block_writes,
           ObjectOptions opts = ObjectOptions{.pool_workers = 4})
      : obj("Admit", std::move(opts)) {
    read = obj.define_entry(
        EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
            {"Read"}));
    write = obj.define_entry(
        EntryDecl{.name = "Write", .params = 1, .results = 0}.serial_group());
    hold = obj.define_entry({.name = "Hold", .params = 0, .results = 0});
    obj.implement(read, ImplDecl{.array = 4, .inline_start = inline_read},
                  [this, block_reads](BodyCtx& ctx) -> ValueList {
                    note(ctx.param(0).as_int());
                    ++reads_entered;
                    if (block_reads) hold_reads.wait();
                    return {ctx.param(0)};
                  });
    obj.implement(write, ImplDecl{.array = 2},
                  [this, block_writes](BodyCtx& ctx) -> ValueList {
                    note(ctx.param(0).as_int());
                    ++writes_entered;
                    if (block_writes) hold_writes.wait();
                    return {};
                  });
    obj.implement(hold, [](BodyCtx&) -> ValueList { return {}; });
    obj.set_manager(
        {intercept(read), intercept(write), intercept(hold)},
        [this](Manager& m) {
          m.start_compatible_on_arrival(read);
          ordered.open();
          Select()
              .on(accept_guard(read).compatible().then([&](Accepted a) {
                m.start_compatible(a);
              }))
              .on(accept_guard(write).compatible().then(
                  [&](Accepted a) { m.start_compatible(a); }))
              .on(accept_guard(hold).then([&](Accepted a) {
                manager_held.open();
                release_manager.wait();
                m.execute(a);
              }))
              .loop(m);
        });
  }

  void start() {
    obj.start();
    ASSERT_TRUE(ordered.wait());
  }

  void note(std::int64_t tag) {
    std::scoped_lock lock(mu);
    order.push_back(tag);
    body_thread[tag] = std::this_thread::get_id();
  }

  std::thread::id thread_of(std::int64_t tag) {
    std::scoped_lock lock(mu);
    return body_thread[tag];
  }

  std::vector<std::int64_t> bodies() {
    std::scoped_lock lock(mu);
    return order;
  }
};

TEST(Multiactive, OpenGateReadCompletesInsideAsyncCallOnTheCaller) {
  AdmitRig rig(/*inline_read=*/true, false, false);
  rig.start();
  CallHandle h = rig.obj.async_call(rig.read, vals(7));
  EXPECT_TRUE(h.ready()) << "an admitted inline body runs before async_call "
                            "returns";
  EXPECT_EQ(rig.thread_of(7), std::this_thread::get_id());
  EXPECT_EQ(h.get()[0].as_int(), 7);
  // Counted as if the manager had accepted and started it.
  const EntryStats st = stats_of(rig.obj, "Read");
  EXPECT_EQ(st.calls, 1u);
  EXPECT_EQ(st.accepts, 1u);
  EXPECT_EQ(st.starts, 1u);
  EXPECT_EQ(st.ma_started, 1u);
  EXPECT_EQ(st.finishes, 1u);
  EXPECT_EQ(rig.obj.pending(rig.read), 0u);
  rig.obj.stop();
}

TEST(Multiactive, AdmittedBodyWithoutInlineStartLaunchesOnThePool) {
  AdmitRig rig(/*inline_read=*/false, /*block_reads=*/true, false);
  rig.start();
  CallHandle h = rig.obj.async_call(rig.read, vals(3));
  // Started with no manager turn, but on a pool worker: the caller is back
  // while the body still blocks.
  ASSERT_TRUE(eventually([&] { return rig.reads_entered.load() == 1; }));
  EXPECT_FALSE(h.ready());
  EXPECT_NE(rig.thread_of(3), std::this_thread::get_id());
  EXPECT_EQ(stats_of(rig.obj, "Read").accepts, 1u);
  rig.hold_reads.open();
  EXPECT_EQ(h.get()[0].as_int(), 3);
  rig.obj.stop();
}

TEST(Multiactive, ReadBehindARunningWriteWaitsForTheManager) {
  AdmitRig rig(/*inline_read=*/true, false, /*block_writes=*/true);
  rig.start();
  CallHandle w = rig.obj.async_call(rig.write, vals(1));
  ASSERT_TRUE(eventually([&] { return rig.writes_entered.load() == 1; }));
  // The gate is closed: the read attaches and returns to its caller
  // without running. The write's epilogue admits it once it leaves.
  CallHandle r = rig.obj.async_call(rig.read, vals(2));
  EXPECT_FALSE(r.ready());
  EXPECT_EQ(rig.reads_entered.load(), 0);
  EXPECT_EQ(rig.obj.pending(rig.read), 1u);
  rig.hold_writes.open();
  EXPECT_EQ(r.get()[0].as_int(), 2);
  w.get();
  EXPECT_EQ(rig.bodies(), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(rig.obj.pending(rig.read), 0u);
  rig.obj.stop();
}

TEST(Multiactive, ReadBehindAnOlderAttachedWriteKeepsArrivalOrder) {
  AdmitRig rig(/*inline_read=*/true, false, false);
  rig.start();
  // Park the manager in user code, so the write stays unaccepted.
  CallHandle held = rig.obj.async_call(rig.hold, {});
  ASSERT_TRUE(rig.manager_held.wait());
  CallHandle w = rig.obj.async_call(rig.write, vals(1));
  // The read's admission drains the intake first, so it finds the older
  // write attached and leaves the decision to the manager.
  CallHandle r = rig.obj.async_call(rig.read, vals(2));
  EXPECT_FALSE(r.ready());
  EXPECT_FALSE(w.ready());
  EXPECT_EQ(rig.obj.pending(rig.write), 1u);
  EXPECT_EQ(rig.obj.pending(rig.read), 1u);
  EXPECT_TRUE(rig.bodies().empty());
  rig.release_manager.open();
  held.get();
  w.get();
  EXPECT_EQ(r.get()[0].as_int(), 2);
  EXPECT_EQ(rig.bodies(), (std::vector<std::int64_t>{1, 2}));
  rig.obj.stop();
}

TEST(Multiactive, GuardedAndSupervisedCallsNeverSelfAdmit) {
  {
    AdmitRig rig(/*inline_read=*/true, false, false);
    rig.start();
    auto token = std::make_shared<CancelToken>();
    CallHandle d =
        rig.obj.async_call(rig.read, vals(1), CallOptions{.deadline = 5000ms});
    CallHandle c =
        rig.obj.async_call(rig.read, vals(2), CallOptions{.cancel = token});
    EXPECT_EQ(d.get()[0].as_int(), 1);
    EXPECT_EQ(c.get()[0].as_int(), 2);
    EXPECT_NE(rig.thread_of(1), std::this_thread::get_id());
    EXPECT_NE(rig.thread_of(2), std::this_thread::get_id());
    // An unguarded call on the same object does admit itself.
    CallHandle plain = rig.obj.async_call(rig.read, vals(3));
    EXPECT_TRUE(plain.ready());
    EXPECT_EQ(rig.thread_of(3), std::this_thread::get_id());
    rig.obj.stop();
  }
  std::vector<ObjectOptions> kept(4, ObjectOptions{.pool_workers = 2});
  kept[0].supervision.mode = SupervisionMode::kQuarantine;
  kept[1].supervision.mode = SupervisionMode::kRestart;
  kept[2].watchdog = {.enabled = true, .escalate = true};
  kept[3].model = sched::ProcessModel::kSlotBound;
  for (ObjectOptions& opts : kept) {
    AdmitRig rig(/*inline_read=*/true, false, false, std::move(opts));
    rig.start();
    EXPECT_EQ(rig.obj.call(rig.read, vals(4))[0].as_int(), 4);
    EXPECT_NE(rig.thread_of(4), std::this_thread::get_id());
    rig.obj.stop();
  }
}

/// Records every trace event in emission order.
class PhaseLog : public Tracer {
 public:
  struct Step {
    std::string entry;
    std::uint64_t id = 0;
    CallPhase phase = CallPhase::kArrived;
  };

  void on_event(const TraceEvent& ev) override {
    collector.on_event(ev);
    std::scoped_lock lock(mu_);
    phases_[ev.call_id].push_back(ev.phase);
    steps_.push_back(Step{ev.entry, ev.call_id, ev.phase});
  }
  std::map<std::uint64_t, std::vector<CallPhase>> phases() const {
    std::scoped_lock lock(mu_);
    return phases_;
  }
  /// Every event, in the order the kernel emitted it.
  std::vector<Step> steps() const {
    std::scoped_lock lock(mu_);
    return steps_;
  }

  TraceCollector collector;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::vector<CallPhase>> phases_;
  std::vector<Step> steps_;
};

TEST(Multiactive, CallerAdmittedCallsTraceAsTheManagerPath) {
  PhaseLog log;
  AdmitRig rig(/*inline_read=*/true, false, false);
  rig.obj.set_tracer(&log);
  rig.start();
  // Four callers mix reads (most admitted by their callers) with writes
  // (always the manager's), so both paths interleave.
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::int64_t tag = t * 1000 + i;
        if (i % 10 == 9) {
          rig.obj.call(rig.write, vals(tag));
        } else {
          EXPECT_EQ(rig.obj.call(rig.read, vals(tag))[0].as_int(), tag);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(rig.obj.pending(rig.read), 0u);
  EXPECT_EQ(rig.obj.pending(rig.write), 0u);
  const EntryStats reads = stats_of(rig.obj, "Read");
  rig.obj.stop();

  const std::vector<CallPhase> want = {
      CallPhase::kArrived, CallPhase::kAttached, CallPhase::kAccepted,
      CallPhase::kStarted, CallPhase::kFinished};
  const auto phases = log.phases();
  EXPECT_EQ(phases.size(), 800u);
  for (const auto& [id, seen] : phases) {
    EXPECT_EQ(seen, want) << "call " << id;
  }
  EXPECT_EQ(reads.accepts, 720u);
  EXPECT_EQ(reads.ma_started, 720u);
  log.collector.flush_pending();
  for (const char* entry : {"Read", "Write"}) {
    const TraceCollector::EntryReport r = log.collector.report(entry);
    EXPECT_EQ(r.arrived, r.finished) << entry;
    EXPECT_EQ(r.failed + r.still_pending + r.unmatched, 0u) << entry;
  }
}

TEST(Multiactive, ManagerExitWithdrawsTheStandingOrder) {
  Object obj("Withdrawn");
  EntryRef read = obj.define_entry(
      EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
          {"Read"}));
  std::atomic<int> entered{0};
  obj.implement(read, ImplDecl{.array = 2, .inline_start = true},
                [&](BodyCtx& ctx) -> ValueList {
                  ++entered;
                  return {ctx.param(0)};
                });
  obj.set_manager({intercept(read)}, [&](Manager& m) {
    m.start_compatible_on_arrival(read);
    throw std::runtime_error("manager exits");
  });
  obj.start();
  // Fail-fast: the object stays up with no manager. manager_error() is set
  // after the incarnation's orders are withdrawn.
  ASSERT_TRUE(eventually([&] { return obj.manager_error() != nullptr; }));
  CallHandle h = obj.async_call(read, vals(1));
  EXPECT_FALSE(h.ready());
  EXPECT_EQ(obj.pending(read), 1u);
  obj.stop();
  EXPECT_EQ(outcome_of(h), ErrorCode::kObjectStopped);
  EXPECT_EQ(entered.load(), 0);
}

TEST(Multiactive, StandingOrderOnAnUnfitEntryIsAProtocolViolation) {
  for (bool annotated : {false, true}) {
    Object obj("Unfit");
    EntryDecl decl{.name = "E", .params = 0, .results = 0};
    if (annotated) decl = std::move(decl).compatible_with({"E"});
    auto e = obj.define_entry(std::move(decl));
    // Annotated but with a hidden result: needs the await/finish protocol.
    obj.implement(e, ImplDecl{.hidden_results = annotated ? 1u : 0u},
                  [annotated](BodyCtx&) -> ValueList {
                    if (annotated) return {Value(0)};
                    return {};
                  });
    obj.set_manager({intercept(e)},
                    [&](Manager& m) { m.start_compatible_on_arrival(e); });
    obj.start();
    ASSERT_TRUE(eventually([&] { return obj.manager_error() != nullptr; }));
    try {
      std::rethrow_exception(obj.manager_error());
    } catch (const Error& err) {
      EXPECT_EQ(err.code(), ErrorCode::kProtocolViolation);
      const std::string want =
          annotated ? "hidden params/results"
                    : "without compatibility annotations";
      EXPECT_NE(std::string(err.what()).find(want), std::string::npos)
          << err.what();
      EXPECT_NE(std::string(err.what()).find("start_compatible_on_arrival"),
                std::string::npos)
          << err.what();
    }
    obj.stop();
  }
}

// ---------------------------------------------------------------------------
// Kernel admission: orders on every entry, admitted wherever the gate opens
// ---------------------------------------------------------------------------

/// Read (compatible with itself) and Write (serial group), both
/// ImplDecl::inline_start and both under the manager's standing order, as
/// in the multiactive ReadersWritersDb. The manager's arms count the calls
/// they serve, so a test tells the kernel's admissions from the manager's,
/// and `passes` counts its select passes: an unannotated `when` guard that
/// is never true re-runs on each one. The body tagged kHeld (no other test
/// tag) waits on `release`.
struct OrderRig {
  static constexpr std::int64_t kHeld = -1;

  Object obj;
  EntryRef read, write;
  Gate ordered, release;
  std::atomic<int> arm_calls{0}, reads_entered{0}, writes_entered{0};
  std::atomic<int> reads_active{0}, writes_active{0}, passes{0};
  std::atomic<bool> overlap_violated{false};
  std::mutex mu;
  std::map<std::int64_t, std::thread::id> body_thread;  // by tag

  explicit OrderRig(ObjectOptions opts = ObjectOptions{.pool_workers = 2})
      : obj("Order", std::move(opts)) {
    read = obj.define_entry(
        EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
            {"Read"}));
    write = obj.define_entry(
        EntryDecl{.name = "Write", .params = 1, .results = 0}.serial_group());
    obj.implement(read, ImplDecl{.array = 4, .inline_start = true},
                  [this](BodyCtx& ctx) -> ValueList {
                    ++reads_active;
                    if (writes_active.load() > 0) overlap_violated = true;
                    note(ctx.param(0).as_int());
                    ++reads_entered;
                    if (ctx.param(0).as_int() == kHeld) release.wait();
                    --reads_active;
                    return {ctx.param(0)};
                  });
    obj.implement(write, ImplDecl{.array = 2, .inline_start = true},
                  [this](BodyCtx& ctx) -> ValueList {
                    if (++writes_active > 1 || reads_active.load() > 0) {
                      overlap_violated = true;
                    }
                    note(ctx.param(0).as_int());
                    ++writes_entered;
                    if (ctx.param(0).as_int() == kHeld) release.wait();
                    --writes_active;
                    return {};
                  });
    obj.set_manager({intercept(read), intercept(write)}, [this](Manager& m) {
      m.start_compatible_on_arrival(read);
      m.start_compatible_on_arrival(write);
      ordered.open();
      Select()
          .on(accept_guard(read).compatible().then([&](Accepted a) {
            ++arm_calls;
            m.start_compatible(a);
          }))
          .on(accept_guard(write).compatible().then([&](Accepted a) {
            ++arm_calls;
            m.start_compatible(a);
          }))
          .on(when_guard([this] {
                ++passes;
                return false;
              }).then([] {}))
          .loop(m);
    });
  }

  void start() {
    obj.start();
    ASSERT_TRUE(ordered.wait());
  }

  void note(std::int64_t tag) {
    std::scoped_lock lock(mu);
    body_thread[tag] = std::this_thread::get_id();
  }

  std::thread::id thread_of(std::int64_t tag) {
    std::scoped_lock lock(mu);
    return body_thread[tag];
  }

  /// Issues Write(kHeld) from a thread of its own, where its body runs
  /// inside async_call, and returns once the body holds the gate shut.
  std::thread hold_write() {
    std::thread t([this] { obj.call(write, vals(kHeld)); });
    EXPECT_TRUE(eventually([&] { return writes_entered.load() == 1; }));
    return t;
  }
};

/// Calls of `steps` in the given phase, in emission order.
std::vector<PhaseLog::Step> of_phase(const std::vector<PhaseLog::Step>& steps,
                                     CallPhase phase) {
  std::vector<PhaseLog::Step> out;
  for (const auto& st : steps) {
    if (st.phase == phase) out.push_back(st);
  }
  return out;
}

/// Position of the event (id, phase) in `steps`, or steps.size().
std::size_t position(const std::vector<PhaseLog::Step>& steps,
                     std::uint64_t id, CallPhase phase) {
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].id == id && steps[i].phase == phase) return i;
  }
  return steps.size();
}

TEST(KernelAdmission, WriteOnAnIdleObjectRunsInsideItsCallersAsyncCall) {
  OrderRig rig;
  rig.start();
  CallHandle w = rig.obj.async_call(rig.write, vals(1));
  EXPECT_TRUE(w.ready()) << "an admitted inline Write runs before async_call "
                            "returns";
  w.get();
  EXPECT_EQ(rig.thread_of(1), std::this_thread::get_id());
  const EntryStats st = stats_of(rig.obj, "Write");
  EXPECT_EQ(st.accepts, 1u);
  EXPECT_EQ(st.ma_started, 1u);
  EXPECT_EQ(st.finishes, 1u);
  EXPECT_EQ(rig.arm_calls.load(), 0);
  rig.obj.stop();
}

TEST(KernelAdmission, ReadsBehindAHeldWriteAreAdmittedByItsEpilogue) {
  OrderRig rig;
  rig.start();
  std::thread writer = rig.hold_write();
  std::vector<CallHandle> reads;
  for (int i = 0; i < 4; ++i) reads.push_back(rig.obj.async_call(rig.read, vals(i)));
  for (const CallHandle& h : reads) EXPECT_FALSE(h.ready());
  EXPECT_EQ(rig.obj.pending(rig.read), 4u);
  // Each read's caller parks on it, so the epilogue hands it its own body.
  std::vector<std::thread> waiters;
  std::vector<std::thread::id> ids(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    waiters.emplace_back([&, i] {
      ids[i] = std::this_thread::get_id();
      EXPECT_EQ(CallHandle(reads[i]).get()[0].as_int(),
                static_cast<std::int64_t>(i));
    });
  }
  for (const CallHandle& h : reads) ASSERT_TRUE(parked(h, 1));
  rig.release.open();
  writer.join();
  for (auto& t : waiters) t.join();
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(rig.thread_of(static_cast<std::int64_t>(i)), ids[i]) << i;
  }
  EXPECT_EQ(rig.arm_calls.load(), 0) << "the manager served a read";
  EXPECT_EQ(stats_of(rig.obj, "Read").accepts, 4u);
  EXPECT_EQ(rig.obj.pending(rig.read), 0u);
  EXPECT_FALSE(rig.overlap_violated.load());
  rig.obj.stop();
}

TEST(KernelAdmission, EpiloguesAdmitOldestFirstAndNothingOvertakes) {
  PhaseLog log;
  OrderRig rig;
  rig.obj.set_tracer(&log);
  rig.start();
  std::thread writer = rig.hold_write();
  CallHandle r1 = rig.obj.async_call(rig.read, vals(1));
  CallHandle w2 = rig.obj.async_call(rig.write, vals(2));
  CallHandle r2 = rig.obj.async_call(rig.read, vals(3));
  EXPECT_EQ(rig.obj.pending(rig.read), 2u);
  EXPECT_EQ(rig.obj.pending(rig.write), 1u);
  rig.release.open();
  writer.join();
  EXPECT_EQ(r1.get()[0].as_int(), 1);
  w2.get();
  EXPECT_EQ(r2.get()[0].as_int(), 3);
  rig.obj.stop();

  const auto steps = log.steps();
  const auto arrived = of_phase(steps, CallPhase::kArrived);
  ASSERT_EQ(arrived.size(), 4u);
  const std::uint64_t id_r1 = arrived[1].id, id_w2 = arrived[2].id,
                      id_r2 = arrived[3].id;
  // After the held Write: R1, then W2 (R2 would have joined R1's group, but
  // W2 is older), then R2.
  const auto started = of_phase(steps, CallPhase::kStarted);
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started[1].id, id_r1);
  EXPECT_EQ(started[2].id, id_w2);
  EXPECT_EQ(started[3].id, id_r2);
  EXPECT_LT(position(steps, id_r1, CallPhase::kFinished),
            position(steps, id_w2, CallPhase::kStarted))
      << "W2 started beside R1";
  EXPECT_LT(position(steps, id_w2, CallPhase::kFinished),
            position(steps, id_r2, CallPhase::kStarted))
      << "R2 started beside W2";
  EXPECT_EQ(rig.arm_calls.load(), 0);
  EXPECT_FALSE(rig.overlap_violated.load());
}

TEST(KernelAdmission, OverflowWritesTheKernelTakesNeverWakeTheManager) {
  OrderRig rig;
  rig.start();
  std::thread writer = rig.hold_write();
  // Write has two slots: the held write fills one and W1 the other, so W2
  // and W3 overflow. Each freed slot re-attaches one of them, and each is
  // admitted by an epilogue, so the manager has nothing to do.
  std::vector<CallHandle> writes;
  for (int i = 1; i <= 3; ++i) {
    writes.push_back(rig.obj.async_call(rig.write, vals(i)));
  }
  EXPECT_EQ(rig.obj.pending(rig.write), 3u);
  ASSERT_TRUE(eventually([&] { return rig.passes.load() > 0; }));
  std::this_thread::sleep_for(20ms);  // the manager sleeps after its pass
  const int before = rig.passes.load();
  rig.release.open();
  writer.join();
  for (const CallHandle& h : writes) CallHandle(h).get();
  std::this_thread::sleep_for(50ms);  // room for a woken manager's pass
  EXPECT_EQ(rig.passes.load(), before) << "an epilogue woke the manager";
  EXPECT_EQ(rig.arm_calls.load(), 0);
  EXPECT_EQ(rig.obj.pending(rig.write), 0u);
  rig.obj.stop();
}

TEST(KernelAdmission, GuardedOldestCallStopsTheLoopAndTheManagerServesIt) {
  PhaseLog log;
  OrderRig rig;
  rig.obj.set_tracer(&log);
  rig.start();
  std::thread writer = rig.hold_write();
  CallHandle g = rig.obj.async_call(rig.read, vals(1),
                                    CallOptions{.deadline = 5000ms});
  CallHandle w2 = rig.obj.async_call(rig.write, vals(2));
  CallHandle r2 = rig.obj.async_call(rig.read, vals(3));
  rig.release.open();
  writer.join();
  EXPECT_EQ(g.get()[0].as_int(), 1);
  w2.get();
  EXPECT_EQ(r2.get()[0].as_int(), 3);
  // The guarded read keeps the pool; the manager's read arm admitted it,
  // and only it: the younger calls waited their turn behind it.
  EXPECT_NE(rig.thread_of(1), std::this_thread::get_id());
  EXPECT_EQ(rig.arm_calls.load(), 1);
  rig.obj.stop();

  const auto steps = log.steps();
  const auto arrived = of_phase(steps, CallPhase::kArrived);
  ASSERT_EQ(arrived.size(), 4u);
  const auto started = of_phase(steps, CallPhase::kStarted);
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started[1].id, arrived[1].id);
  EXPECT_EQ(started[2].id, arrived[2].id);
  EXPECT_EQ(started[3].id, arrived[3].id);
  EXPECT_FALSE(rig.overlap_violated.load());
}

TEST(KernelAdmission, SupervisedAndSlotBoundObjectsLeaveEveryCallToTheManager) {
  std::vector<ObjectOptions> kept(4, ObjectOptions{.pool_workers = 2});
  kept[0].supervision.mode = SupervisionMode::kQuarantine;
  kept[1].supervision.mode = SupervisionMode::kRestart;
  kept[2].watchdog = {.enabled = true, .escalate = true};
  kept[3].model = sched::ProcessModel::kSlotBound;
  for (ObjectOptions& opts : kept) {
    OrderRig rig(std::move(opts));
    rig.start();
    rig.obj.call(rig.write, vals(1));
    EXPECT_EQ(rig.obj.call(rig.read, vals(2))[0].as_int(), 2);
    rig.obj.call(rig.write, vals(3));
    EXPECT_NE(rig.thread_of(1), std::this_thread::get_id());
    EXPECT_NE(rig.thread_of(2), std::this_thread::get_id());
    EXPECT_NE(rig.thread_of(3), std::this_thread::get_id());
    EXPECT_EQ(rig.arm_calls.load(), 3);
    rig.obj.stop();
  }
}

TEST(KernelAdmission, EveryCallTracesOneTerminalEventAndPendingDrains) {
  PhaseLog log;
  OrderRig rig(ObjectOptions{.pool_workers = 2});
  rig.obj.set_tracer(&log);
  rig.start();
  // Four callers mix reads and writes; every seventh call is guarded and
  // takes the manager's arm, so the kernel's and the manager's admissions
  // interleave.
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const std::int64_t tag = t * 1000 + i;
        const CallOptions opts =
            i % 7 == 6 ? CallOptions{.deadline = 5000ms} : CallOptions{};
        if (i % 10 == 9) {
          rig.obj.call(rig.write, vals(tag), opts);
        } else {
          EXPECT_EQ(rig.obj.call(rig.read, vals(tag), opts)[0].as_int(), tag);
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(rig.obj.pending(rig.read), 0u);
  EXPECT_EQ(rig.obj.pending(rig.write), 0u);
  rig.obj.stop();
  EXPECT_FALSE(rig.overlap_violated.load());

  const std::vector<CallPhase> want = {
      CallPhase::kArrived, CallPhase::kAttached, CallPhase::kAccepted,
      CallPhase::kStarted, CallPhase::kFinished};
  const auto phases = log.phases();
  EXPECT_EQ(phases.size(), 800u);
  for (const auto& [id, seen] : phases) {
    EXPECT_EQ(seen, want) << "call " << id;
  }
  log.collector.flush_pending();
  for (const char* entry : {"Read", "Write"}) {
    const TraceCollector::EntryReport r = log.collector.report(entry);
    EXPECT_EQ(r.arrived, r.finished) << entry;
    EXPECT_EQ(r.failed + r.still_pending + r.unmatched, 0u) << entry;
  }
}

// ---------------------------------------------------------------------------
// Differential: annotated scheduling is observationally serial-equivalent
// ---------------------------------------------------------------------------

TEST(Multiactive, DifferentialSerialEquivalenceReadersWriters) {
  // Identical deterministic workload against the paper's serial manager and
  // the multiactive one: the final table and every read-your-write must
  // agree; the multiactive run must not violate exclusion.
  auto run = [](bool multiactive) {
    apps::ReadersWritersDb db(
        {.read_max = 8, .multiactive = multiactive});
    std::vector<std::int64_t> observed;
    for (int i = 0; i < 200; ++i) {
      if (i % 5 == 0) {
        db.write(i % 7, i);
      } else {
        observed.push_back(db.read(i % 7));
      }
    }
    // Drain, then final snapshot.
    for (int k = 0; k < 7; ++k) observed.push_back(db.read(k));
    auto inv = db.invariants();
    EXPECT_FALSE(inv.exclusion_violated);
    return observed;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Multiactive, ConcurrentDifferentialKeepsInvariants) {
  // Concurrent clients on both schedulers: totals and invariants must match
  // (per-read values are racy by design, so only the counts are compared).
  auto run = [](bool multiactive) {
    apps::ReadersWritersDb db(
        {.read_max = 8, .multiactive = multiactive});
    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> sum{0};
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&db, &sum, t] {
        for (int i = 0; i < 100; ++i) {
          if ((t + i) % 4 == 0) {
            db.write(t, i);
          } else {
            sum += static_cast<std::uint64_t>(db.read(t));
          }
        }
      });
    }
    for (auto& c : clients) c.join();
    auto inv = db.invariants();
    EXPECT_FALSE(inv.exclusion_violated);
    EXPECT_EQ(inv.reads + inv.writes, 400u);
    return std::pair<std::uint64_t, std::uint64_t>{inv.reads, inv.writes};
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Stress (exercised under TSan in the sanitizer build)
// ---------------------------------------------------------------------------

TEST(MultiactiveStress, ConcurrentStartsRaceCancellationAndSelect) {
  CompatRig rig(/*read_slots=*/16, /*block_reads=*/false,
                /*block_writes=*/false, /*gated=*/false);
  rig.obj.start();
  constexpr int kThreads = 8, kPerThread = 120;
  std::atomic<std::uint64_t> ok{0}, cancelled{0}, other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int kind = (t * kPerThread + i) % 10;
        if (kind < 6) {  // plain read
          auto o = outcome_of(rig.obj.async_call(rig.read, vals(i)));
          o ? (void)++other : (void)++ok;
        } else if (kind < 8) {  // write (conflicts)
          auto o = outcome_of(rig.obj.async_call(rig.write, vals(i)));
          o ? (void)++other : (void)++ok;
        } else if (kind == 8) {  // racing cancellation
          auto token = std::make_shared<CancelToken>();
          auto h = rig.obj.async_call(rig.read, vals(i),
                                      CallOptions{.cancel = token});
          token->request_cancel();
          auto o = outcome_of(std::move(h));
          if (!o) {
            ++ok;
          } else if (*o == ErrorCode::kCancelled) {
            ++cancelled;
          } else {
            ++other;
          }
        } else {  // tight deadline racing dispatch
          auto o = outcome_of(rig.obj.async_call(
              rig.write, vals(i), CallOptions{.deadline = 1ms}));
          if (!o || *o == ErrorCode::kTimeout) {
            ++ok;
          } else {
            ++other;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_FALSE(rig.overlap_violated.load());
  EXPECT_EQ(other.load(), 0u) << "unexpected typed error under stress";
  EXPECT_EQ(ok.load() + cancelled.load(),
            static_cast<std::uint64_t>(kThreads * kPerThread) - other.load());
  rig.obj.stop();
}

// ---------------------------------------------------------------------------
// Trace / stats cross-check
// ---------------------------------------------------------------------------

TEST(Multiactive, TraceAgreesWithKernelCounters) {
  TraceCollector collector;
  CompatRig rig(/*read_slots=*/8, /*block_reads=*/true, /*block_writes=*/false,
                /*gated=*/false);
  rig.obj.set_tracer(&collector);
  rig.obj.start();

  std::vector<CallHandle> reads;
  for (int i = 0; i < 4; ++i) {
    reads.push_back(rig.obj.async_call(rig.read, vals(i)));
  }
  ASSERT_TRUE(eventually([&] { return rig.reads_active.load() == 4; }));
  auto w = rig.obj.async_call(rig.write, vals(9));
  ASSERT_TRUE(eventually(
      [&] { return stats_of(rig.obj, "Write").ma_conflict_blocks >= 1; }));
  rig.hold_reads.open();
  for (auto& r : reads) r.get();
  w.get();

  const auto read_stats = stats_of(rig.obj, "Read");
  const auto write_stats = stats_of(rig.obj, "Write");
  rig.obj.stop();
  collector.flush_pending();

  const auto read_rep = collector.report("Read");
  const auto write_rep = collector.report("Write");
  // Kernel counters and trace waypoints describe the same history.
  EXPECT_EQ(read_rep.concurrent_starts, read_stats.ma_concurrent_starts);
  EXPECT_EQ(write_rep.deferred, write_stats.ma_conflict_blocks);
  EXPECT_GE(read_rep.concurrent_starts, 3u);
  EXPECT_EQ(write_rep.deferred, 1u);
  // Reconciliation: arrivals == terminals, with deferred/concurrent starts
  // as non-terminal waypoints.
  for (const auto* rep : {&read_rep, &write_rep}) {
    EXPECT_EQ(rep->arrived + rep->unmatched,
              rep->finished + rep->failed + rep->combined +
                  rep->still_pending + rep->abandoned);
  }
}

}  // namespace
}  // namespace alps
