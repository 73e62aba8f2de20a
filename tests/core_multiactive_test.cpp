// Multiactive objects (DESIGN.md §4.8): compatibility-group scheduling for
// intra-object parallelism. Covers the annotation surface (compatible_with /
// serial_group and their validation at start()), the start_compatible /
// start_compatible_pending dispatch paths, deferred-call parking and
// arrival-order drain, gate fairness (no overtaking of an older incompatible
// call), interaction with cancellation / deadlines / restart, serial
// equivalence against the unannotated protocol, and the trace/stats
// cross-check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
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
              m.start_compatible_pending(read);
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
