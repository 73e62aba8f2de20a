// End-to-end kernel tests: object lifecycle, manager primitives, hidden
// procedure arrays, intercepted parameters/results, hidden params/results,
// combining, #P, and error paths. The first test is the paper's own §2.4.1
// bounded buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/alps.h"

namespace alps {
namespace {

// ---------------------------------------------------------------------------
// §2.4.1 bounded buffer: Deposit/Remove serialized by a manager that accepts
// Deposit only when not full and Remove only when not empty, executing each
// in exclusion.
// ---------------------------------------------------------------------------
class BoundedBuffer {
 public:
  explicit BoundedBuffer(std::size_t capacity)
      : obj_("Buffer"), capacity_(capacity) {
    deposit_ = obj_.define_entry({.name = "Deposit", .params = 1, .results = 0});
    remove_ = obj_.define_entry({.name = "Remove", .params = 0, .results = 1});

    obj_.implement(deposit_, [this](BodyCtx& ctx) -> ValueList {
      buf_[inptr_] = ctx.param(0);
      inptr_ = (inptr_ + 1) % capacity_;
      return {};
    });
    obj_.implement(remove_, [this](BodyCtx&) -> ValueList {
      Value m = buf_[outptr_];
      outptr_ = (outptr_ + 1) % capacity_;
      return {m};
    });

    obj_.set_manager({intercept(deposit_), intercept(remove_)},
                     [this](Manager& m) {
                       int count = 0;
                       Select()
                           .on(accept_guard(deposit_)
                                   .when([&](const ValueList&) {
                                     return count < static_cast<int>(capacity_);
                                   })
                                   .then([&](Accepted a) {
                                     m.execute(a);
                                     ++count;
                                   }))
                           .on(accept_guard(remove_)
                                   .when([&](const ValueList&) { return count > 0; })
                                   .then([&](Accepted a) {
                                     m.execute(a);
                                     --count;
                                   }))
                           .loop(m);
                     });
    buf_.resize(capacity_);
    obj_.start();
  }

  void deposit(Value v) { obj_.call(deposit_, {std::move(v)}); }
  Value remove() { return obj_.call(remove_, {})[0]; }
  Object& object() { return obj_; }
  EntryRef deposit_entry() const { return deposit_; }

 private:
  Object obj_;
  std::size_t capacity_;
  EntryRef deposit_, remove_;
  std::vector<Value> buf_;
  std::size_t inptr_ = 0, outptr_ = 0;
};

TEST(BoundedBuffer, SingleProducerConsumerFifo) {
  BoundedBuffer buffer(4);
  for (int i = 0; i < 10; ++i) {
    buffer.deposit(Value(i));
    EXPECT_EQ(buffer.remove().as_int(), i);
  }
}

TEST(BoundedBuffer, FifoOrderThroughManager) {
  BoundedBuffer buffer(4);
  std::vector<int> received;
  std::jthread producer([&] {
    for (int i = 0; i < 100; ++i) buffer.deposit(Value(i));
  });
  for (int i = 0; i < 100; ++i) {
    received.push_back(static_cast<int>(buffer.remove().as_int()));
  }
  producer.join();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(BoundedBuffer, BlocksDepositWhenFull) {
  BoundedBuffer buffer(2);
  buffer.deposit(Value(1));
  buffer.deposit(Value(2));
  auto handle = buffer.object().async_call(buffer.deposit_entry(), {Value(3)});
  // The third deposit must not complete while the buffer is full.
  EXPECT_FALSE(handle.wait_for(std::chrono::milliseconds(50)));
  EXPECT_EQ(buffer.remove().as_int(), 1);
  handle.wait();
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(buffer.remove().as_int(), 2);
  EXPECT_EQ(buffer.remove().as_int(), 3);
}

TEST(BoundedBuffer, NoLostOrDuplicatedMessagesUnderConcurrency) {
  BoundedBuffer buffer(8);
  constexpr int kPerProducer = 50;
  constexpr int kProducers = 4;
  std::mutex mu;
  std::multiset<int> received;

  std::vector<std::jthread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        buffer.deposit(Value(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer * kProducers / 2; ++i) {
        int v = static_cast<int>(buffer.remove().as_int());
        std::scoped_lock lock(mu);
        received.insert(v);
      }
    });
  }
  threads.clear();  // join

  EXPECT_EQ(received.size(), static_cast<size_t>(kPerProducer * kProducers));
  for (int v = 0; v < kPerProducer * kProducers; ++v) {
    EXPECT_EQ(received.count(v), 1u) << "value " << v;
  }
}

// ---------------------------------------------------------------------------
// Object lifecycle and error paths
// ---------------------------------------------------------------------------

TEST(Object, UnmanagedEntryRunsImplicitly) {
  Object obj("Plain");
  auto add = obj.define_entry({.name = "Add", .params = 2, .results = 1});
  obj.implement(add, [](BodyCtx& ctx) -> ValueList {
    return {Value(ctx.param(0).as_int() + ctx.param(1).as_int())};
  });
  obj.start();
  EXPECT_EQ(obj.call(add, vals(2, 3))[0].as_int(), 5);
  obj.stop();
}

TEST(Object, CallBeforeStartThrows) {
  Object obj("NotStarted");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  EXPECT_THROW(obj.call(e, {}), Error);
}

TEST(Object, DefineAfterStartThrows) {
  Object obj("Frozen");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  obj.start();
  EXPECT_THROW(obj.define_entry({.name = "F"}), Error);
  obj.stop();
}

TEST(Object, UnimplementedEntryFailsStart) {
  Object obj("Hole");
  obj.define_entry({.name = "E", .params = 0, .results = 0});
  EXPECT_THROW(obj.start(), Error);
}

TEST(Object, ArityMismatchFailsCall) {
  Object obj("Arity");
  auto e = obj.define_entry({.name = "E", .params = 2, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  obj.start();
  auto handle = obj.async_call(e, vals(1));
  EXPECT_THROW(handle.get(), Error);
  obj.stop();
}

TEST(Object, LocalEntryRejectsExternalCalls) {
  Object obj("Hidden");
  auto local = obj.define_entry(
      {.name = "Helper", .params = 0, .results = 0, .exported = false});
  obj.implement(local, [](BodyCtx&) -> ValueList { return {}; });
  obj.start();
  try {
    obj.call(local, {});
    FAIL() << "expected kNotExported";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotExported);
  }
  obj.stop();
}

TEST(Object, BodyExceptionPropagatesToCaller) {
  Object obj("Thrower");
  auto e = obj.define_entry({.name = "Boom", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList {
    throw std::runtime_error("kaboom");
  });
  obj.start();
  EXPECT_THROW(obj.call(e, {}), std::runtime_error);
  obj.stop();
}

TEST(Object, BodyWrongResultArityReportsError) {
  Object obj("BadBody");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 2});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {Value(1)}; });
  obj.start();
  try {
    obj.call(e, {});
    FAIL() << "expected kArityMismatch";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kArityMismatch);
  }
  obj.stop();
}

TEST(Object, StopFailsPendingCalls) {
  Object obj("Stopper");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  // Manager that never accepts: all calls stay pending.
  obj.set_manager({intercept(e)}, [](Manager& m) {
    Select().on(when_guard([] { return false; })).loop(m);
  });
  obj.start();
  auto h1 = obj.async_call(e, {});
  auto h2 = obj.async_call(e, {});
  obj.stop();
  EXPECT_THROW(h1.get(), Error);
  EXPECT_THROW(h2.get(), Error);
}

TEST(Object, CallAfterStopFailsFast) {
  Object obj("Stopped");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  obj.start();
  obj.stop();
  auto handle = obj.async_call(e, {});
  EXPECT_TRUE(handle.ready());
  EXPECT_THROW(handle.get(), Error);
}

TEST(Object, StopIsIdempotentAndDestructorSafe) {
  Object obj("Twice");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  obj.start();
  obj.stop();
  obj.stop();
}

TEST(Object, HiddenWithoutInterceptionFailsStart) {
  Object obj("BadHidden");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, ImplDecl{.array = 1, .hidden_params = 1},
                [](BodyCtx&) -> ValueList { return {}; });
  EXPECT_THROW(obj.start(), Error);
}

// ---------------------------------------------------------------------------
// Manager primitive sequencing
// ---------------------------------------------------------------------------

TEST(Manager, AcceptStartAwaitFinishLifecycle) {
  Object obj("Lifecycle");
  auto e = obj.define_entry({.name = "Work", .params = 1, .results = 1});
  obj.implement(e, [](BodyCtx& ctx) -> ValueList {
    return {Value(ctx.param(0).as_int() * 2)};
  });
  std::atomic<int> phases{0};
  obj.set_manager(
      {intercept(e).params(1).results(1)}, [&](Manager& m) {
        while (!m.stop_requested()) {
          Accepted a = m.accept(e);
          ++phases;
          m.start(a);
          Awaited w = m.await(a);
          ++phases;
          EXPECT_FALSE(w.failed);
          m.finish(w);
        }
      });
  obj.start();
  EXPECT_EQ(obj.call(e, vals(21))[0].as_int(), 42);
  EXPECT_EQ(phases.load(), 2);
  obj.stop();
}

TEST(Manager, InterceptedParamsVisibleAtAccept) {
  Object obj("Peek");
  auto e = obj.define_entry({.name = "E", .params = 2, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  ValueList seen;
  obj.set_manager({intercept(e).params(1)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      seen = a.params;
      m.execute(a);
    }
  });
  obj.start();
  obj.call(e, vals("key", "payload"));
  ASSERT_EQ(seen.size(), 1u);  // only the intercepted prefix
  EXPECT_EQ(seen[0].as_string(), "key");
  obj.stop();
}

TEST(Manager, ManagerCanTransformInterceptedParams) {
  Object obj("Rewrite");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  obj.implement(e, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  obj.set_manager({intercept(e).params(1)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.start_with(a, vals("rewritten"));
      Awaited w = m.await(a);
      m.finish(w);
    }
  });
  obj.start();
  EXPECT_EQ(obj.call(e, vals("original"))[0].as_string(), "rewritten");
  obj.stop();
}

TEST(Manager, ManagerCanTransformInterceptedResults) {
  Object obj("Monitor");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 2});
  obj.implement(e, [](BodyCtx&) -> ValueList {
    return {Value("body1"), Value("body2")};
  });
  obj.set_manager({intercept(e).results(1)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.start(a);
      Awaited w = m.await(a);
      ASSERT_EQ(w.results.size(), 1u);
      EXPECT_EQ(w.results[0].as_string(), "body1");
      m.finish_with(w, vals("managed"));
    }
  });
  obj.start();
  ValueList out = obj.call(e, {});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].as_string(), "managed");  // manager-substituted prefix
  EXPECT_EQ(out[1].as_string(), "body2");    // body-supplied remainder
  obj.stop();
}

TEST(Manager, HiddenParamsAndResults) {
  // §2.8: manager supplies a hidden slot index at start; body returns it as
  // a hidden result the caller never sees.
  Object obj("HiddenPR");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  obj.implement(e, ImplDecl{.array = 1, .hidden_params = 1, .hidden_results = 1},
                [](BodyCtx& ctx) -> ValueList {
                  // params: [visible, hiddenPlace]; results: [visible, hidden]
                  const std::int64_t place = ctx.param(1).as_int();
                  return {Value(ctx.param(0).as_int() + place), Value(place)};
                });
  std::int64_t hidden_back = -1;
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.start(a, vals(100));  // hidden param
      Awaited w = m.await(a);
      ASSERT_EQ(w.results.size(), 1u);  // zero intercepted + one hidden
      hidden_back = w.results[0].as_int();
      m.finish(w);
    }
  });
  obj.start();
  ValueList out = obj.call(e, vals(7));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].as_int(), 107);  // body saw the hidden param
  EXPECT_EQ(hidden_back, 100);      // manager got the hidden result back
  obj.stop();
}

TEST(Manager, CombiningFinishWithoutStart) {
  // §2.7: the manager answers the call itself; the body never runs.
  Object obj("Combine");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  std::atomic<int> body_runs{0};
  obj.implement(e, [&](BodyCtx&) -> ValueList {
    ++body_runs;
    return {Value(0)};
  });
  obj.set_manager({intercept(e).params(1).results(1)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.combine_finish(a, vals(a.params[0].as_int() * 10));
    }
  });
  obj.start();
  EXPECT_EQ(obj.call(e, vals(4))[0].as_int(), 40);
  EXPECT_EQ(body_runs.load(), 0);
  obj.stop();
}

TEST(Manager, CombineRequiresFullParamInterception) {
  Object obj("BadCombine");
  auto e = obj.define_entry({.name = "E", .params = 2, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  std::atomic<bool> violated{false};
  obj.set_manager({intercept(e).params(1)}, [&](Manager& m) {
    Accepted a = m.accept(e);
    try {
      m.combine_finish(a, {});
    } catch (const Error& err) {
      violated = (err.code() == ErrorCode::kProtocolViolation);
      m.execute(a);  // recover so the caller completes
    }
    while (!m.stop_requested()) m.execute(m.accept(e));
  });
  obj.start();
  obj.call(e, vals(1, 2));
  EXPECT_TRUE(violated.load());
  obj.stop();
}

TEST(Manager, FailRejectsCall) {
  Object obj("Reject");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 1});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {Value(1)}; });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.fail(a, "admission denied");
    }
  });
  obj.start();
  try {
    obj.call(e, {});
    FAIL() << "expected kBodyFailed";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kBodyFailed);
  }
  obj.stop();
}

TEST(Manager, BodyErrorSurfacesAtAwaitAndPropagates) {
  Object obj("AwaitErr");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList {
    throw std::runtime_error("body exploded");
  });
  std::atomic<bool> saw_failed{false};
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.start(a);
      Awaited w = m.await(a);
      saw_failed = w.failed;
      m.finish(w);
    }
  });
  obj.start();
  EXPECT_THROW(obj.call(e, {}), std::runtime_error);
  EXPECT_TRUE(saw_failed.load());
  obj.stop();
}

TEST(Manager, PrimitivesOffManagerThreadRejected) {
  Object obj("WrongThread");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, [](BodyCtx&) -> ValueList { return {}; });
  support::Event entered;
  Manager* leaked = nullptr;
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    leaked = &m;
    entered.set();
    while (!m.stop_requested()) m.execute(m.accept(e));
  });
  obj.start();
  entered.wait();
  EXPECT_THROW(leaked->accept(e), Error);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Hidden procedure arrays (§2.5)
// ---------------------------------------------------------------------------

TEST(HiddenArray, CallsAttachToDistinctSlots) {
  Object obj("Array");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 1});
  obj.implement(e, ImplDecl{.array = 4}, [](BodyCtx& ctx) -> ValueList {
    return {Value(static_cast<std::int64_t>(ctx.slot()))};
  });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    Select()
        .on(accept_guard(e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(e).then([&](Awaited w) { m.finish(w); }))
        .loop(m);
  });
  obj.start();

  // Hold 4 concurrent calls open via a gate channel... simpler: fire many
  // concurrent calls and check that multiple distinct slots were used.
  std::vector<CallHandle> handles;
  for (int i = 0; i < 16; ++i) handles.push_back(obj.async_call(e, {}));
  std::set<std::int64_t> slots;
  for (auto& h : handles) slots.insert(h.get()[0].as_int());
  EXPECT_GE(slots.size(), 1u);
  for (auto s : slots) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
  obj.stop();
}

TEST(HiddenArray, OverflowQueuedRequestsEventuallyServed) {
  Object obj("Overflow");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  obj.implement(e, ImplDecl{.array = 2}, [](BodyCtx& ctx) -> ValueList {
    return {ctx.param(0)};
  });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    Select()
        .on(accept_guard(e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(e).then([&](Awaited w) { m.finish(w); }))
        .loop(m);
  });
  obj.start();
  std::vector<CallHandle> handles;
  for (int i = 0; i < 20; ++i) handles.push_back(obj.async_call(e, vals(i)));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(handles[static_cast<size_t>(i)].get()[0].as_int(), i);
  }
  obj.stop();
}

TEST(HiddenArray, PendingCountIncludesAttachedAndQueued) {
  Object obj("Pending");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  obj.implement(e, ImplDecl{.array = 2}, [](BodyCtx&) -> ValueList {
    return {};
  });
  support::Event release;
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    release.wait();
    while (!m.stop_requested()) m.execute(m.accept(e));
  });
  obj.start();
  std::vector<CallHandle> handles;
  for (int i = 0; i < 5; ++i) handles.push_back(obj.async_call(e, {}));
  // 2 attached to slots + 3 overflow = 5 pending (#P semantics, §2.5.1).
  EXPECT_EQ(obj.pending(e), 5u);
  release.set();
  for (auto& h : handles) h.get();
  EXPECT_EQ(obj.pending(e), 0u);
  obj.stop();
}

// ---------------------------------------------------------------------------
// Sibling / local-procedure calls (§2.3)
// ---------------------------------------------------------------------------

TEST(Object, BodyCanCallInterceptedLocalProcedure) {
  // P and Q both call local procedure R; the manager serializes R, thereby
  // controlling P and Q even after starting them.
  Object obj("LocalR", ObjectOptions{.model = sched::ProcessModel::kDynamic});
  auto p = obj.define_entry({.name = "P", .params = 0, .results = 1});
  auto r = obj.define_entry(
      {.name = "R", .params = 0, .results = 1, .exported = false});
  std::atomic<int> r_active{0};
  std::atomic<int> r_max{0};
  obj.implement(p, [&, r](BodyCtx& ctx) -> ValueList {
    return {ctx.call_sibling(r, {}).get()[0]};
  });
  obj.implement(r, [&](BodyCtx&) -> ValueList {
    int now = ++r_active;
    int prev = r_max.load();
    while (now > prev && !r_max.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    --r_active;
    return {Value(1)};
  });
  obj.set_manager({intercept(r)}, [&](Manager& m) {
    // Serialize R: execute each call to completion before the next.
    while (!m.stop_requested()) m.execute(m.accept(r));
  });
  obj.start();
  std::vector<CallHandle> handles;
  for (int i = 0; i < 6; ++i) handles.push_back(obj.async_call(p, {}));
  for (auto& h : handles) h.get();
  EXPECT_EQ(r_max.load(), 1) << "manager must serialize the local procedure";
  obj.stop();
}

// ---------------------------------------------------------------------------
// execute runs its body on the manager thread unless the call's string and
// blob parameters reach kZeroCopySliceThreshold bytes; those still go to a
// pool worker, so a large payload never lands in the manager thread's
// allocator arena.
// ---------------------------------------------------------------------------
TEST(Manager, ExecuteRunsSmallCallsInlineAndLargePayloadsOnThePool) {
  for (auto model : {sched::ProcessModel::kSlotBound,
                     sched::ProcessModel::kPooled,
                     sched::ProcessModel::kDynamic}) {
    Object obj("Where", ObjectOptions{.model = model});
    auto e = obj.define_entry({.name = "E", .params = 2, .results = 1});
    std::atomic<std::thread::id> manager_id{};
    obj.implement(e, [&](BodyCtx&) -> ValueList {
      return {Value(std::this_thread::get_id() == manager_id.load())};
    });
    obj.set_manager({intercept(e)}, [&](Manager& m) {
      manager_id = std::this_thread::get_id();
      for (;;) m.execute(m.accept(e));
    });
    obj.start();
    auto on_manager = [&](Value a, Value b) {
      return obj.call(e, {std::move(a), std::move(b)})[0].as_bool();
    };
    const std::size_t n = kZeroCopySliceThreshold;
    EXPECT_TRUE(on_manager(Value(1), Value(2)));
    EXPECT_TRUE(on_manager(Value(std::string(n - 1, 's')), Value(3)));
    // Payload bytes add up across parameters and nested lists.
    EXPECT_FALSE(on_manager(Value(std::string(n / 2, 's')),
                            Value(Blob(n - n / 2, 0xab))));
    EXPECT_FALSE(on_manager(Value(1), Value(ValueList{Value(Blob(n, 1))})));
    EXPECT_FALSE(on_manager(Value(std::string(n, 's')), Value(nullptr)));
    EXPECT_TRUE(on_manager(Value(2), Value(1)));
    const EntryStats st = obj.stats().entries[0];
    EXPECT_EQ(st.starts, 6u);
    EXPECT_EQ(st.finishes, 6u);
    obj.stop();
  }
}

// ---------------------------------------------------------------------------
// An entry declared ImplDecl::inline_start has start run its body on the
// manager thread, leaving the slot Ready for await; everything else about
// the protocol is that of a pooled start. Undeclared entries keep the
// paper's asynchronous start.
// ---------------------------------------------------------------------------
TEST(InlineStart, DeclaredBodyRunsOnTheManagerThreadOthersOnThePool) {
  for (auto model : {sched::ProcessModel::kSlotBound,
                     sched::ProcessModel::kPooled,
                     sched::ProcessModel::kDynamic}) {
    Object obj("InlineWhere", ObjectOptions{.model = model});
    auto in = obj.define_entry({.name = "In", .params = 0, .results = 1});
    auto out = obj.define_entry({.name = "Out", .params = 0, .results = 1});
    std::atomic<std::thread::id> manager_id{};
    auto body = [&](BodyCtx&) -> ValueList {
      return {Value(std::this_thread::get_id() == manager_id.load())};
    };
    obj.implement(in, ImplDecl{.array = 2, .inline_start = true}, body);
    obj.implement(out, ImplDecl{.array = 2}, body);
    std::atomic<bool> ready_after_start{false};
    obj.set_manager({intercept(in), intercept(out)}, [&](Manager& m) {
      manager_id = std::this_thread::get_id();
      Accepted a = m.accept(in);
      m.start(a);
      // The body already ran: await finds the slot Ready without waiting.
      std::optional<Awaited> w = m.try_await(in);
      ready_after_start = w.has_value();
      if (w) m.finish(*w);
      Select()
          .on(accept_guard(in).then([&](Accepted x) { m.start(x); }))
          .on(accept_guard(out).then([&](Accepted x) { m.start(x); }))
          .on(await_guard(in).then([&](Awaited w) { m.finish(w); }))
          .on(await_guard(out).then([&](Awaited w) { m.finish(w); }))
          .loop(m);
    });
    obj.start();
    EXPECT_TRUE(obj.call(in, {})[0].as_bool());
    EXPECT_TRUE(ready_after_start.load());
    EXPECT_TRUE(obj.call(in, {})[0].as_bool());
    EXPECT_FALSE(obj.call(out, {})[0].as_bool());
    const ObjectStats st = obj.stats();
    EXPECT_EQ(st.entries[0].starts, 2u);
    EXPECT_EQ(st.entries[0].finishes, 2u);
    EXPECT_EQ(st.entries[1].starts, 1u);
    obj.stop();
  }
}

TEST(InlineStart, BodyExceptionSurfacesAsAwaitedFailed) {
  Object obj("InlineErr");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  std::atomic<std::thread::id> manager_id{};
  std::atomic<bool> on_manager{false};
  obj.implement(e, ImplDecl{.inline_start = true}, [&](BodyCtx&) -> ValueList {
    on_manager = std::this_thread::get_id() == manager_id.load();
    throw std::runtime_error("inline body exploded");
  });
  std::atomic<bool> saw_failed{false};
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    manager_id = std::this_thread::get_id();
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.start(a);
      Awaited w = m.await(a);
      saw_failed = w.failed && w.error != nullptr;
      m.finish(w);
    }
  });
  obj.start();
  EXPECT_THROW(obj.call(e, {}), std::runtime_error);
  EXPECT_TRUE(saw_failed.load());
  EXPECT_TRUE(on_manager.load());
  // The manager survived the body's exception and serves the next call.
  EXPECT_THROW(obj.call(e, {}), std::runtime_error);
  EXPECT_EQ(obj.manager_error(), nullptr);
  obj.stop();
}

TEST(InlineStart, HiddenParamsAndResultsRoundTripThroughStartWith) {
  Object obj("InlineHidden");
  auto e = obj.define_entry({.name = "E", .params = 2, .results = 2});
  std::atomic<std::thread::id> manager_id{};
  obj.implement(
      e, ImplDecl{.hidden_params = 1, .hidden_results = 1,
                  .inline_start = true},
      [&](BodyCtx& ctx) -> ValueList {
        // params: [substituted prefix, caller's tail, hidden]
        const std::int64_t hidden = ctx.param(2).as_int();
        const bool on_manager = std::this_thread::get_id() == manager_id.load();
        return {Value(ctx.param(0).as_int() + hidden),
                Value(ctx.param(1).as_int()), Value(on_manager)};
      });
  std::vector<ValueList> awaited;
  obj.set_manager({intercept(e).params(1).results(1)}, [&](Manager& m) {
    manager_id = std::this_thread::get_id();
    while (!m.stop_requested()) {
      Accepted a = m.accept(e);
      m.start_with(a, vals(a.params[0].as_int() * 10), vals(100));
      Awaited w = m.await(a);
      awaited.push_back(w.results);  // [intercepted result, hidden result]
      m.finish(w);
    }
  });
  obj.start();
  ValueList out = obj.call(e, vals(7, 8));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].as_int(), 170);  // 7*10 from start_with + hidden 100
  EXPECT_EQ(out[1].as_int(), 8);    // the caller's tail, untouched
  obj.stop();
  ASSERT_EQ(awaited.size(), 1u);
  ASSERT_EQ(awaited[0].size(), 2u);
  EXPECT_EQ(awaited[0][0].as_int(), 170);
  EXPECT_TRUE(awaited[0][1].as_bool()) << "the body ran on the manager";
}

TEST(InlineStart, CallAbandonedBetweenAcceptAndStartNeverRunsItsBody) {
  Object obj("InlineAbandon");
  auto e = obj.define_entry({.name = "E", .params = 0, .results = 0});
  std::atomic<int> body_runs{0};
  obj.implement(e, ImplDecl{.inline_start = true}, [&](BodyCtx&) -> ValueList {
    ++body_runs;
    return {};
  });
  std::atomic<bool> accepted{false}, cancelled{false}, saw_abandoned{false};
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    Accepted a = m.accept(e);
    accepted = true;
    while (!cancelled) std::this_thread::yield();
    m.start(a);  // abandoned fast path: no body, slot straight to Ready
    Awaited w = m.await(a);
    saw_abandoned = w.abandoned;
    m.finish(w);
    while (!m.stop_requested()) m.execute(m.accept(e));
  });
  obj.start();
  auto token = std::make_shared<CancelToken>();
  CallHandle h = obj.async_call(e, {}, CallOptions{.cancel = token});
  while (!accepted) std::this_thread::yield();
  token->request_cancel();
  EXPECT_THROW(h.get(), Error);
  cancelled = true;
  obj.call(e, {});  // served after the abandoned call's finish
  EXPECT_TRUE(saw_abandoned.load());
  EXPECT_EQ(body_runs.load(), 1);
  obj.stop();
}

TEST(InlineStart, ParameterOfThresholdBytesTakesThePool) {
  Object obj("InlineCutoff");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  std::atomic<std::thread::id> manager_id{};
  obj.implement(e, ImplDecl{.inline_start = true}, [&](BodyCtx&) -> ValueList {
    return {Value(std::this_thread::get_id() == manager_id.load())};
  });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    manager_id = std::this_thread::get_id();
    Select()
        .on(accept_guard(e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(e).then([&](Awaited w) { m.finish(w); }))
        .loop(m);
  });
  obj.start();
  const std::size_t n = kZeroCopySliceThreshold;
  EXPECT_TRUE(obj.call(e, {Value(std::string(n - 1, 's'))})[0].as_bool());
  EXPECT_FALSE(obj.call(e, {Value(std::string(n, 's'))})[0].as_bool());
  EXPECT_FALSE(obj.call(e, {Value(Blob(n, 0xab))})[0].as_bool());
  EXPECT_TRUE(obj.call(e, {Value(1)})[0].as_bool());
  obj.stop();
}

}  // namespace
}  // namespace alps
