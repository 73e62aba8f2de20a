// The select/loop engine (§2.4): guard eligibility, acceptance conditions on
// received values, run-time priorities, receive guards, when guards, fairness
// and failure modes.
#include "core/select.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/alps.h"

namespace alps {
namespace {

/// Builds a one-entry object whose manager runs `mgr`.
struct Rig {
  Object obj{"Rig"};
  EntryRef e;

  explicit Rig(std::size_t array = 1, std::size_t params = 1,
               std::size_t icept_params = 1) {
    e = obj.define_entry({.name = "E", .params = params, .results = 1});
    obj.implement(e, ImplDecl{.array = array}, [](BodyCtx& ctx) -> ValueList {
      return {ctx.num_params() ? ctx.param(0) : Value(0)};
    });
    clause_ = intercept(e);
    clause_.n_params = icept_params;
  }

  void run(ManagerFn fn) {
    obj.set_manager({clause_}, std::move(fn));
    obj.start();
  }

  InterceptClause clause_;
};

TEST(Select, AcceptanceConditionFiltersOnParams) {
  // Only even values are accepted immediately; odd values wait until the
  // manager flips to a permissive mode. This is the paper's "acceptance
  // condition" evaluated against tentatively received values.
  Rig rig(/*array=*/4);
  std::atomic<bool> permissive{false};
  rig.run([&](Manager& m) {
    Select()
        .on(accept_guard(rig.e)
                .when([&](const ValueList& p) {
                  return permissive.load() || p[0].as_int() % 2 == 0;
                })
                .then([&](Accepted a) { m.execute(a); }))
        .loop(m);
  });

  auto odd = rig.obj.async_call(rig.e, vals(3));
  auto even = rig.obj.async_call(rig.e, vals(4));
  EXPECT_EQ(even.get()[0].as_int(), 4);
  EXPECT_FALSE(odd.wait_for(std::chrono::milliseconds(50)));
  permissive = true;
  rig.obj.notify_external_event();  // re-evaluate guards
  EXPECT_EQ(odd.get()[0].as_int(), 3);
  rig.obj.stop();
}

TEST(Select, PrioritySelectsSmallest) {
  // Several calls pending; pri = the call's own parameter; the manager must
  // serve them in ascending parameter order (shortest-job-first style).
  Rig rig(/*array=*/8);
  std::vector<std::int64_t> order;
  support::Event open;
  rig.run([&](Manager& m) {
    open.wait();
    Select()
        .on(accept_guard(rig.e)
                .pri([](const ValueList& p) { return p[0].as_int(); })
                .cacheable()  // pure in params: exercises the verdict cache
                .then([&](Accepted a) {
                  order.push_back(a.params[0].as_int());
                  m.execute(a);
                }))
        .loop(m);
  });

  std::vector<CallHandle> handles;
  for (int v : {5, 1, 4, 2, 3}) handles.push_back(rig.obj.async_call(rig.e, vals(v)));
  // Wait until all five are attached before the manager starts choosing.
  while (rig.obj.pending(rig.e) < 5) std::this_thread::yield();
  open.set();
  for (auto& h : handles) h.get();
  rig.obj.stop();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

TEST(Select, ReceiveGuardDeliversMessages) {
  Rig rig;
  ChannelRef ctl = make_channel("ctl");
  std::atomic<int> sum{0};
  support::Event got3;
  rig.run([&](Manager& m) {
    Select()
        .on(receive_guard(ctl).then([&](ValueList msg) {
          sum += static_cast<int>(msg[0].as_int());
          if (sum.load() >= 6) got3.set();
        }))
        .on(accept_guard(rig.e).then([&](Accepted a) { m.execute(a); }))
        .loop(m);
  });
  ctl->send(vals(1));
  ctl->send(vals(2));
  ctl->send(vals(3));
  EXPECT_TRUE(got3.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(sum.load(), 6);
  rig.obj.stop();
}

TEST(Select, ReceiveGuardAcceptanceConditionHoldsMessageBack) {
  Rig rig;
  ChannelRef ctl = make_channel("ctl");
  std::atomic<bool> allow{false};
  std::atomic<int> delivered{0};
  support::Event done;
  rig.run([&](Manager& m) {
    Select()
        .on(receive_guard(ctl)
                .when([&](const ValueList&) { return allow.load(); })
                .then([&](ValueList) {
                  ++delivered;
                  done.set();
                }))
        .on(accept_guard(rig.e).then([&](Accepted a) { m.execute(a); }))
        .loop(m);
  });
  ctl->send(vals(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(delivered.load(), 0);  // condition false: message not consumed
  EXPECT_EQ(ctl->size(), 1u);
  allow = true;
  rig.obj.notify_external_event();
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(delivered.load(), 1);
  rig.obj.stop();
}

TEST(Select, WhenGuardFires) {
  Rig rig;
  std::atomic<int> ticks{0};
  support::Event done;
  rig.run([&](Manager& m) {
    bool armed = true;
    Select()
        .on(when_guard([&] { return armed; }).then([&] {
          armed = false;
          ++ticks;
          done.set();
        }))
        .on(accept_guard(rig.e).then([&](Accepted a) { m.execute(a); }))
        .loop(m);
  });
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(ticks.load(), 1);
  rig.obj.stop();
}

TEST(Select, NoEligibleGuardThrows) {
  Rig rig;
  std::atomic<bool> threw{false};
  rig.run([&](Manager& m) {
    try {
      Select().on(when_guard([] { return false; })).select(m);
    } catch (const Error& e) {
      threw = (e.code() == ErrorCode::kNoEligibleGuard);
    }
    // Keep servicing so stop() remains clean.
    while (!m.stop_requested()) m.execute(m.accept(rig.e));
  });
  rig.obj.call(rig.e, vals(0));
  EXPECT_TRUE(threw.load());
  rig.obj.stop();
}

TEST(Select, EmptySelectRejected) {
  Rig rig;
  std::atomic<bool> threw{false};
  rig.run([&](Manager& m) {
    try {
      Select().select(m);
    } catch (const Error& e) {
      threw = (e.code() == ErrorCode::kProtocolViolation);
    }
    while (!m.stop_requested()) m.execute(m.accept(rig.e));
  });
  rig.obj.call(rig.e, vals(0));
  EXPECT_TRUE(threw.load());
  rig.obj.stop();
}

TEST(Select, AwaitGuardSeparatesStartFromFinish) {
  // Start everything immediately; finish via await guards. With an array of
  // 4, at least some calls overlap.
  Rig rig(/*array=*/4);
  std::atomic<int> finishes{0};
  rig.run([&](Manager& m) {
    Select()
        .on(accept_guard(rig.e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(rig.e).then([&](Awaited w) {
          ++finishes;
          m.finish(w);
        }))
        .loop(m);
  });
  std::vector<CallHandle> handles;
  for (int i = 0; i < 12; ++i) handles.push_back(rig.obj.async_call(rig.e, vals(i)));
  for (auto& h : handles) h.get();
  EXPECT_EQ(finishes.load(), 12);
  rig.obj.stop();
}

TEST(Select, AwaitGuardWhenConditionSeesResults) {
  // The await guard's acceptance condition filters on the body's results:
  // results >= 10 are finished by the first guard, others by the second.
  Rig rig(/*array=*/4);
  std::atomic<int> big{0}, small{0};
  rig.run([&](Manager& m) {
    Select()
        .on(accept_guard(rig.e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(rig.e)
                .when([](const ValueList& r) { return r[0].as_int() >= 10; })
                .then([&](Awaited w) {
                  ++big;
                  m.finish(w);
                }))
        .on(await_guard(rig.e).then([&](Awaited w) {
          ++small;
          m.finish(w);
        }))
        .loop(m);
  });
  // Intercept results so the guard can see them.
  // (Rig intercepts params only; rebuild with result interception.)
  rig.obj.stop();

  Object obj("Rig2");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  obj.implement(e, ImplDecl{.array = 4},
                [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  big = small = 0;
  obj.set_manager({intercept(e).params(1).results(1)}, [&](Manager& m) {
    Select()
        .on(accept_guard(e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(e)
                .when([](const ValueList& r) { return r[0].as_int() >= 10; })
                .cacheable()  // pure in the body's results
                .then([&](Awaited w) {
                  ++big;
                  m.finish(w);
                }))
        // Guards must be mutually exclusive: with overlapping conditions the
        // selection between eligible guards is nondeterministic (CSP).
        .on(await_guard(e)
                .when([](const ValueList& r) { return r[0].as_int() < 10; })
                .cacheable()
                .then([&](Awaited w) {
                  ++small;
                  m.finish(w);
                }))
        .loop(m);
  });
  obj.start();
  std::vector<CallHandle> handles;
  for (int v : {1, 15, 3, 20, 5}) handles.push_back(obj.async_call(e, vals(v)));
  for (auto& h : handles) h.get();
  EXPECT_EQ(big.load(), 2);
  EXPECT_EQ(small.load(), 3);
  obj.stop();
}

TEST(Select, FairnessAcrossEqualPriorityGuards) {
  // Two entries, both always eligible; over many rounds both are served.
  Object obj("Fair");
  auto a = obj.define_entry({.name = "A", .params = 0, .results = 0});
  auto b = obj.define_entry({.name = "B", .params = 0, .results = 0});
  obj.implement(a, ImplDecl{.array = 8}, [](BodyCtx&) -> ValueList { return {}; });
  obj.implement(b, ImplDecl{.array = 8}, [](BodyCtx&) -> ValueList { return {}; });
  std::atomic<int> served_a{0}, served_b{0};
  obj.set_manager({intercept(a), intercept(b)}, [&](Manager& m) {
    Select()
        .on(accept_guard(a).then([&](Accepted acc) {
          ++served_a;
          m.execute(acc);
        }))
        .on(accept_guard(b).then([&](Accepted acc) {
          ++served_b;
          m.execute(acc);
        }))
        .loop(m);
  });
  obj.start();
  std::vector<CallHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(obj.async_call(a, {}));
    handles.push_back(obj.async_call(b, {}));
  }
  for (auto& h : handles) h.get();
  EXPECT_EQ(served_a.load(), 40);
  EXPECT_EQ(served_b.load(), 40);
  obj.stop();
}

TEST(Select, RotationRoundRobinsContinuouslyEligibleGuards) {
  // Regression for the priority-index rewrite: two permanently eligible
  // equal-pri guards must alternate strictly. In the index, a continuously
  // eligible candidate keeps its (pri, seq) key, and a fired one re-enters
  // with a fresh seq — so it queues behind its equal-pri peer and the pair
  // round-robins, exactly like the old rotation counter.
  Rig rig;
  constexpr int kFires = 100;
  std::vector<int> order;
  support::Event done;
  rig.run([&](Manager& m) {
    Select sel;
    sel.on(when_guard([&] { return order.size() < static_cast<std::size_t>(kFires); }).then([&] {
      order.push_back(0);
    }));
    sel.on(when_guard([&] { return order.size() < static_cast<std::size_t>(kFires); }).then([&] {
      order.push_back(1);
    }));
    for (int i = 0; i < kFires; ++i) sel.select(m);
    done.set();
  });
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(10)));
  rig.obj.stop();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFires));
  int served[2] = {0, 0};
  for (int i = 0; i < kFires; ++i) {
    ++served[order[static_cast<std::size_t>(i)]];
    if (i > 0) {
      EXPECT_NE(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(i - 1)])
          << "equal-pri guards must alternate (position " << i << ")";
    }
  }
  EXPECT_EQ(served[0], kFires / 2);
  EXPECT_EQ(served[1], kFires / 2);
}

TEST(Select, DeltaReplaySurvivesManagerSideAcceptBetweenSelects) {
  // Regression: with array=1 every call reuses slot 0, and a manager-side
  // accept/execute between two selections puts an add/remove/add window —
  // all for slot 0, all evaluated against the slot's CURRENT call — into
  // the journal the second selection replays. The replayed removal must
  // retire only the index entry, not the cached eligible verdict; clearing
  // both made the re-add hit the cache fast path with eligible=false,
  // leaving the attached call invisible to select forever (a hang here,
  // absent an unrelated notify_external_event).
  Rig rig(/*array=*/1);
  std::vector<std::int64_t> order;
  support::Event open, done;
  rig.run([&](Manager& m) {
    open.wait();
    Select sel;
    sel.on(accept_guard(rig.e)
               .when([](const ValueList& p) { return p[0].as_int() > 0; })
               .cacheable()
               .then([&](Accepted a) {
                 order.push_back(a.params[0].as_int());
                 m.execute(a);
               }));
    sel.select(m);  // fires call 1; primes the guard's journal position
    // Call 2 attached to slot 0 when call 1 finished; consume it behind
    // the selector's back (journal: add). Its completion re-attaches call
    // 3 to slot 0 (journal: add, remove, add — all slot 0).
    Accepted b = m.accept(rig.e);
    order.push_back(b.params[0].as_int());
    m.execute(b);
    sel.select(m);  // must replay the window and still fire call 3
    done.set();
  });
  auto h1 = rig.obj.async_call(rig.e, vals(1));
  auto h2 = rig.obj.async_call(rig.e, vals(2));
  auto h3 = rig.obj.async_call(rig.e, vals(3));
  while (rig.obj.pending(rig.e) < 3) std::this_thread::yield();
  open.set();
  ASSERT_TRUE(done.wait_for(std::chrono::seconds(10)))
      << "second select starved: replayed removal clobbered the cache";
  h1.get();
  h2.get();
  h3.get();
  rig.obj.stop();
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(Select, UnannotatedGuardsReevaluateManagerLocalState) {
  // `when` closures that read manager-local state (the `count < N` pattern)
  // must see it change between passes with no annotation and no
  // notify_external_event: only guards marked cacheable() may be served a
  // cached verdict. Each waiting call below was evaluated false once, and
  // its guard turns true only through the other guard's `then`.
  Object obj("Gate");
  auto put = obj.define_entry({.name = "Put", .params = 0, .results = 0});
  auto take = obj.define_entry({.name = "Take", .params = 0, .results = 0});
  obj.implement(put, [](BodyCtx&) -> ValueList { return {}; });
  obj.implement(take, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(put), intercept(take)}, [&](Manager& m) {
    int count = 0;
    Select()
        .on(accept_guard(put)
                .when([&](const ValueList&) { return count < 1; })
                .then([&](Accepted a) {
                  ++count;
                  m.execute(a);
                }))
        .on(accept_guard(take)
                .when([&](const ValueList&) { return count > 0; })
                .then([&](Accepted a) {
                  --count;
                  m.execute(a);
                }))
        .loop(m);
  });
  obj.start();
  auto first_take = obj.async_call(take, {});
  EXPECT_FALSE(first_take.wait_for(std::chrono::milliseconds(30)));
  obj.call(put, {});
  ASSERT_TRUE(first_take.wait_for(std::chrono::seconds(10)))
      << "take's guard kept a stale verdict after count changed";

  obj.call(put, {});
  auto second_put = obj.async_call(put, {});
  EXPECT_FALSE(second_put.wait_for(std::chrono::milliseconds(30)));
  obj.call(take, {});
  ASSERT_TRUE(second_put.wait_for(std::chrono::seconds(10)))
      << "put's guard kept a stale verdict after count changed";
  obj.stop();
}

TEST(Select, NaivePollingModeStillCorrect) {
  // E9's strawman must give the same answers, just slower.
  Object obj("Naive");
  auto e = obj.define_entry({.name = "E", .params = 1, .results = 1});
  obj.implement(e, ImplDecl{.array = 64},
                [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  obj.set_manager({intercept(e).params(1)}, [&](Manager& m) {
    Select()
        .use_naive_polling(true)
        .on(accept_guard(e).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(e).then([&](Awaited w) { m.finish(w); }))
        .loop(m);
  });
  obj.start();
  std::vector<CallHandle> handles;
  for (int i = 0; i < 32; ++i) handles.push_back(obj.async_call(e, vals(i)));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(handles[static_cast<size_t>(i)].get()[0].as_int(), i);
  }
  obj.stop();
}

TEST(Select, MixedChannelAndCallTraffic) {
  // A manager multiplexing RPC-ish entry calls and channel control messages,
  // the combination §1 motivates (RPC + point-to-point messages).
  Object obj("Mixed");
  auto e = obj.define_entry({.name = "Get", .params = 0, .results = 1});
  std::atomic<int> mode{0};
  obj.implement(e, [&](BodyCtx&) -> ValueList { return {Value(mode.load())}; });
  ChannelRef ctl = make_channel();
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    Select()
        .on(receive_guard(ctl).then(
            [&](ValueList msg) { mode = static_cast<int>(msg[0].as_int()); }))
        .on(accept_guard(e).then([&](Accepted a) { m.execute(a); }))
        .loop(m);
  });
  obj.start();
  EXPECT_EQ(obj.call(e, {})[0].as_int(), 0);
  ctl->send(vals(7));
  // The control message may race the next call; poll until visible.
  for (int tries = 0; tries < 100; ++tries) {
    if (obj.call(e, {})[0].as_int() == 7) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(obj.call(e, {})[0].as_int(), 7);
  obj.stop();
}

}  // namespace
}  // namespace alps
