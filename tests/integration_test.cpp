// Cross-module integration tests:
//  - interpreted (surface-language) objects hosted on simulated-network
//    nodes and called via RPC — language front end + kernel + net together;
//  - the §1 manager↔process message protocol: "each entry procedure ...
//    sends a request message to the manager and awaits a permission message"
//    before entering a critical section — channels + receive guards + the
//    manager controlling bodies *after* starting them;
//  - tracing attached to a paper app under load.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/alps.h"
#include "lang/interp.h"
#include "net/net.h"

namespace alps {
namespace {

TEST(Integration, InterpretedObjectServedOverRpc) {
  lang::Machine machine(R"(
    object Counter defines
      proc Inc returns (int);
    end Counter;
    object Counter implements
      var N: int;
      proc Inc returns (int);
      begin
        N := N + 1;
        return (N);
      end Inc;
      manager intercepts Inc;
      begin
        loop
          accept Inc[i] => execute Inc[i];
        end loop
      end;
    end Counter;
  )");

  net::Network network(net::LinkLatency{std::chrono::microseconds(200), {}});
  net::Node client(network, "client");
  net::Node server(network, "server");
  server.host(machine.object("Counter"));

  auto counter = client.remote(server.id(), "Counter");
  EXPECT_EQ(counter.call("Inc", {}, {}).value()[0].as_int(), 1);
  EXPECT_EQ(counter.call("Inc", {}, {}).value()[0].as_int(), 2);
  EXPECT_EQ(counter.call("Inc", {}, {}).value()[0].as_int(), 3);
}

TEST(Integration, ManagerGrantsCriticalSectionsByMessage) {
  // §1: bodies run concurrently, but before touching the shared resource
  // each sends (slot, replyChannel) to the manager and waits for permission;
  // the manager grants one permission at a time, releasing the next when the
  // holder reports completion. This is scheduling *after* start, without
  // intercepting a local procedure.
  Object obj("Guarded", ObjectOptions{.pool_workers = 8});
  auto work = obj.define_entry({.name = "Work", .params = 0, .results = 0});

  ChannelRef request = make_channel("request");  // body → manager
  ChannelRef done = make_channel("done");        // body → manager
  std::atomic<int> in_critical{0};
  std::atomic<bool> violated{false};

  obj.implement(work, ImplDecl{.array = 8}, [&](BodyCtx&) -> ValueList {
    ChannelRef permission = make_channel();
    request->send(vals(permission));
    permission->receive();  // wait for the manager's grant
    if (++in_critical > 1) violated = true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    --in_critical;
    done->send({});
    return {};
  });

  obj.set_manager({intercept(work)}, [&](Manager& m) {
    bool busy = false;
    std::deque<ChannelRef> waiting;
    Select()
        .on(accept_guard(work).then([&](Accepted a) { m.start(a); }))
        .on(await_guard(work).then([&](Awaited w) { m.finish(w); }))
        .on(receive_guard(request).then([&](ValueList msg) {
          ChannelRef permission = msg[0].as_channel();
          if (busy) {
            waiting.push_back(std::move(permission));
          } else {
            busy = true;
            permission->send({});
          }
        }))
        .on(receive_guard(done).then([&](ValueList) {
          if (waiting.empty()) {
            busy = false;
          } else {
            waiting.front()->send({});
            waiting.pop_front();
          }
        }))
        .loop(m);
  });
  obj.start();

  std::vector<CallHandle> handles;
  for (int i = 0; i < 16; ++i) handles.push_back(obj.async_call(work, {}));
  for (auto& h : handles) h.get();
  EXPECT_FALSE(violated.load()) << "permissions must serialize the critical section";
  obj.stop();
}

TEST(Integration, TracerOnPaperAppDecomposesWait) {
  // Trace the §2.4.1-style buffer under producer burst: accept_wait must
  // reflect the waiting the manager imposed while the buffer was full.
  TraceCollector collector;
  Object obj("TracedBuffer");
  auto deposit = obj.define_entry({.name = "Deposit", .params = 1, .results = 0});
  auto remove = obj.define_entry({.name = "Remove", .params = 0, .results = 1});
  std::deque<Value> data;
  obj.implement(deposit, [&](BodyCtx& ctx) -> ValueList {
    data.push_back(ctx.param(0));
    return {};
  });
  obj.implement(remove, [&](BodyCtx&) -> ValueList {
    Value v = data.front();
    data.pop_front();
    return {v};
  });
  obj.set_manager({intercept(deposit), intercept(remove)}, [&](Manager& m) {
    std::size_t count = 0;
    Select()
        .on(accept_guard(deposit)
                .when([&](const ValueList&) { return count < 2; })
                .then([&](Accepted a) {
                  m.execute(a);
                  ++count;
                }))
        .on(accept_guard(remove)
                .when([&](const ValueList&) { return count > 0; })
                .then([&](Accepted a) {
                  m.execute(a);
                  --count;
                }))
        .loop(m);
  });
  obj.set_tracer(&collector);
  obj.start();

  // Fill the buffer, then let a deposit wait ~20ms before draining.
  obj.call(deposit, vals(1));
  obj.call(deposit, vals(2));
  auto blocked = obj.async_call(deposit, vals(3));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  obj.call(remove, {});
  blocked.wait();
  obj.call(remove, {});
  obj.call(remove, {});
  obj.stop();

  const auto rep = collector.report("Deposit");
  EXPECT_EQ(rep.arrived, 3u);
  EXPECT_EQ(rep.finished, 3u);
  // The blocked deposit waited in Attached state ≥ 15ms; the accept_wait
  // histogram's max must show it.
  EXPECT_GE(rep.accept_wait.max(), 15u * 1000 * 1000);
}

TEST(Integration, ParallelMachinesDoNotInterfere) {
  // Two independent interpreted machines with same-named objects.
  auto src = R"(
    object X implements
      var N: int;
      proc Bump returns (int);
      begin N := N + 1; return (N); end Bump;
    end X;
  )";
  lang::Machine m1(src), m2(src);
  EXPECT_EQ(m1.call("X", "Bump")[0].as_int(), 1);
  EXPECT_EQ(m1.call("X", "Bump")[0].as_int(), 2);
  EXPECT_EQ(m2.call("X", "Bump")[0].as_int(), 1);
}

}  // namespace
}  // namespace alps
