// Failure-injection tests: frame loss, partitions, RPC deadlines and
// recovery after heal(). The ALPS kernel itself never sees the failures —
// the RPC layer surfaces them as typed RpcErrors, which is how the paper's
// distributed runtime would behave on a flaky transputer link.
#include <gtest/gtest.h>

#include <thread>

#include "core/alps.h"
#include "net/net.h"

namespace alps::net {
namespace {

struct Rig {
  Network net;
  Node client{net, "client"};
  Node server{net, "server"};
  Object svc{"Svc"};
  RemoteObject remote;

  Rig() {
    auto echo = svc.define_entry({.name = "Echo", .params = 1, .results = 1});
    svc.implement(echo, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
    svc.start();
    server.host(svc);
    remote = client.remote(server.id(), "Svc");
  }
  ~Rig() { svc.stop(); }

  CallOptions deadline(std::chrono::milliseconds ms) {
    CallOptions opts;
    opts.deadline = ms;
    return opts;
  }
};

TEST(NetFailure, PartitionSurfacesTypedPartitionError) {
  Rig rig;
  EXPECT_EQ(rig.remote.call("Echo", vals(1), {}).value()[0].as_int(), 1);
  rig.net.partition(rig.client.id(), rig.server.id());
  auto r = rig.remote.call("Echo", vals(2),
                           rig.deadline(std::chrono::milliseconds(50)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kPartitioned)
      << "an active partition must be typed as such, not a bare timeout";
  EXPECT_GT(rig.net.transport_stats().frames_lost, 0u);
  EXPECT_EQ(rig.client.inflight(), 0u) << "timed-out request must be reaped";
}

TEST(NetFailure, HealRestoresService) {
  Rig rig;
  rig.net.partition(rig.client.id(), rig.server.id());
  EXPECT_FALSE(rig.remote
                   .call("Echo", vals(1),
                         rig.deadline(std::chrono::milliseconds(30)))
                   .ok());
  rig.net.heal();
  auto r = rig.remote.call("Echo", vals(7),
                           rig.deadline(std::chrono::milliseconds(500)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].as_int(), 7);
}

TEST(NetFailure, LateResponseAfterDeadlineIsIgnored) {
  // Delay the response direction only: the request arrives, the response
  // crawls, the caller's deadline fires first. The late response must be
  // dropped silently (no crash, no wrong completion) — and because req_ids
  // are never reused, it can never touch a later call's slot.
  Rig rig;
  rig.net.set_link_latency(rig.server.id(), rig.client.id(),
                           LinkLatency{std::chrono::milliseconds(80), {}});
  auto r = rig.remote.call("Echo", vals(1),
                           rig.deadline(std::chrono::milliseconds(20)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kTimeout);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  // The late response was ignored and counted; a new call still works.
  EXPECT_GE(rig.client.client_stats().stale_responses, 1u);
  rig.net.set_link_latency(rig.server.id(), rig.client.id(), LinkLatency{});
  EXPECT_EQ(rig.remote.call("Echo", vals(5), {}).value()[0].as_int(), 5);
}

TEST(NetFailure, LateResponseCannotClobberLaterCall) {
  // Regression for the historical call_for hazard: call A times out, its
  // response is still in flight, and a later call B is issued. A's late
  // response must neither complete B nor resurrect A.
  Rig rig;
  rig.net.set_link_latency(rig.server.id(), rig.client.id(),
                           LinkLatency{std::chrono::milliseconds(60), {}});
  RpcHandle a = rig.remote.async_call(
      "Echo", vals(111), rig.deadline(std::chrono::milliseconds(15)));
  auto ra = a.result();  // times out before the 60 ms response arrives
  ASSERT_FALSE(ra.ok());
  EXPECT_EQ(ra.error().cause(), RpcCause::kTimeout);
  // B is issued while A's response is still crawling back (FIFO link: A's
  // stale response is delivered before B's).
  RpcHandle b = rig.remote.async_call("Echo", vals(222), {});
  EXPECT_NE(b.req_id(), a.req_id()) << "req_ids must never be reused";
  auto rb = b.result();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value()[0].as_int(), 222) << "B must get B's result, not A's";
  EXPECT_GE(rig.client.client_stats().stale_responses, 1u)
      << "A's late response must be dropped, not matched to any slot";
  EXPECT_EQ(rig.client.inflight(), 0u);
}

TEST(NetFailure, CancelledCallFailsTypedAndLateResponseIsDropped) {
  // Explicit cancellation: the handle fails with kCancelled immediately,
  // the in-flight response is dropped on arrival, and a later call is
  // unaffected (same never-reuse-req_id guarantee as the deadline path).
  Rig rig;
  rig.net.set_link_latency(rig.server.id(), rig.client.id(),
                           LinkLatency{std::chrono::milliseconds(60), {}});
  RpcHandle a = rig.remote.async_call("Echo", vals(31), {});
  a.cancel();
  auto ra = a.result();
  ASSERT_FALSE(ra.ok());
  EXPECT_EQ(ra.error().cause(), RpcCause::kCancelled);
  EXPECT_EQ(rig.client.inflight(), 0u) << "cancel must reap the request";
  a.cancel();  // idempotent once completed

  RpcHandle b = rig.remote.async_call("Echo", vals(32), {});
  EXPECT_NE(b.req_id(), a.req_id());
  auto rb = b.result();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value()[0].as_int(), 32);
  // A and B run concurrently on the unmanaged object, so under load B's
  // response can overtake A's: wait for A's to arrive.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.client.client_stats().stale_responses < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rig.client.client_stats().stale_responses, 1u)
      << "the cancelled call's response must be dropped, not matched";
}

TEST(NetFailure, RandomLossEventuallyLosesFrames) {
  Rig rig;
  rig.net.set_loss_probability(0.5);
  int timeouts = 0, successes = 0;
  for (int i = 0; i < 20; ++i) {
    if (rig.remote
            .call("Echo", vals(i), rig.deadline(std::chrono::milliseconds(30)))
            .ok()) {
      ++successes;
    } else {
      ++timeouts;
    }
  }
  EXPECT_GT(timeouts, 0) << "50% loss must time out some calls";
  rig.net.set_loss_probability(0.0);
  EXPECT_EQ(rig.remote.call("Echo", vals(99), {}).value()[0].as_int(), 99);
  EXPECT_GT(rig.net.transport_stats().frames_lost, 0u);
}

TEST(NetFailure, RetryPolicySucceedsUnderModerateLoss) {
  // The retry discipline the kernel now owns: retransmit with backoff, and
  // rely on server-side dedup instead of entry idempotence.
  Rig rig;
  rig.net.set_loss_probability(0.3);
  RetryPolicy retry;
  retry.attempt_timeout = std::chrono::milliseconds(15);
  retry.initial_backoff = std::chrono::milliseconds(2);
  retry.max_backoff = std::chrono::milliseconds(20);
  CallOptions opts;
  opts.retry = retry;
  for (int i = 0; i < 10; ++i) {
    auto r = rig.remote.call("Echo", vals(i), opts);
    ASSERT_TRUE(r.ok()) << "unlimited retries must eventually deliver";
    EXPECT_EQ(r.value()[0].as_int(), i);
  }
}

TEST(NetFailure, BoundedRetriesSurfaceTimeoutWithAttemptCount) {
  Rig rig;
  rig.net.set_loss_probability(1.0);  // nothing gets through
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.attempt_timeout = std::chrono::milliseconds(10);
  retry.initial_backoff = std::chrono::milliseconds(2);
  CallOptions opts;
  opts.retry = retry;
  auto r = rig.remote.call("Echo", vals(1), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kTimeout);
  EXPECT_EQ(r.error().attempts(), 3);
  EXPECT_EQ(rig.client.client_stats().retransmits, 2u);
}

TEST(NetFailure, DeadlineCapsUnlimitedRetries) {
  Rig rig;
  rig.net.partition(rig.client.id(), rig.server.id());
  CallOptions opts;
  opts.retry = RetryPolicy{};  // unlimited attempts
  opts.deadline = std::chrono::milliseconds(80);
  const auto begin = std::chrono::steady_clock::now();
  auto r = rig.remote.call("Echo", vals(1), opts);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kPartitioned);
  EXPECT_GE(elapsed, std::chrono::milliseconds(75));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(NetFailure, PartitionIsPairwise) {
  // A third node keeps talking to the server while client↔server is cut.
  Network net;
  Node client(net, "client");
  Node server(net, "server");
  Node other(net, "other");
  Object svc("Svc");
  auto echo = svc.define_entry({.name = "Echo", .params = 1, .results = 1});
  svc.implement(echo, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
  svc.start();
  server.host(svc);

  net.partition(client.id(), server.id());
  auto from_client = client.remote(server.id(), "Svc");
  auto from_other = other.remote(server.id(), "Svc");
  CallOptions short_deadline;
  short_deadline.deadline = std::chrono::milliseconds(30);
  EXPECT_FALSE(from_client.call("Echo", vals(1), short_deadline).ok());
  CallOptions long_deadline;
  long_deadline.deadline = std::chrono::milliseconds(500);
  auto ok = from_other.call("Echo", vals(2), long_deadline);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()[0].as_int(), 2);
  svc.stop();
}

}  // namespace
}  // namespace alps::net
