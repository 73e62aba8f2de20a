// SocketTransport tests: real OS sockets (Unix-domain and TCP loopback)
// inside one test process. Several transports — one per "node", each with
// its own listener and directory replica — exercise the same code paths a
// multi-process deployment uses (tests/cluster_harness.cpp and
// the net_multiprocess_smoke ctest cover the actual process boundary).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/alps.h"
#include "net/net.h"
#include "socket_test_util.h"
#include "support/stats.h"
#include "support/sync.h"

namespace alps::net {
namespace {

using namespace std::chrono_literals;

TEST(SocketTransport, DeliversRawFramesOverUnixSocket) {
  SocketPaths paths("raw");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");

  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> got;
  support::Event done;
  tb.set_handler(2, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, 1u);
    std::scoped_lock lock(mu);
    got.emplace_back(payload.data(), payload.data() + payload.size());
    if (got.size() == 3) done.set();
  });

  for (std::uint8_t i = 0; i < 3; ++i) {
    ta.post(1, 2, FrameBuilder::from_bytes({i, 42}));
  }
  ASSERT_TRUE(done.wait_for(30s));

  std::scoped_lock lock(mu);
  ASSERT_EQ(got.size(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], (std::vector<std::uint8_t>{i, 42}))
        << "frames must arrive intact and FIFO";
  }
  const auto sent = ta.transport_stats();
  EXPECT_EQ(sent.frames_posted, 3u);
  EXPECT_EQ(sent.bytes_posted, 6u);
  const auto recv = tb.transport_stats();
  EXPECT_EQ(recv.frames_delivered, 3u);
  EXPECT_EQ(recv.bytes_delivered, 6u);
}

TEST(SocketTransport, DeliversRawFramesOverTcpLoopback) {
  SocketTransportOptions a_opts;
  a_opts.local_node = 1;
  a_opts.listen = SocketAddress::tcp("127.0.0.1", 0);  // OS picks
  SocketTransport ta(a_opts);  // peer list patched below via second transport

  // B learns A's actual port after A binds. The traffic is one-directional,
  // but A must still admit B to its peer set — the handshake allowlist
  // rejects unknown nodes — so A adds B live (string-address form).
  SocketTransportOptions b_opts;
  b_opts.local_node = 2;
  b_opts.listen = SocketAddress::tcp("127.0.0.1", 0);
  b_opts.peers.push_back(
      SocketPeer{1, "a", SocketAddress::tcp("127.0.0.1", ta.bound_port())});
  SocketTransport tb(b_opts);
  ta.add_peer(2, "b", "127.0.0.1:" + std::to_string(tb.bound_port()));
  ta.add_node("a");
  tb.add_node("b");

  support::Event done;
  std::atomic<std::size_t> bytes{0};
  ta.set_handler(1, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, 2u);
    bytes += payload.size();
    done.set();
  });
  tb.post(2, 1, FrameBuilder::from_bytes(std::vector<std::uint8_t>(1024, 7)));
  ASSERT_TRUE(done.wait_for(30s));
  EXPECT_EQ(bytes.load(), 1024u);
}

TEST(SocketTransport, LoopbackToSelfDeliversInline) {
  SocketPaths paths("self");
  SocketTransport t(uds_options(paths, 1, {1}));
  t.add_node("a");
  bool got = false;
  t.set_handler(1, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, 1u);
    EXPECT_EQ(payload.size(), 2u);
    got = true;
  });
  // Synchronous: no peer, no socket.
  t.post(1, 1, FrameBuilder::from_bytes({9, 9}));
  EXPECT_TRUE(got);
}

/// Two socket transports + an RPC Node on each; the client's directory
/// replica is seeded like static placement config would be.
struct SocketRpcRig {
  SocketPaths paths{"rpc"};
  SocketTransport client_t{uds_options(paths, 1, {1, 2})};
  SocketTransport server_t{uds_options(paths, 2, {1, 2})};
  Node client{client_t, "client"};
  Node server{server_t, "server"};
  Object echo{"Echo"};

  SocketRpcRig() {
    auto dbl = echo.define_entry({.name = "Double", .params = 1, .results = 1});
    echo.implement(dbl, [](BodyCtx& ctx) -> ValueList {
      return {Value(ctx.param(0).as_int() * 2)};
    });
    auto blob = echo.define_entry({.name = "Len", .params = 1, .results = 1});
    echo.implement(blob, [](BodyCtx& ctx) -> ValueList {
      return {Value(static_cast<std::int64_t>(ctx.param(0).as_blob().size()))};
    });
    echo.start();
    server.host(echo);  // registers in the *server's* replica
    // The client's replica is this process's placement knowledge.
    client_t.directory().add("Echo", 2);
  }
  ~SocketRpcRig() { echo.stop(); }
};

TEST(SocketRpc, NameBasedCallRoundTrips) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};  // sockets may need the first-connect grace
  for (int i = 0; i < 10; ++i) {
    auto r = rig.client.call("Echo", "Double", {Value(std::int64_t(i))}, opts);
    ASSERT_TRUE(r.ok()) << r.error().what();
    EXPECT_EQ(r.value()[0].as_int(), 2 * i);
  }
  EXPECT_EQ(rig.server.server_stats().dispatched, 10u);
  EXPECT_EQ(rig.client.client_stats().failures, 0u);
}

TEST(SocketRpc, LargeBlobsRideTheScatterPathWithoutAssembly) {
  SocketRpcRig rig;
  auto& dp = support::data_plane();
  const auto assembled_before = dp.bytes_assembled.get();
  const auto referenced_before = dp.bytes_referenced.get();

  // 64 KiB blob parameter: far above kZeroCopySliceThreshold, so the request
  // frame carries it as a referenced slice and the socket's sendmsg path
  // must never gather it into a contiguous frame.
  Blob big(64 * 1024, 0x5a);
  CallOptions opts;
  opts.retry = RetryPolicy{};
  auto r = rig.client.call("Echo", "Len", {Value(std::move(big))}, opts);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 64 * 1024);

  EXPECT_GE(dp.bytes_referenced.get() - referenced_before, 64u * 1024u)
      << "the blob must travel by reference on the send side";
  EXPECT_EQ(dp.bytes_assembled.get() - assembled_before, 0u)
      << "no frame on the socket path may pay the final gather";
}

TEST(SocketRpc, ReconnectsAfterDisconnect) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};
  ASSERT_TRUE(rig.client.call("Echo", "Double", vals(1), opts).ok());
  // Drop the established connection; the next call must transparently
  // reconnect (same contract as connect-on-demand).
  rig.client_t.disconnect(2);
  auto r = rig.client.call("Echo", "Double", vals(2), opts);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 4);
}

TEST(SocketRpc, SeverFailsTypedAndRestoreHeals) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};
  ASSERT_TRUE(rig.client.call("Echo", "Double", vals(1), opts).ok());

  rig.client_t.cut(1, 2);
  EXPECT_TRUE(rig.client_t.is_partitioned(1, 2));
  CallOptions bounded = opts;
  bounded.deadline = 300ms;
  auto r = rig.client.call("Echo", "Double", vals(2), bounded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kPartitioned);

  rig.client_t.mend(1, 2);
  EXPECT_FALSE(rig.client_t.is_partitioned(1, 2));
  auto healed = rig.client.call("Echo", "Double", vals(3), opts);
  ASSERT_TRUE(healed.ok()) << healed.error().what();
  EXPECT_EQ(healed.value()[0].as_int(), 6);
}

TEST(SocketRpc, WrongNodeRedirectHealsStaleReplica) {
  // Three "processes": the client's directory replica deliberately names a
  // stale home (node 2) for an object actually hosted on node 3. Node 2's
  // replica knows the truth, so the request earns a kWrongNode redirect and
  // the client's second hop lands right — placement heals in-band exactly
  // as in the simulated cluster.
  SocketPaths paths("redir");
  const std::vector<NodeId> ids{1, 2, 3};
  SocketTransport t1(uds_options(paths, 1, ids));
  SocketTransport t2(uds_options(paths, 2, ids));
  SocketTransport t3(uds_options(paths, 3, ids));
  Node client(t1, "client");
  Node middle(t2, "middle");
  Node serving(t3, "serving");

  Object obj("Roamer");
  auto ping = obj.define_entry({.name = "Ping", .params = 0, .results = 1});
  obj.implement(ping, [](BodyCtx&) -> ValueList {
    return {Value(std::int64_t(99))};
  });
  obj.start();
  serving.host(obj);           // t3's replica: Roamer → 3
  t2.directory().add("Roamer", 3);  // node 2 knows the real home
  t1.directory().add("Roamer", 2);  // client's replica is stale

  CallOptions opts;
  opts.retry = RetryPolicy{};
  auto r = client.call("Roamer", "Ping", {}, opts);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 99);
  EXPECT_GE(client.client_stats().redirects, 1u);
  EXPECT_GE(middle.server_stats().wrong_node_redirects, 1u);
  EXPECT_EQ(client.cached_route("Roamer"), std::optional<NodeId>(3))
      << "the redirect must heal the client's route cache";
  obj.stop();
}

TEST(SocketRpc, BatchedCallsCoalesceOverTheWire) {
  SocketRpcRig rig;
  BatchOptions batch;
  batch.max_frames = 8;
  rig.client.set_batching(batch);

  CallOptions opts;
  opts.retry = RetryPolicy{};
  std::vector<RpcHandle> handles;
  // Batching coalesces only behind a busy link, and one posting thread
  // finishes each write before its next post, so the burst goes out behind
  // a cut: the frames park in the transport's queue, keeping the link busy
  // until mend() replays them.
  rig.client_t.cut(1, 2);
  for (int i = 0; i < 32; ++i) {
    handles.push_back(
        rig.client.async_call("Echo", "Double", vals(i), opts));
  }
  rig.client.flush_batches();
  rig.client_t.mend(1, 2);
  for (int i = 0; i < 32; ++i) {
    auto r = handles[i].result();
    ASSERT_TRUE(r.ok()) << r.error().what();
    EXPECT_EQ(r.value()[0].as_int(), 2 * i);
  }
  EXPECT_GT(rig.client.batch_stats().frames_coalesced, 0u)
      << "some requests must have shared a kBatch envelope on the socket";
}

TEST(SocketTransport, SecondLocalNodeRefused) {
  SocketPaths paths("one");
  SocketTransport t(uds_options(paths, 1, {1}));
  t.add_node("only");
  EXPECT_THROW(t.add_node("second"), Error);
}

// ---- transport resilience (DESIGN.md §4.11) --------------------------------

/// Collects frames at a receiving transport in arrival order.
struct FrameSink {
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> got;
  support::Event reached;
  std::size_t want = 0;

  Transport::Handler handler() {
    return [this](NodeId, Buffer payload) {
      std::scoped_lock lock(mu);
      got.emplace_back(payload.data(), payload.data() + payload.size());
      if (want != 0 && got.size() >= want) reached.set();
    };
  }
};

TEST(SocketTransport, BlipRetainsQueuedFramesAndReplaysInOrder) {
  SocketPaths paths("blip");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 5ms;
  a_opts.connect_backoff_max = 20ms;
  SocketTransport ta(a_opts);
  ta.add_node("a");

  // B does not exist yet: the first connect rounds fail instantly (no
  // listener at the path). The 5 frames must ride out the blip in A's
  // retransmit queue — not be counted lost. Waiting for is_partitioned
  // pins the "a round actually failed" half of the claim.
  for (std::uint8_t i = 0; i < 5; ++i) {
    ta.post(1, 2, FrameBuilder::from_bytes({i}));
  }
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!ta.is_partitioned(1, 2)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }

  FrameSink sink;
  sink.want = 5;
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  tb.add_node("b");
  tb.set_handler(2, sink.handler());
  ASSERT_TRUE(sink.reached.wait_for(30s));

  std::scoped_lock lock(sink.mu);
  ASSERT_EQ(sink.got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.got[i], std::vector<std::uint8_t>{i})
        << "replay must preserve posted order";
  }
  const auto stats = ta.transport_stats();
  EXPECT_EQ(stats.frames_lost, 0u);
  EXPECT_GE(stats.frames_requeued, 5u)
      << "the surviving frames must be accounted as requeued";
}

TEST(SocketTransport, RetransmitBudgetOverflowCountsLost) {
  SocketPaths paths("budget");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 5ms;
  a_opts.connect_backoff_max = 20ms;
  a_opts.retransmit_budget_frames = 3;
  SocketTransport ta(a_opts);
  ta.add_node("a");

  // First frame arms the sender; wait until a connect round has failed so
  // the link is known-down and the budget applies.
  ta.post(1, 2, FrameBuilder::from_bytes({0}));
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!ta.is_partitioned(1, 2)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  for (std::uint8_t i = 1; i < 6; ++i) {
    ta.post(1, 2, FrameBuilder::from_bytes({i}));
  }

  FrameSink sink;
  sink.want = 3;
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  tb.add_node("b");
  tb.set_handler(2, sink.handler());
  ASSERT_TRUE(sink.reached.wait_for(30s));
  // Give any unexpected extra frame a moment to arrive, then snapshot.
  ta.wait_quiescent();
  tb.wait_quiescent();

  std::scoped_lock lock(sink.mu);
  ASSERT_EQ(sink.got.size(), 3u)
      << "only the budgeted prefix may survive the outage";
  for (std::uint8_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.got[i], std::vector<std::uint8_t>{i})
        << "the surviving prefix replays in posted order";
  }
  EXPECT_EQ(ta.transport_stats().frames_lost, 3u)
      << "past-budget frames are datagram loss, and counted";
}

TEST(SocketTransport, SeverQueuesUnderBudgetAndRestoreReplaysInOrder) {
  SocketPaths paths("sevq");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  FrameSink sink;
  sink.want = 1;
  tb.set_handler(2, sink.handler());
  ta.post(1, 2, FrameBuilder::from_bytes({0}));
  ASSERT_TRUE(sink.reached.wait_for(30s));

  ta.cut(1, 2);
  EXPECT_TRUE(ta.is_partitioned(1, 2));
  for (std::uint8_t i = 1; i <= 4; ++i) {
    ta.post(1, 2, FrameBuilder::from_bytes({i}));
  }
  ta.wait_quiescent();  // parked frames count as quiescent during the cut
  {
    std::scoped_lock lock(sink.mu);
    EXPECT_EQ(sink.got.size(), 1u) << "nothing crosses an active cut";
  }

  sink.reached.reset();
  sink.want = 5;
  ta.mend(1, 2);
  ASSERT_TRUE(sink.reached.wait_for(30s));
  std::scoped_lock lock(sink.mu);
  ASSERT_EQ(sink.got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.got[i], std::vector<std::uint8_t>{i})
        << "restore must replay the parked frames in order";
  }
  const auto stats = ta.transport_stats();
  EXPECT_EQ(stats.frames_lost, 0u);
  EXPECT_GE(stats.frames_requeued, 4u);
}

TEST(SocketTransport, CutNeedsALocalEnd) {
  SocketPaths paths("cutlocal");
  SocketTransport ta(uds_options(paths, 1, {1, 2, 3}));
  EXPECT_THROW(ta.cut(2, 3), Error);
  EXPECT_FALSE(ta.is_partitioned(2, 3)) << "a refused cut is not recorded";
}

TEST(SocketTransport, CutOutlivesEvictionAndReadmission) {
  SocketPaths paths("cutreadmit");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  FrameSink sink;
  sink.want = 1;
  tb.set_handler(2, sink.handler());

  // The peer leaves and rejoins while its pair is cut: the new link starts
  // behind the cut, so its frames park until mend.
  ta.cut(1, 2);
  ASSERT_TRUE(ta.remove_peer(2));
  ta.add_peer(2, "b", "unix:" + paths.node(2));
  EXPECT_TRUE(ta.is_partitioned(1, 2));
  ta.post(1, 2, FrameBuilder::from_bytes({7}));
  ta.wait_quiescent();  // parked frames count as quiescent during the cut
  EXPECT_FALSE(sink.reached.wait_for(50ms)) << "nothing crosses the cut";

  ta.mend(1, 2);
  ASSERT_TRUE(sink.reached.wait_for(30s));
  std::scoped_lock lock(sink.mu);
  EXPECT_EQ(sink.got, (std::vector<std::vector<std::uint8_t>>{{7}}));
}

TEST(SocketTransport, RemovePeerRacesInFlightDeliveryAndRejectsReconnect) {
  SocketPaths paths("evict");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");

  support::Event entered, release;
  std::atomic<int> delivered{0};
  tb.set_handler(2, [&](NodeId, Buffer) {
    if (++delivered == 1) {
      entered.set();
      release.wait();
    }
  });
  ta.post(1, 2, FrameBuilder::from_bytes({1}));
  ASSERT_TRUE(entered.wait_for(30s));
  // A second frame is already behind the blocked delivery; the eviction
  // below must win the race against it.
  ta.post(1, 2, FrameBuilder::from_bytes({2}));

  std::thread evict([&] { EXPECT_TRUE(tb.remove_peer(1)); });
  std::this_thread::sleep_for(50ms);  // overlap eviction with the delivery
  release.set();
  evict.join();
  EXPECT_FALSE(tb.remove_peer(1)) << "second eviction must report absent";

  // A keeps talking, but its HELLO now claims a node outside B's peer set:
  // every reconnect is refused before a frame can dispatch.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (tb.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    ta.post(1, 2, FrameBuilder::from_bytes({3}));
    ta.disconnect(2);  // force a fresh connection (and a fresh handshake)
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(delivered.load(), 1) << "no frame may land after the eviction";
}

TEST(SocketTransport, AddPeerAdmitsTrafficMidRun) {
  SocketPaths paths("admit");
  SocketTransport ta(uds_options(paths, 1, {1}));  // B unknown at first
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");

  std::atomic<int> got{0};
  support::Event first;
  ta.set_handler(1, [&](NodeId src, Buffer) {
    EXPECT_EQ(src, 2u);
    if (++got == 1) first.set();
  });

  std::atomic<int> membership_adds{0};
  const auto token = ta.add_membership_listener([&](NodeId peer, bool added) {
    if (peer == 2 && added) ++membership_adds;
  });

  // Unknown peer: every stream B opens is refused before dispatch.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(2, 1, FrameBuilder::from_bytes({7}));
    tb.disconnect(1);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u)
      << "an unadmitted peer must never deliver a frame";

  // Admit B live (string-address form) — traffic starts flowing without
  // touching A's construction-time configuration.
  ta.add_peer(2, "b", "unix:" + paths.node(2));
  EXPECT_EQ(ta.node_name(2), "b");
  EXPECT_EQ(membership_adds.load(), 1);
  ta.add_peer(2, "b", "unix:" + paths.node(2));  // already live
  EXPECT_EQ(membership_adds.load(), 1)
      << "re-adding a live peer fires no listener";
  while (!first.wait_for(50ms)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(2, 1, FrameBuilder::from_bytes({8}));
    tb.disconnect(1);
  }
  EXPECT_GE(got.load(), 1);
  ta.remove_membership_listener(token);
}

TEST(SocketTransport, HandshakeRejectsWrongClusterToken) {
  SocketPaths paths("token");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.cluster_token = "alpha";
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.cluster_token = "beta";
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport ta(a_opts);
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");
  ta.set_handler(1, [&](NodeId, Buffer) { FAIL() << "must not deliver"; });

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(2, 1, FrameBuilder::from_bytes({1}));
    tb.disconnect(1);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);
}

TEST(SocketTransport, HandshakeRejectsProtocolVersionMismatch) {
  SocketPaths paths("ver");
  auto a_opts = uds_options(paths, 1, {1, 2});
  auto b_opts = uds_options(paths, 2, {1, 2});
  b_opts.protocol_version = kHelloVersion + 1;
  b_opts.connect_backoff_initial = 5ms;
  SocketTransport ta(a_opts);
  SocketTransport tb(b_opts);
  ta.add_node("a");
  tb.add_node("b");
  ta.set_handler(1, [&](NodeId, Buffer) { FAIL() << "must not deliver"; });

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    tb.post(2, 1, FrameBuilder::from_bytes({1}));
    tb.disconnect(1);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);
}

/// Connects a bare OS socket to `path` and writes `bytes`; returns after the
/// peer closes (or 2s). The impostor's view: does the transport talk back?
void raw_connection(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  // Wait for the far end to hang up on us (read returns 0).
  char buf[64];
  struct timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);
}

TEST(SocketTransport, RawImpostorConnectionNeverDeliversAFrame) {
  SocketPaths paths("impostor");
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  ta.add_node("a");
  ta.set_handler(1, [&](NodeId, Buffer) { FAIL() << "must not deliver"; });

  // Garbage instead of a HELLO: rejected on the magic check, counted, cut.
  raw_connection(paths.node(1),
                 {'G', 'A', 'R', 'B', 'A', 'G', 'E', '!', 0, 0, 0, 0});
  auto deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().handshake_rejected < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);

  // A valid HELLO followed by a corrupt length field: the handshake passes,
  // the framing layer poisons the connection before anything dispatches.
  HelloFrame hello;
  hello.node = 2;
  FrameBuilder hello_frame;
  encode_hello(hello, hello_frame);
  std::vector<std::uint8_t> bytes = hello_frame.build();
  for (int i = 0; i < 4; ++i) bytes.push_back(0xff);  // length = 2^32-1
  for (int i = 0; i < 8; ++i) bytes.push_back(0x02);  // src (never parsed)
  raw_connection(paths.node(1), bytes);
  deadline = std::chrono::steady_clock::now() + 30s;
  while (ta.transport_stats().connections_poisoned < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ta.transport_stats().frames_delivered, 0u);
}

TEST(SocketRpc, RemovePeerPurgesDirectoryAndFailsTyped) {
  SocketRpcRig rig;
  CallOptions opts;
  opts.retry = RetryPolicy{};
  ASSERT_TRUE(rig.client.call("Echo", "Double", vals(1), opts).ok());
  ASSERT_EQ(rig.client.cached_route("Echo"), std::optional<NodeId>(2));

  rig.client_t.remove_peer(2);
  EXPECT_FALSE(rig.client.cached_route("Echo").has_value())
      << "the membership listener must drop routes to the departed peer";
  EXPECT_FALSE(rig.client_t.directory().lookup("Echo").has_value())
      << "eviction must purge the departed node's directory entries";
  CallOptions bounded = opts;
  bounded.deadline = 300ms;
  auto r = rig.client.call("Echo", "Double", vals(2), bounded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kObjectNotFound)
      << "a departed home fails typed, not by timeout";
}

TEST(SocketTransport, RemovePeerDemotesMultiHomeDirectoryEntries) {
  // Satellite regression, socket backend: evicting a peer must *demote* it
  // out of multi-home entries (survivors keep serving) and erase only the
  // entries with no surviving home — same semantics the simulated Network
  // gets from Directory::remove_node.
  SocketPaths paths("demote");
  SocketTransport ta(uds_options(paths, 1, {1, 2, 3}));
  ta.add_node("a");
  ta.directory().add("Solo", 2);
  ta.directory().add_sharded("Shards", {2, 3});
  ta.directory().add_replicated("Repl", /*primary=*/2, {3});

  ta.remove_peer(2);

  EXPECT_EQ(ta.directory().lookup("Solo"), std::nullopt)
      << "no surviving home: erased, so calls fail typed";
  auto shards = ta.directory().placement("Shards");
  ASSERT_TRUE(shards.has_value()) << "demote, don't erase";
  EXPECT_EQ(shards->mode, PlacementMode::kSharded);
  for (NodeId h : shards->homes) EXPECT_EQ(h, 3u);
  auto repl = ta.directory().placement("Repl");
  ASSERT_TRUE(repl.has_value());
  EXPECT_EQ(repl->primary(), 3u) << "surviving replica promoted to primary";
}

TEST(SocketTransport, FrameAccountingConservesAcrossBudgetSeverAndEviction) {
  // Satellite regression: every posted frame is accounted exactly once —
  // delivered, lost (budget trim / cut teardown / eviction drain), or
  // dropped (no such destination). A double-count in any of the parked
  // paths breaks this equality.
  SocketPaths paths("conserve");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 5ms;
  a_opts.connect_backoff_max = 20ms;
  a_opts.retransmit_budget_frames = 3;
  SocketTransport ta(a_opts);
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  FrameSink sink;
  sink.want = 1;
  tb.set_handler(2, sink.handler());
  ta.post(1, 2, FrameBuilder::from_bytes({0}));
  ASSERT_TRUE(sink.reached.wait_for(30s));

  // Sever, then overflow the retransmit budget: 3 of the 6 park, 3 are
  // tail-dropped by the trim and must be counted lost exactly once.
  ta.cut(1, 2);
  for (std::uint8_t i = 1; i <= 6; ++i) {
    ta.post(1, 2, FrameBuilder::from_bytes({i}));
  }
  ta.wait_quiescent();
  EXPECT_EQ(ta.transport_stats().frames_lost, 3u)
      << "parked-then-trimmed frames are lost once, not twice";

  sink.reached.reset();
  sink.want = 4;
  ta.mend(1, 2);
  ASSERT_TRUE(sink.reached.wait_for(30s));
  ta.wait_quiescent();
  tb.wait_quiescent();
  {
    const auto a = ta.transport_stats();
    const auto b = tb.transport_stats();
    EXPECT_EQ(a.frames_posted, 7u);
    EXPECT_EQ(a.frames_posted,
              b.frames_delivered + a.frames_lost + a.frames_dropped)
        << "conservation after budget trip + replay";
  }

  // Park two more behind a fresh cut, then evict the peer: the teardown
  // drain owns those two frames (and only those two).
  ta.cut(1, 2);
  ta.post(1, 2, FrameBuilder::from_bytes({7}));
  ta.post(1, 2, FrameBuilder::from_bytes({8}));
  ta.remove_peer(2);
  // A post to a removed peer is a drop (dst unknown), not a loss.
  ta.post(1, 2, FrameBuilder::from_bytes({9}));
  ta.wait_quiescent();
  const auto a = ta.transport_stats();
  const auto b = tb.transport_stats();
  EXPECT_EQ(a.frames_posted, 10u);
  EXPECT_EQ(a.frames_lost, 5u) << "3 trimmed + 2 drained at eviction";
  EXPECT_EQ(a.frames_dropped, 1u);
  EXPECT_EQ(a.frames_posted,
            b.frames_delivered + a.frames_lost + a.frames_dropped)
      << "conservation across sever + eviction + post-removal drop";
}

// ---- send path: posting-thread writes + sender-thread tails ----------------

/// Frame `i` of the stalled-reader test: 64 KB, index in the first 4 bytes,
/// then a pattern that a torn, shifted or reordered tail would break.
std::vector<std::uint8_t> big_frame(std::uint32_t i) {
  std::vector<std::uint8_t> f(64 * 1024);
  std::memcpy(f.data(), &i, sizeof(i));
  for (std::size_t j = sizeof(i); j < f.size(); ++j) {
    f[j] = static_cast<std::uint8_t>(i * 31 + j);
  }
  return f;
}

/// Plays the peer on a raw accepted connection: takes its HELLO, then
/// reassembles stream frames until `want` payloads arrived — with `unpack`,
/// kBatch envelopes count as their members, in order — or the stream ends
/// or stays silent for 30 s.
std::vector<std::vector<std::uint8_t>> read_raw_peer(int fd, std::size_t want,
                                                     bool unpack) {
  std::vector<std::vector<std::uint8_t>> got;
  HelloReader hello;
  StreamReassembler reassembler;
  std::vector<std::uint8_t> chunk(64 * 1024);
  struct timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (got.size() < want) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n <= 0) break;
    const std::uint8_t* data = chunk.data();
    std::size_t remaining = static_cast<std::size_t>(n);
    try {
      if (!hello.done() && !hello.feed(data, remaining)) continue;
      reassembler.feed(data, remaining);
      while (auto msg = reassembler.next()) {
        std::size_t pos = 0;
        if (unpack && get_u8(msg->payload, pos) ==
                          static_cast<std::uint8_t>(MsgType::kBatch)) {
          for (const auto& m : decode_batch(msg->payload, pos)) {
            got.push_back(m.to_blob());
          }
        } else {
          got.emplace_back(msg->payload.data(),
                           msg->payload.data() + msg->payload.size());
        }
      }
    } catch (const Error& e) {
      ADD_FAILURE() << "corrupt stream: " << e.what();
      break;
    }
  }
  return got;
}

/// Listens on `path` for a peer the test plays by hand (read_raw_peer).
int raw_listener(const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 4) != 0) {
    ADD_FAILURE() << "raw listener on " << path << ": " << std::strerror(errno);
  }
  return listener;
}

TEST(SocketTransport, PostNeverBlocksAgainstAStalledReader) {
  // The posting thread writes with MSG_DONTWAIT: once the socket buffer is
  // full, a short write or EAGAIN hands the tail to the sender thread and
  // post() returns. A peer that accepts and never reads must not stall the
  // poster — servers post from inside on_complete on the manager thread.
  SocketPaths paths("stall");
  const int listener = raw_listener(paths.node(2));
  ASSERT_GE(listener, 0);

  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  ta.add_node("a");
  // Starts the sender, which connects.
  ta.post(1, 2, FrameBuilder::from_bytes(big_frame(0)));
  const int fd = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(fd, 0);

  // More than the send buffer holds: at least one write comes up short.
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  const std::uint32_t total =
      static_cast<std::uint32_t>(4 * sndbuf / (64 * 1024)) + 8;

  // The peer starts reading when told to — or after 10 s, so a post that
  // does block fails the timing check below instead of hanging the suite.
  support::Event go;
  std::vector<std::vector<std::uint8_t>> got;
  std::thread peer([&] {
    go.wait_for(10s);
    got = read_raw_peer(fd, total, /*unpack=*/false);
  });

  auto slowest = std::chrono::steady_clock::duration::zero();
  for (std::uint32_t i = 1; i < total; ++i) {
    auto frame = big_frame(i);
    const auto t0 = std::chrono::steady_clock::now();
    ta.post(1, 2, FrameBuilder::from_bytes(std::move(frame)));
    slowest = std::max(slowest, std::chrono::steady_clock::now() - t0);
  }
  go.set();
  peer.join();
  ::close(fd);
  ::close(listener);

  EXPECT_LT(slowest, 1s) << "post() blocked on a full socket buffer";
  ASSERT_EQ(got.size(), total);
  for (std::uint32_t i = 0; i < total; ++i) {
    EXPECT_EQ(got[i], big_frame(i)) << "frame " << i << " torn or reordered";
  }
  ta.wait_quiescent();
  EXPECT_EQ(ta.transport_stats().frames_lost, 0u);
}

/// Frame `i` of the batched stalled-reader test: an ack-typed 16 KB frame,
/// so kBatch envelopes are the only frames that start with kBatch.
std::vector<std::uint8_t> tagged_frame(std::uint32_t i) {
  std::vector<std::uint8_t> f(16 * 1024);
  f[0] = static_cast<std::uint8_t>(MsgType::kAck);
  std::memcpy(f.data() + 1, &i, sizeof(i));
  for (std::size_t j = 1 + sizeof(i); j < f.size(); ++j) {
    f[j] = static_cast<std::uint8_t>(i * 31 + j);
  }
  return f;
}

TEST(SocketTransport, BatcherBehindAStalledReaderHoldsOneEnvelope) {
  // A batcher over a socket link whose peer stops reading: the first frame
  // leaves raw on the idle link, then the writes back up and the link stays
  // busy. Frames gather behind it, but a full buffer still leaves at once
  // (into the transport's queue), so the batcher never holds more than one
  // envelope's worth and enqueue never blocks. When the peer reads again
  // the link drains, goes idle, and the residue follows — all in order.
  SocketPaths paths("bstall");
  const int listener = raw_listener(paths.node(2));
  ASSERT_GE(listener, 0);
  SocketTransport ta(uds_options(paths, 1, {1, 2}));
  ta.add_node("a");
  BatchOptions opts;
  opts.max_frames = 4;
  FrameBatcher batcher(
      opts,
      [&](NodeId dst, FrameBuilder frame) {
        ta.post(1, dst, std::move(frame));
      },
      [&](NodeId dst) { return ta.link_busy(1, dst); });
  ta.set_idle_handler(1, [&](NodeId dst) { batcher.on_link_idle(dst); });

  // Starts the sender, which connects.
  batcher.enqueue(2, FrameBuilder::from_bytes(tagged_frame(0)));
  const int fd = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(fd, 0);
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);
  const std::uint32_t total =
      static_cast<std::uint32_t>(4 * sndbuf / (16 * 1024)) + 64;

  support::Event go;
  std::vector<std::vector<std::uint8_t>> got;
  std::thread peer([&] {
    go.wait_for(10s);
    got = read_raw_peer(fd, total, /*unpack=*/true);
  });
  auto slowest = std::chrono::steady_clock::duration::zero();
  std::size_t most_buffered = 0;
  for (std::uint32_t i = 1; i < total; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    batcher.enqueue(2, FrameBuilder::from_bytes(tagged_frame(i)));
    slowest = std::max(slowest, std::chrono::steady_clock::now() - t0);
    most_buffered = std::max(most_buffered, batcher.buffered());
  }
  EXPECT_TRUE(ta.link_busy(1, 2)) << "the stalled writes keep the link busy";
  go.set();
  peer.join();
  ta.set_idle_handler(1, nullptr);  // before the batcher goes
  ::close(fd);
  ::close(listener);

  EXPECT_LT(slowest, 1s) << "enqueue blocked behind a full socket buffer";
  EXPECT_LE(most_buffered, opts.max_frames);
  EXPECT_GT(batcher.stats().batches_posted, 0u);
  ASSERT_EQ(got.size(), total);
  for (std::uint32_t i = 0; i < total; ++i) {
    EXPECT_EQ(got[i], tagged_frame(i)) << "frame " << i << " torn or reordered";
  }
  EXPECT_EQ(batcher.buffered(), 0u);
  EXPECT_EQ(ta.transport_stats().frames_lost, 0u);
}

/// One round of the batching teardown stress: a client and a server Node,
/// both batching, with calls still in flight on odd rounds when everything
/// is torn down. Idle notifications race ~Node, which must wait out a call
/// still draining into its batcher before destroying it.
void batching_node_round(Transport& client_t, Transport& server_t, int round) {
  // Outlives both Nodes, so a late request finds a stopped object (typed
  // refusal) rather than freed memory...
  Object echo("Echo");
  auto dbl = echo.define_entry({.name = "Double", .params = 1, .results = 1});
  echo.implement(dbl, [](BodyCtx& ctx) -> ValueList {
    return {Value(ctx.param(0).as_int() * 2)};
  });
  echo.start();
  Node client(client_t, "client");
  Node server(server_t, "server");
  // ...and is stopped before them, so no body completes into a dead Node.
  struct StopFirst {
    Object& obj;
    ~StopFirst() { obj.stop(); }
  } stop_first{echo};
  BatchOptions batch;
  batch.max_frames = 4;
  client.set_batching(batch);
  server.set_batching(batch);
  server.host(echo);
  client_t.directory().add("Echo", server.id());
  std::vector<RpcHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(client.async_call("Echo", "Double", vals(i)));
  }
  if (round % 2 == 0) {
    for (int i = 0; i < 8; ++i) {
      auto r = handles[i].result();
      ASSERT_TRUE(r.ok()) << r.error().what();
      EXPECT_EQ(r.value()[0].as_int(), 2 * i);
    }
  }
}

TEST(Teardown, BatchingNodeSurvivesConstructDestroyStressOnBothBackends) {
  for (int round = 0; round < 60; ++round) {
    Network net(LinkLatency{0us, 20us}, static_cast<std::uint64_t>(round));
    batching_node_round(net, net, round);
  }
  SocketPaths paths("bteardown");
  for (int round = 0; round < 20; ++round) {
    SocketTransport t1(uds_options(paths, 1, {1, 2}));
    SocketTransport t2(uds_options(paths, 2, {1, 2}));
    batching_node_round(t1, t2, round);
  }
}

TEST(Teardown, RemovingTheIdleHandlerWaitsForARunningCall) {
  // set_handler's contract, for idle handlers: the caller may destroy the
  // handler's captures as soon as the removal returns. The link latency
  // keeps the frame in flight long enough for link_busy to ask for the
  // idle notification.
  Network net(LinkLatency{20ms, 0us});
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.set_handler(b, [](NodeId, Buffer) {});
  support::Event entered;
  support::Event release;
  std::atomic<bool> finished{false};
  net.set_idle_handler(a, [&](NodeId dst) {
    EXPECT_EQ(dst, b);
    entered.set();
    release.wait_for(30s);
    finished = true;
  });
  net.post(Frame{a, b, {1}});  // its delivery leaves a → b idle
  ASSERT_TRUE(net.link_busy(a, b));
  ASSERT_TRUE(entered.wait_for(30s));
  std::atomic<bool> removed{false};
  std::thread remover([&] {
    net.set_idle_handler(a, nullptr);
    removed = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(removed.load()) << "returned while the handler still ran";
  release.set();
  remover.join();
  EXPECT_TRUE(finished.load());
  EXPECT_FALSE(net.link_busy(a, b));
}

TEST(SocketTransport, ConcurrentPostersKeepFifoAcrossBothWritePaths) {
  // Four posters race the posting-thread write against the sender-thread
  // queue while cut/mend and disconnect churn the connection. Each
  // poster's frames must arrive in its own order (gaps only where a frame
  // was counted lost), and every frame is accounted exactly once.
  SocketPaths paths("fifo");
  auto a_opts = uds_options(paths, 1, {1, 2});
  a_opts.connect_backoff_initial = 1ms;
  a_opts.connect_backoff_max = 5ms;
  SocketTransport ta(a_opts);
  SocketTransport tb(uds_options(paths, 2, {1, 2}));
  ta.add_node("a");
  tb.add_node("b");
  FrameSink sink;
  tb.set_handler(2, sink.handler());

  // Connected first, so the churn below races live writes, not the first
  // connect.
  sink.want = 1;
  ta.post(1, 2, FrameBuilder::from_bytes({0xff}));
  ASSERT_TRUE(sink.reached.wait_for(30s));

  constexpr int kPosters = 4;
  constexpr int kChurnRounds = 60;
  std::atomic<bool> churning{true};
  std::vector<std::uint32_t> posted(kPosters, 0);
  std::vector<std::thread> posters;
  for (int t = 0; t < kPosters; ++t) {
    posters.emplace_back([&, t] {
      // At least 1000 frames each, and keep posting until the churn ends.
      for (std::uint32_t seq = 0; seq < 1000 || churning.load(); ++seq) {
        std::vector<std::uint8_t> f(1 + sizeof(seq));
        f[0] = static_cast<std::uint8_t>(t);
        std::memcpy(f.data() + 1, &seq, sizeof(seq));
        ta.post(1, 2, FrameBuilder::from_bytes(std::move(f)));
        posted[t] = seq + 1;
        if (seq % 16 == 15) std::this_thread::sleep_for(20us);
      }
    });
  }
  std::thread churn([&] {
    for (int round = 0; round < kChurnRounds; ++round) {
      std::this_thread::sleep_for(200us);
      if (round % 2 == 0) {
        ta.cut(1, 2);
        std::this_thread::sleep_for(100us);
        ta.mend(1, 2);
      } else {
        ta.disconnect(2);
      }
    }
    churning.store(false);
  });
  for (auto& p : posters) p.join();
  churn.join();
  ta.mend(1, 2);
  ta.wait_quiescent();

  // wait_quiescent treats a link in backoff as parked, so poll until every
  // frame is delivered or counted.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  for (;;) {
    const auto a = ta.transport_stats();
    const auto b = tb.transport_stats();
    if (a.frames_posted == b.frames_delivered + a.frames_lost +
                               a.frames_dropped) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "posted " << a.frames_posted << " delivered "
        << b.frames_delivered << " lost " << a.frames_lost;
    std::this_thread::sleep_for(1ms);
  }
  ta.wait_quiescent();
  tb.wait_quiescent();
  const auto a = ta.transport_stats();
  std::uint64_t total = 1;  // the warm-up frame
  for (auto n : posted) total += n;
  EXPECT_EQ(a.frames_posted, total);
  EXPECT_EQ(a.frames_dropped, 0u);

  std::scoped_lock lock(sink.mu);
  EXPECT_EQ(sink.got.size() + a.frames_lost, a.frames_posted);
  std::vector<std::int64_t> last(kPosters, -1);
  for (std::size_t i = 1; i < sink.got.size(); ++i) {
    const auto& f = sink.got[i];
    ASSERT_EQ(f.size(), 1 + sizeof(std::uint32_t));
    ASSERT_LT(f[0], kPosters);
    std::uint32_t seq = 0;
    std::memcpy(&seq, f.data() + 1, sizeof(seq));
    ASSERT_GT(static_cast<std::int64_t>(seq), last[f[0]])
        << "poster " << int{f[0]} << " frames reordered or duplicated";
    last[f[0]] = seq;
  }
}

}  // namespace
}  // namespace alps::net
