// Distribution substrate tests: wire codec round-trips (values and frame
// headers), simulated network delivery/latency, RPC calls against kernel
// objects via the CallOptions surface, and remote channels.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/alps.h"
#include "net/net.h"

namespace alps::net {
namespace {

// ---- codec ----

ValueList roundtrip(const ValueList& in, ChannelResolver* resolver = nullptr) {
  FrameBuilder fb;
  encode_list(in, fb, resolver);
  const auto buf = fb.build();
  std::size_t pos = 0;
  ValueList out = decode_list(buf, pos, resolver);
  EXPECT_EQ(pos, buf.size());
  return out;
}

TEST(Codec, ScalarsRoundTrip) {
  ValueList in = vals(Value(), true, false, 42, -7ll, 3.25, "hello",
                      std::string(""));
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Codec, ExtremeIntsRoundTrip) {
  ValueList in = vals(std::int64_t(INT64_MAX), std::int64_t(INT64_MIN), 0);
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Codec, BlobAndNestedListsRoundTrip) {
  Blob blob{0, 1, 2, 255, 254};
  ValueList in;
  in.emplace_back(blob);
  in.emplace_back(ValueList{Value(1), Value(ValueList{Value("deep")})});
  EXPECT_EQ(roundtrip(in), in);
}

TEST(Codec, TruncatedFrameRejected) {
  FrameBuilder fb;
  encode_list(vals("some string payload"), fb);
  auto buf = fb.build();
  buf.resize(buf.size() / 2);
  std::size_t pos = 0;
  EXPECT_THROW(decode_list(buf, pos), Error);
}

TEST(Codec, GarbageTagRejected) {
  FrameBuilder fb;
  fb.put_u32(1);   // one element
  fb.put_u8(99);   // bogus tag
  const auto buf = fb.build();
  std::size_t pos = 0;
  EXPECT_THROW(decode_list(buf, pos), Error);
}

TEST(Codec, ChannelWithoutResolverRejected) {
  FrameBuilder fb;
  EXPECT_THROW(encode_list(vals(make_channel()), fb), Error);
}

// ---- codec: frame headers (ack / dedup-epoch fields) ----

TEST(Codec, RequestHeaderRoundTrip) {
  const RequestHeader in{/*req_id=*/77, /*epoch=*/12345678901234ull,
                         /*ack_through=*/76, /*deadline_ms=*/1500,
                         "Dictionary", "Search"};
  FrameBuilder fb;
  encode_request_header(in, fb);
  const auto buf = fb.build();
  std::size_t pos = 0;
  EXPECT_EQ(get_u8(buf, pos), static_cast<std::uint8_t>(MsgType::kRequest));
  EXPECT_EQ(decode_request_header(buf, pos), in);
  EXPECT_EQ(pos, buf.size());
}

TEST(Codec, ResponseHeaderRoundTrip) {
  for (const auto cause :
       {WireCause::kOk, WireCause::kRemoteError, WireCause::kObjectNotFound,
        WireCause::kTimeout, WireCause::kCancelled, WireCause::kObjectDown}) {
    const ResponseHeader in{/*req_id=*/99, cause, kResponseFlagReplayed};
    FrameBuilder fb;
    encode_response_header(in, fb);
    const auto buf = fb.build();
    EXPECT_EQ(buf[kResponseFlagsOffset], kResponseFlagReplayed);
    std::size_t pos = 0;
    EXPECT_EQ(get_u8(buf, pos), static_cast<std::uint8_t>(MsgType::kResponse));
    EXPECT_EQ(decode_response_header(buf, pos), in);
  }
}

TEST(Codec, ResponseUnknownCauseRejected) {
  FrameBuilder fb;
  encode_response_header(ResponseHeader{1, WireCause::kOk, 0}, fb);
  auto buf = fb.build();
  buf[1 + 8] = 250;  // cause byte out of range
  std::size_t pos = 1;
  EXPECT_THROW(decode_response_header(buf, pos), Error);
}

TEST(Codec, AckRoundTrip) {
  FrameBuilder fb;
  encode_ack(31337, fb);
  const auto buf = fb.build();
  std::size_t pos = 0;
  EXPECT_EQ(get_u8(buf, pos), static_cast<std::uint8_t>(MsgType::kAck));
  EXPECT_EQ(decode_ack(buf, pos), 31337u);
}

// ---- network ----

TEST(Network, DeliversFrames) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  std::atomic<int> received{0};
  support::Event done;
  net.set_handler(b, [&](NodeId src, Buffer payload) {
    EXPECT_EQ(src, a);
    EXPECT_EQ(payload.size(), 3u);
    if (++received == 3) done.set();
  });
  for (int i = 0; i < 3; ++i) net.post(Frame{a, b, {1, 2, 3}});
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  auto stats = net.transport_stats();
  EXPECT_EQ(stats.frames_delivered, 3u);
  EXPECT_EQ(stats.bytes_delivered, 9u);
}

TEST(Network, RemovePeerLosesTrafficAndAddPeerRevives) {
  // Sim half of the dynamic-membership contract (parity with the socket
  // backend): a departed node's frames are lost, the cut is reported, its
  // directory entries vanish, and re-admission under the same id heals.
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.directory().add("Obj", b);
  std::atomic<int> received{0};
  support::Event done;
  net.set_handler(b, [&](NodeId, Buffer) {
    ++received;
    done.set();
  });

  std::vector<std::pair<NodeId, bool>> changes;
  const auto token = net.add_membership_listener(
      [&](NodeId peer, bool added) { changes.emplace_back(peer, added); });

  EXPECT_TRUE(net.remove_peer(b));
  EXPECT_FALSE(net.remove_peer(b)) << "second eviction reports absent";
  EXPECT_TRUE(net.is_partitioned(a, b));
  EXPECT_FALSE(net.directory().lookup("Obj").has_value())
      << "eviction purges the departed node's directory entries";
  net.post(Frame{a, b, {1}});
  net.wait_quiescent();
  EXPECT_EQ(net.transport_stats().frames_lost, 1u);
  EXPECT_EQ(received.load(), 0);

  net.add_peer(b, "b", "");  // revival: same dense id rejoins
  EXPECT_FALSE(net.is_partitioned(a, b));
  net.set_handler(b, [&](NodeId, Buffer) {
    ++received;
    done.set();
  });
  net.post(Frame{a, b, {2}});
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(received.load(), 1);

  EXPECT_THROW(net.add_peer(77, "sparse", ""), Error)
      << "sim node ids stay dense";
  net.add_peer(a, "a", "");  // already live: the peer set does not change
  net.add_peer(b, "b", "");
  EXPECT_FALSE(net.is_partitioned(a, b));
  ASSERT_EQ(changes.size(), 2u) << "re-adding a live peer fires no listener";
  EXPECT_EQ(changes[0], (std::pair<NodeId, bool>{b, false}));
  EXPECT_EQ(changes[1], (std::pair<NodeId, bool>{b, true}));
  net.remove_membership_listener(token);
}

TEST(Network, RemovePeerPurgesInFlightFrames) {
  // Frames already scheduled towards the victim die with it — the sim
  // analog of the socket backend dropping a removed peer's send queue.
  Network net(LinkLatency{std::chrono::microseconds(50000), {}});
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  std::atomic<int> received{0};
  net.set_handler(b, [&](NodeId, Buffer) { ++received; });
  for (int i = 0; i < 4; ++i) net.post(Frame{a, b, {}});  // 50ms in flight
  EXPECT_TRUE(net.remove_peer(b));
  net.wait_quiescent();
  EXPECT_EQ(received.load(), 0);
  EXPECT_EQ(net.transport_stats().frames_lost, 4u);
}

TEST(Network, DropsFramesForUnknownOrHandlerlessNodes) {
  Network net;
  const NodeId a = net.add_node("a");
  net.add_node("b");  // no handler
  net.post(Frame{a, 1, {}});
  net.post(Frame{a, 77, {}});  // unknown
  net.wait_quiescent();
  EXPECT_EQ(net.transport_stats().frames_dropped, 2u);
}

TEST(Network, LatencyDelaysDelivery) {
  Network net(LinkLatency{std::chrono::microseconds(20000), {}});
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  support::Event done;
  net.set_handler(b, [&](NodeId, Buffer) { done.set(); });
  const auto begin = std::chrono::steady_clock::now();
  net.post(Frame{a, b, {}});
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  EXPECT_GE(std::chrono::steady_clock::now() - begin,
            std::chrono::microseconds(18000));
}

TEST(Network, PerLinkOverrideApplies) {
  Network net(LinkLatency{std::chrono::microseconds(50000), {}});
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.set_link_latency(a, b, LinkLatency{});  // fast lane
  support::Event done;
  net.set_handler(b, [&](NodeId, Buffer) { done.set(); });
  const auto begin = std::chrono::steady_clock::now();
  net.post(Frame{a, b, {}});
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(40));
}

TEST(Network, ZeroLatencyFramesKeepFifoOrder) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  std::vector<std::uint8_t> order;
  support::Event done;
  net.set_handler(b, [&](NodeId, Buffer payload) {
    order.push_back(payload[0]);
    if (order.size() == 10) done.set();
  });
  for (std::uint8_t i = 0; i < 10; ++i) net.post(Frame{a, b, {i}});
  EXPECT_TRUE(done.wait_for(std::chrono::seconds(5)));
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Network, DuplicationDeliversExtraCopies) {
  Network net(LinkLatency{}, /*seed=*/11);
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkFaults faults;
  faults.duplicate = 1.0;
  faults.duplicate_jitter = std::chrono::microseconds(100);
  net.set_link_faults(a, b, faults);
  std::atomic<int> received{0};
  net.set_handler(b, [&](NodeId, Buffer) { ++received; });
  for (int i = 0; i < 5; ++i) net.post(Frame{a, b, {1}});
  net.wait_quiescent();
  EXPECT_EQ(received.load(), 10);
  EXPECT_EQ(net.fault_stats().frames_duplicated, 5u);
}

TEST(Network, ScriptedPartitionActivatesAndHealsByFrameCount) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  std::atomic<int> received{0};
  net.set_handler(b, [&](NodeId, Buffer) { ++received; });
  // Cut activates after 3 posted frames and heals after 4 more.
  net.schedule_partition(a, b, 3, 4);
  EXPECT_FALSE(net.is_partitioned(a, b));
  for (int i = 0; i < 3; ++i) net.post(Frame{a, b, {1}});
  EXPECT_TRUE(net.is_partitioned(a, b));
  for (int i = 0; i < 4; ++i) net.post(Frame{a, b, {1}});  // all eaten
  EXPECT_FALSE(net.is_partitioned(a, b));
  for (int i = 0; i < 2; ++i) net.post(Frame{a, b, {1}});
  net.wait_quiescent();
  EXPECT_EQ(received.load(), 5);  // 3 before + 2 after
  EXPECT_EQ(net.transport_stats().frames_lost, 4u);
}

// ---- RPC ----

/// Dictionary-ish test object: echoes and doubles.
class EchoService {
 public:
  EchoService() : obj_("Echo") {
    auto dbl = obj_.define_entry({.name = "Double", .params = 1, .results = 1});
    obj_.implement(dbl, [](BodyCtx& ctx) -> ValueList {
      return {Value(ctx.param(0).as_int() * 2)};
    });
    auto boom = obj_.define_entry({.name = "Boom", .params = 0, .results = 0});
    obj_.implement(boom, [](BodyCtx&) -> ValueList {
      throw std::runtime_error("remote failure");
    });
    auto notify = obj_.define_entry({.name = "Notify", .params = 1, .results = 0});
    obj_.implement(notify, [](BodyCtx& ctx) -> ValueList {
      // Reply via the channel passed as a parameter — the paper's "user can
      // communicate with an executing remote procedure" path.
      ctx.param(0).as_channel()->send(vals("done"));
      return {};
    });
    obj_.start();
  }
  Object& object() { return obj_; }

 private:
  Object obj_;
};

struct RpcRig {
  Network net;
  Node client{net, "client"};
  Node server{net, "server"};
  EchoService service;
  RemoteObject echo;

  RpcRig() {
    server.host(service.object());
    echo = client.remote(server.id(), "Echo");
  }
};

TEST(Rpc, RemoteCallRoundTrip) {
  RpcRig rig;
  auto r = rig.echo.call("Double", vals(21), {});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].as_int(), 42);
  EXPECT_EQ(rig.client.inflight(), 0u);
}

TEST(Rpc, ManyConcurrentCalls) {
  RpcRig rig;
  std::vector<RpcHandle> handles;
  for (int i = 0; i < 50; ++i) {
    handles.push_back(rig.echo.async_call("Double", vals(i), {}));
  }
  for (int i = 0; i < 50; ++i) {
    auto r = handles[static_cast<size_t>(i)].result();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0].as_int(), 2 * i);
  }
}

TEST(Rpc, RemoteErrorSurfacesTypedCause) {
  RpcRig rig;
  auto r = rig.echo.call("Boom", {}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kRemoteError);
  EXPECT_NE(std::string(r.error().what()).find("remote failure"),
            std::string::npos);
}

TEST(Rpc, UnknownObjectFailsWithObjectNotFound) {
  RpcRig rig;
  auto missing = rig.client.remote(rig.server.id(), "NoSuchObject");
  auto r = missing.call("X", {}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kObjectNotFound);
}

TEST(Rpc, UnknownEntryFailsAsRemoteError) {
  RpcRig rig;
  auto r = rig.echo.call("NoSuchEntry", {}, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kRemoteError);
}

TEST(Rpc, ChannelParameterFlowsBack) {
  RpcRig rig;
  ChannelRef reply = make_channel("reply");
  ASSERT_TRUE(rig.echo.call("Notify", vals(reply), {}).ok());
  // The body ran on the server and sent through a proxy; the message must
  // arrive on the client's original channel.
  auto msg = reply->receive_for(std::chrono::seconds(5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ((*msg)[0].as_string(), "done");
}

TEST(Rpc, WithLatencyStillCorrect) {
  Network net(LinkLatency{std::chrono::microseconds(2000),
                          std::chrono::microseconds(1000)});
  Node client(net, "client");
  Node server(net, "server");
  EchoService service;
  server.host(service.object());
  auto echo = client.remote(server.id(), "Echo");
  for (int i = 0; i < 10; ++i) {
    auto r = echo.call("Double", vals(i), {});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0].as_int(), 2 * i);
  }
}

TEST(Rpc, ManagerInterceptedObjectCallableRemotely) {
  // A managed object behind RPC: the manager's scheduling still governs.
  Network net;
  Node client(net, "client");
  Node server(net, "server");

  Object obj("Counter");
  auto inc = obj.define_entry({.name = "Inc", .params = 0, .results = 1});
  int count = 0;
  obj.implement(inc, [&](BodyCtx&) -> ValueList { return {Value(++count)}; });
  obj.set_manager({intercept(inc)}, [&](Manager& m) {
    while (!m.stop_requested()) m.execute(m.accept(inc));
  });
  obj.start();
  server.host(obj);

  auto counter = client.remote(server.id(), "Counter");
  EXPECT_EQ(counter.call("Inc", {}, {}).value()[0].as_int(), 1);
  EXPECT_EQ(counter.call("Inc", {}, {}).value()[0].as_int(), 2);
  obj.stop();
}

// ---- supervision × RPC: the typed taxonomy crosses the wire ----

TEST(Rpc, QuarantinedObjectSurfacesObjectDown) {
  Network net;
  Node client(net, "client");
  Node server(net, "server");

  Object obj("Fragile",
             ObjectOptions{.supervision = {.mode = SupervisionMode::kQuarantine}});
  auto work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work)}, [&](Manager& m) {
    m.accept(work);
    throw std::runtime_error("manager crashed");
  });
  obj.start();
  server.host(obj);

  auto fragile = client.remote(server.id(), "Fragile");
  // The crash-triggering call itself comes back typed: the pending hosted
  // call is failed with kObjectDown when the quarantine takes effect.
  auto r1 = fragile.call("Work", {}, {});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().cause(), RpcCause::kObjectDown);
  EXPECT_EQ(r1.error().code(), ErrorCode::kObjectDown);
  EXPECT_TRUE(obj.quarantined());

  // Later calls are refused at dispatch with the same cause.
  auto r2 = fragile.call("Work", {}, {});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().cause(), RpcCause::kObjectDown);
  obj.stop();
}

TEST(Rpc, RequestDeadlineEnforcedByServingKernel) {
  // Drive the server with a hand-built request frame so the *server-side*
  // deadline path is observed directly: the response must come back with
  // WireCause::kTimeout, independent of any client retry timer.
  Network net;
  Node server(net, "server");
  const NodeId raw = net.add_node("raw-client");
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> responses;
  support::Event got_response;
  net.set_handler(raw, [&](NodeId, Buffer payload) {
    std::scoped_lock lock(mu);
    responses.emplace_back(payload.data(), payload.data() + payload.size());
    got_response.set();
  });

  Object obj("Stall");
  auto work = obj.define_entry({.name = "Work", .params = 0, .results = 0});
  auto never = obj.define_entry({.name = "Never", .params = 0, .results = 0});
  obj.implement(work, [](BodyCtx&) -> ValueList { return {}; });
  obj.implement(never, [](BodyCtx&) -> ValueList { return {}; });
  obj.set_manager({intercept(work), intercept(never)}, [&](Manager& m) {
    for (;;) m.execute(m.accept(never));  // Work is never admitted
  });
  obj.start();
  server.host(obj);

  FrameBuilder payload;
  encode_request_header(
      RequestHeader{/*req_id=*/1, /*epoch=*/7, /*ack_through=*/0,
                    /*deadline_ms=*/50, "Stall", "Work"},
      payload);
  encode_list({}, payload);
  net.post(raw, server.id(), std::move(payload));

  ASSERT_TRUE(got_response.wait_for(std::chrono::seconds(5)));
  std::scoped_lock lock(mu);
  ASSERT_EQ(responses.size(), 1u);
  std::size_t pos = 0;
  ASSERT_EQ(get_u8(responses[0], pos),
            static_cast<std::uint8_t>(MsgType::kResponse));
  const ResponseHeader header = decode_response_header(responses[0], pos);
  EXPECT_EQ(header.req_id, 1u);
  EXPECT_EQ(header.cause, WireCause::kTimeout);
  const std::string error = get_string(responses[0], pos);
  EXPECT_NE(error.find("deadline"), std::string::npos);
  obj.stop();
}

}  // namespace
}  // namespace alps::net
