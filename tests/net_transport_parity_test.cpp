// One set of partition scenarios run on both Transport backends: the sim
// Network and a Unix-socket pair. A cut, a mend and an eviction must look
// the same from the RPC layer on either — is_partitioned is decided once,
// in Transport, and a call across a cut or to an evicted peer fails
// kPartitioned, not a bare timeout.
#include <gtest/gtest.h>

#include <chrono>

#include "core/alps.h"
#include "net/net.h"
#include "socket_test_util.h"

namespace alps::net {
namespace {

using namespace std::chrono_literals;

struct SimBackend {
  Network net;
  Node client{net, "client"};
  Node server{net, "server"};
  Transport& client_transport() { return net; }
};

struct SocketBackend {
  SocketPaths paths{"parity"};
  SocketTransport client_t{uds_options(paths, 1, {1, 2})};
  SocketTransport server_t{uds_options(paths, 2, {1, 2})};
  Node client{client_t, "client"};
  Node server{server_t, "server"};
  Transport& client_transport() { return client_t; }
};

template <typename Backend>
class TransportParity : public ::testing::Test {
 protected:
  TransportParity() {
    auto dbl = echo_.define_entry({.name = "Double", .params = 1, .results = 1});
    echo_.implement(dbl, [](BodyCtx& ctx) -> ValueList {
      return {Value(ctx.param(0).as_int() * 2)};
    });
    echo_.start();
    b_.server.host(echo_);
    remote_ = b_.client.remote(b_.server.id(), "Echo");
  }
  ~TransportParity() override { echo_.stop(); }

  Transport& transport() { return b_.client_transport(); }
  NodeId client() const { return b_.client.id(); }
  NodeId server() const { return b_.server.id(); }

  /// A call that retries until it is answered or `deadline` passes.
  Result<ValueList, RpcError> call(std::int64_t x, std::chrono::milliseconds deadline) {
    CallOptions opts;
    opts.retry = RetryPolicy{};
    opts.deadline = deadline;
    return remote_.call("Double", vals(x), opts);
  }

  Backend b_;
  Object echo_{"Echo"};
  RemoteObject remote_;
};

using Backends = ::testing::Types<SimBackend, SocketBackend>;
TYPED_TEST_SUITE(TransportParity, Backends);

TYPED_TEST(TransportParity, CutIsSymmetricAndFailsPartitioned) {
  ASSERT_TRUE(this->call(1, 30s).ok());
  this->transport().cut(this->client(), this->server());
  EXPECT_TRUE(this->transport().is_partitioned(this->client(), this->server()));
  EXPECT_TRUE(this->transport().is_partitioned(this->server(), this->client()));
  auto r = this->call(2, 300ms);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kPartitioned);
}

TYPED_TEST(TransportParity, MendLetsTheNextCallSucceed) {
  ASSERT_TRUE(this->call(1, 30s).ok());
  this->transport().cut(this->server(), this->client());
  ASSERT_FALSE(this->call(2, 100ms).ok());
  this->transport().mend(this->client(), this->server());
  EXPECT_FALSE(this->transport().is_partitioned(this->client(), this->server()));
  EXPECT_FALSE(this->transport().is_partitioned(this->server(), this->client()));
  auto r = this->call(3, 30s);
  ASSERT_TRUE(r.ok()) << r.error().what();
  EXPECT_EQ(r.value()[0].as_int(), 6);
}

TYPED_TEST(TransportParity, EvictedPeerFailsPartitioned) {
  ASSERT_TRUE(this->call(1, 30s).ok());
  ASSERT_TRUE(this->transport().remove_peer(this->server()));
  EXPECT_TRUE(this->transport().is_partitioned(this->client(), this->server()));
  auto r = this->call(2, 300ms);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().cause(), RpcCause::kPartitioned)
      << "an evicted peer is the permanent cut on both backends";
}

}  // namespace
}  // namespace alps::net
