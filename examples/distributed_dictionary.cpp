// Distribution (§1): "calls to the entry procedures of an object are
// implemented as remote procedure calls; a user can further communicate with
// an executing remote procedure using message passing on point-to-point
// channels."
//
// One process on the *simulated* network: a dictionary object with its
// combining manager on a server node, clients calling Search over RPC by
// object name, channels as parameters, a lossy phase under retries, and a
// multiactive phase.
#include <chrono>
#include <cstdio>
#include <vector>

#include "apps/dictionary.h"
#include "core/alps.h"
#include "net/net.h"
#include "support/rng.h"

namespace {

using namespace alps;

int run_sim_demo() {
  // A 3-node network with 200±100us link latency.
  net::Network network(net::LinkLatency{std::chrono::microseconds(200),
                                        std::chrono::microseconds(100)},
                       /*seed=*/7);
  net::Node server(network, "server");
  net::Node client_a(network, "client-a");
  net::Node client_b(network, "client-b");

  // The dictionary (manager, hidden array, combining) lives on the server.
  auto words = support::make_word_list(32);
  apps::Dictionary dict(words, {.search_max = 8,
                                .search_time = std::chrono::microseconds(500)});
  server.host(dict.object());

  // A side object demonstrating channels as RPC parameters.
  Object reporter("Reporter");
  EntryRef watch = reporter.define_entry({.name = "Watch", .params = 2, .results = 0});
  reporter.implement(watch, [](BodyCtx& ctx) -> ValueList {
    const auto n = ctx.param(0).as_int();
    const ChannelRef progress = ctx.param(1).as_channel();
    for (std::int64_t i = 1; i <= n; ++i) {
      progress->send(vals(i, n));  // streams across the simulated network
    }
    return {};
  });
  reporter.start();
  server.host(reporter);

  // Clients call by object *name* — host() registered "Dictionary" in the
  // cluster directory, so nobody needs to know which node it lives on
  // (location transparency, DESIGN.md §4.7). Frame batching coalesces the
  // burst of requests/responses on each link.
  client_a.set_batching({});  // defaults: envelopes of up to 8 frames
  client_b.set_batching({});
  server.set_batching({});
  auto remote_dict_a = client_a.remote("Dictionary");
  auto remote_dict_b = client_b.remote("Dictionary");

  support::ZipfGenerator zipf(words.size(), 1.1, 3);
  std::vector<net::RpcHandle> calls;
  for (int i = 0; i < 30; ++i) {
    auto& proxy = (i % 2 == 0) ? remote_dict_a : remote_dict_b;
    calls.push_back(proxy.async_call("Search", vals(words[zipf.next()]), {}));
  }
  for (auto& c : calls) {
    auto r = c.result();
    std::printf("remote search -> %s\n",
                r.ok() ? r.value()[0].as_string().c_str() : r.error().what());
  }
  const auto s = dict.stats();
  std::printf("server combined %llu of %llu remote requests\n",
              static_cast<unsigned long long>(s.combined),
              static_cast<unsigned long long>(s.requests));
  const auto ab = client_a.batch_stats();
  std::printf("client-a batching: %llu frames flushed as %llu batches + "
              "%llu singles\n",
              static_cast<unsigned long long>(ab.frames_enqueued),
              static_cast<unsigned long long>(ab.batches_posted),
              static_cast<unsigned long long>(ab.singles_posted));

  // Channel across the network: client passes a reply channel to the
  // executing remote procedure.
  ChannelRef progress = make_channel("progress");
  auto remote_reporter = client_a.remote("Reporter");
  if (!remote_reporter.call("Watch", vals(5, progress), {}).ok()) return 1;
  for (int i = 0; i < 5; ++i) {
    ValueList update = progress->receive();
    std::printf("progress from remote procedure: %lld/%lld\n",
                static_cast<long long>(update[0].as_int()),
                static_cast<long long>(update[1].as_int()));
  }

  // Lossy phase: 15% of frames vanish, but retries + the server's
  // at-most-once table keep every search exactly-once.
  network.set_loss_probability(0.15);
  net::CallOptions reliable;
  reliable.retry = net::RetryPolicy{};
  const auto dict_before = dict.stats().requests;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = remote_dict_a.call("Search", vals(words[zipf.next()]), reliable);
    if (r.ok()) ++completed;
  }
  const auto cs = client_a.client_stats();
  const auto ss = server.server_stats();
  std::printf(
      "lossy phase: %d/20 searches completed, %llu retransmits, "
      "%llu dedup hits, server executed %llu (exactly one per call)\n",
      completed, static_cast<unsigned long long>(cs.retransmits),
      static_cast<unsigned long long>(ss.dedup_replayed + ss.dup_in_flight +
                                      ss.dup_acked),
      static_cast<unsigned long long>(dict.stats().requests - dict_before));

  const auto net_stats = network.transport_stats();
  std::printf("network: %llu frames, %llu bytes, %llu lost\n",
              static_cast<unsigned long long>(net_stats.frames_delivered),
              static_cast<unsigned long long>(net_stats.bytes_delivered),
              static_cast<unsigned long long>(net_stats.frames_lost));

  // Multiactive phase (DESIGN.md §4.8): a second dictionary whose Search
  // entries are annotated compatible with each other, so remote searches
  // overlap inside the object without per-call manager turns; Insert is a
  // serial group and runs in exclusion.
  network.set_loss_probability(0.0);
  apps::Dictionary ma_dict(
      words, {.search_time = std::chrono::microseconds(500),
              .multiactive = true,
              .object_name = "MultiactiveDictionary"});
  server.host(ma_dict.object());
  auto remote_ma = client_b.remote("MultiactiveDictionary");
  if (!remote_ma.call("Insert", vals(std::string("alps"),
                                     std::string("a language for processes")),
                      {})
           .ok()) {
    return 1;
  }
  std::vector<net::RpcHandle> ma_calls;
  for (int i = 0; i < 20; ++i) {
    ma_calls.push_back(remote_ma.async_call(
        "Search", vals(i % 4 == 0 ? std::string("alps") : words[zipf.next()]),
        {}));
  }
  int ma_ok = 0;
  for (auto& c : ma_calls) {
    if (c.result().ok()) ++ma_ok;
  }
  std::uint64_t ma_concurrent = 0, ma_blocked = 0;
  for (const auto& e : ma_dict.object().stats().entries) {
    ma_concurrent += e.ma_concurrent_starts;
    ma_blocked += e.ma_conflict_blocks;
  }
  std::printf(
      "multiactive phase: %d/20 remote searches ok, %llu concurrent starts, "
      "%llu conflict blocks\n",
      ma_ok, static_cast<unsigned long long>(ma_concurrent),
      static_cast<unsigned long long>(ma_blocked));

  reporter.stop();
  return 0;
}

}  // namespace

int main() { return run_sim_demo(); }
