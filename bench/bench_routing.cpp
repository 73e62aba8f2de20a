// E15 (§4): location-transparent routing and frame batching — frames/call
// and throughput vs batch size × fan-in, A/B against direct addressing.
//
// Two benches:
//
//  * BM_BatchedThroughput sweeps fan_in ∈ {1, 4} client nodes × batch size
//    ∈ {0 (batching off), 8, 32}. Each iteration every client issues a
//    window of 32 pipelined name-based async calls and waits for them all.
//    The headline counter is frames_per_call — total Network frames posted
//    (requests, responses, acks, batch envelopes) divided by completed
//    calls. Expected shape: ~2 frames/call with batching off (one request
//    + one response), dropping under 0.5 once size-8 coalescing engages on
//    both directions of every link, and a little further at 32.
//
//  * BM_CallLatency A/Bs one synchronous call per iteration: direct
//    addressing (explicit target node, no batcher) vs name-based routing
//    with batching off / batch size 1 / batch size 8. Name resolution is a
//    local directory lookup, and on an idle link the batcher sends a frame
//    at once, raw, on the enqueuing thread — whatever the batch size — so
//    the named batch-1 and batch-8 rows must both sit within ~10% of the
//    direct row. Batching only coalesces behind a write in flight.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "bench_util.h"

#include "core/alps.h"
#include "net/net.h"

namespace {

using namespace alps;

struct Service {
  Object obj{"Svc"};
  Service() {
    auto echo = obj.define_entry({.name = "Echo", .params = 1, .results = 1});
    obj.implement(echo, [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
    obj.start();
  }
  ~Service() { obj.stop(); }
};

net::BatchOptions batch_options(std::int64_t max_frames) {
  net::BatchOptions options;
  options.max_frames = static_cast<std::size_t>(max_frames);
  return options;  // default byte bound
}

void BM_BatchedThroughput(benchmark::State& state) {
  const auto fan_in = static_cast<std::size_t>(state.range(0));
  const std::int64_t batch = state.range(1);
  constexpr int kWindow = 32;  // pipelined calls per client per iteration

  net::Network network(net::LinkLatency{std::chrono::microseconds(20), {}},
                       /*seed=*/20260806);
  net::Node server(network, "server");
  Service svc;
  server.host(svc.obj);
  if (batch > 0) server.set_batching(batch_options(batch));

  std::vector<std::unique_ptr<net::Node>> clients;
  for (std::size_t i = 0; i < fan_in; ++i) {
    clients.push_back(std::make_unique<net::Node>(
        network, "client" + std::to_string(i)));
    if (batch > 0) clients.back()->set_batching(batch_options(batch));
  }

  const auto frames_before = network.transport_stats().frames_posted;
  std::int64_t calls = 0;
  std::vector<net::RpcHandle> handles;
  handles.reserve(fan_in * kWindow);
  for (auto _ : state) {
    handles.clear();
    for (auto& client : clients) {
      for (int k = 0; k < kWindow; ++k) {
        handles.push_back(client->async_call("Svc", "Echo", vals(1)));
      }
    }
    for (auto& h : handles) {
      benchmark::DoNotOptimize(h.result().ok());
    }
    calls += static_cast<std::int64_t>(handles.size());
  }
  const auto frames = network.transport_stats().frames_posted - frames_before;

  state.counters["frames_per_call"] = benchmark::Counter(
      static_cast<double>(frames) /
      static_cast<double>(std::max<std::int64_t>(calls, 1)));
  if (batch > 0) {
    net::FrameBatcher::Stats agg = server.batch_stats();
    for (auto& client : clients) {
      const auto s = client->batch_stats();
      agg.frames_coalesced += s.frames_coalesced;
      agg.batches_posted += s.batches_posted;
      agg.frames_enqueued += s.frames_enqueued;
    }
    state.counters["coalesced_fraction"] = benchmark::Counter(
        static_cast<double>(agg.frames_coalesced) /
        static_cast<double>(std::max<std::uint64_t>(agg.frames_enqueued, 1)));
    state.counters["members_per_batch"] = benchmark::Counter(
        static_cast<double>(agg.frames_coalesced) /
        static_cast<double>(std::max<std::uint64_t>(agg.batches_posted, 1)));
  }
  state.SetItemsProcessed(calls);
}

// 30 iterations × fan_in × 32 calls per row: up to ~3.8k calls on the widest
// row, enough for the coalescing ratios to dominate edge effects (route
// warm-up, trailing idle acks).
BENCHMARK(BM_BatchedThroughput)
    ->ArgNames({"fan_in", "batch"})
    ->Args({1, 0})
    ->Args({1, 8})
    ->Args({1, 32})
    ->Args({4, 0})
    ->Args({4, 8})
    ->Args({4, 32})
    ->Iterations(30)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CallLatency(benchmark::State& state) {
  const bool named = state.range(0) != 0;
  const std::int64_t batch = state.range(1);

  net::Network network(net::LinkLatency{std::chrono::microseconds(100), {}},
                       /*seed=*/20260806);
  net::Node client(network, "client");
  net::Node server(network, "server");
  Service svc;
  server.host(svc.obj);
  if (batch > 0) {
    client.set_batching(batch_options(batch));
    server.set_batching(batch_options(batch));
  }
  auto direct = client.remote(server.id(), "Svc");
  auto by_name = client.remote("Svc");

  std::vector<double> latency_us;
  std::int64_t completed = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    auto r = named ? by_name.call("Echo", vals(1), net::CallOptions{})
                   : direct.call("Echo", vals(1), net::CallOptions{});
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    if (r.ok()) ++completed;
  }

  std::sort(latency_us.begin(), latency_us.end());
  const auto pct = [&](double q) {
    if (latency_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latency_us.size() - 1));
    return latency_us[idx];
  };
  state.counters["p50_us"] = benchmark::Counter(pct(0.50));
  state.counters["p99_us"] = benchmark::Counter(pct(0.99));
  state.SetItemsProcessed(completed);
}

BENCHMARK(BM_CallLatency)
    ->ArgNames({"named", "batch"})
    ->Args({0, 0})   // direct addressing, no batcher — the baseline
    ->Args({1, 0})   // name-based, no batcher
    ->Args({1, 1})   // name-based, batch size 1: flushed raw, ≈ baseline
    ->Args({1, 8})   // name-based, batch 8: idle link still sends at once
    ->Iterations(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

ALPS_BENCH_MAIN()
