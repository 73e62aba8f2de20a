// E17 (§2.8.2, DESIGN.md §4.9): the zero-copy data plane — payload-size
// sweep with interleaved A/B against the seed's copying data plane.
//
// Rows: local in-process echo (the floor — the kernel never serializes),
// sequential RPC, and batched pipelined RPC, each at payload sizes from
// 64 B to 1 MB and in both modes (zc=1 shared/sliced payloads, zc=0 the
// seed's copy-everything behavior via set_zero_copy_data_plane(false)). A
// second sweep holds the payload at 64 KB and grows the batch window.
//
// Counters (from the process-wide support::data_plane() accounting, reset
// per row): copied_per_call / referenced_per_call are end-to-end payload
// bytes memcpy'd vs carried by reference across BOTH nodes — request
// encode, server decode, response encode, client decode, plus any batch
// envelope splices. Expected shape: with zc=1 copied_per_call stays flat
// (headers only) as payload and batch size grow and the large-payload
// throughput gap vs zc=0 exceeds 2×; at 64 B the two modes are within
// noise (below kZeroCopySliceThreshold both copy into the arena).
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "core/alps.h"
#include "net/net.h"
#include "support/stats.h"

namespace {

using namespace alps;

Blob pattern(std::size_t n) {
  Blob b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 31);
  return b;
}

struct Service {
  Object obj{"Svc"};
  EntryRef echo;
  Service() {
    echo = obj.define_entry({.name = "Echo", .params = 1, .results = 1});
    obj.implement(echo,
                  [](BodyCtx& ctx) -> ValueList { return {ctx.param(0)}; });
    obj.start();
  }
  ~Service() { obj.stop(); }
};

/// Applies the A/B mode for a row and restores the default on scope exit.
struct ModeGuard {
  explicit ModeGuard(bool zero_copy) {
    net::set_zero_copy_data_plane(zero_copy);
    support::data_plane().reset();
  }
  ~ModeGuard() { net::set_zero_copy_data_plane(true); }
};

void report_data_plane(benchmark::State& state, std::int64_t calls) {
  const auto& dp = support::data_plane();
  const auto denom = static_cast<double>(std::max<std::int64_t>(calls, 1));
  state.counters["copied_per_call"] =
      benchmark::Counter(static_cast<double>(dp.bytes_copied.get()) / denom);
  state.counters["referenced_per_call"] = benchmark::Counter(
      static_cast<double>(dp.bytes_referenced.get()) / denom);
}

// ---- local echo (no serialization; the Value-copy cost itself) -------------

void BM_LocalEchoPayload(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const bool zc = state.range(1) != 0;
  Service svc;
  const Blob raw = pattern(bytes);
  const Value shared{Blob(raw)};  // one shared payload for the zc rows
  for (auto _ : state) {
    // zc=0 models the seed's by-value data plane, where every call handed
    // the kernel a fresh O(bytes) payload; zc=1 hands out refcounted shares
    // of one immutable payload, which is all the kernel copies ever touch.
    ValueList out = zc ? svc.obj.call(svc.echo, {shared})
                       : svc.obj.call(svc.echo, {Value(Blob(raw))});
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}

// ---- sequential RPC --------------------------------------------------------

void BM_RpcEchoPayload(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const bool zc = state.range(1) != 0;
  ModeGuard mode(zc);
  net::Network network;  // zero simulated latency: marshalling dominates
  net::Node client(network, "client");
  net::Node server(network, "server");
  Service svc;
  server.host(svc.obj);
  auto remote = client.remote(server.id(), "Svc");
  const Value payload(pattern(bytes));
  std::int64_t calls = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(remote.call("Echo", {payload}, {}));
    ++calls;
  }
  report_data_plane(state, calls);
  state.SetItemsProcessed(calls);
  state.SetBytesProcessed(calls * static_cast<std::int64_t>(bytes));
}

// ---- batched pipelined RPC -------------------------------------------------

void BM_RpcBatchedPayload(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto window = static_cast<int>(state.range(1));
  const bool zc = state.range(2) != 0;
  ModeGuard mode(zc);
  net::Network network;
  net::Node client(network, "client");
  net::Node server(network, "server");
  Service svc;
  server.host(svc.obj);
  if (window > 1) {
    net::BatchOptions options;
    options.max_frames = static_cast<std::size_t>(window);
    // The byte bound exists to cap link burstiness; here it must never
    // pre-empt the frame bound or the batch-size sweep measures flushes.
    options.max_bytes = std::size_t{1} << 30;
    client.set_batching(options);
    server.set_batching(options);
  }
  auto remote = client.remote(server.id(), "Svc");
  const Value payload(pattern(bytes));
  std::int64_t calls = 0;
  std::vector<net::RpcHandle> handles;
  handles.reserve(static_cast<std::size_t>(window));
  for (auto _ : state) {
    handles.clear();
    for (int k = 0; k < window; ++k) {
      handles.push_back(remote.async_call("Echo", {payload}, {}));
    }
    for (auto& h : handles) benchmark::DoNotOptimize(h.result().ok());
    calls += window;
  }
  report_data_plane(state, calls);
  state.SetItemsProcessed(calls);
  state.SetBytesProcessed(calls * static_cast<std::int64_t>(bytes));
}

// zc alternates fastest so every size is measured A/B back-to-back — the
// interleaving keeps thermal / allocator drift out of the comparison.
void PayloadSweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t bytes : {64, 4096, 65536, 1 << 20}) {
    for (std::int64_t zc : {0, 1}) b->Args({bytes, zc});
  }
}

void BatchedSweep(benchmark::internal::Benchmark* b) {
  // Payload sweep at a fixed window of 16...
  for (std::int64_t bytes : {64, 4096, 65536, 1 << 20}) {
    for (std::int64_t zc : {0, 1}) b->Args({bytes, 16, zc});
  }
  // ...and a batch-size sweep at a fixed 64 KB payload: copied_per_call
  // must stay flat as the window grows (envelope splices re-reference
  // slices; only zc=0 re-copies members into the envelope).
  for (std::int64_t window : {1, 4, 32}) {
    for (std::int64_t zc : {0, 1}) b->Args({65536, window, zc});
  }
}

BENCHMARK(BM_LocalEchoPayload)
    ->ArgNames({"bytes", "zc"})
    ->Apply(PayloadSweep)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_RpcEchoPayload)
    ->ArgNames({"bytes", "zc"})
    ->Apply(PayloadSweep)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_RpcBatchedPayload)
    ->ArgNames({"bytes", "window", "zc"})
    ->Apply(BatchedSweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

ALPS_BENCH_MAIN()
