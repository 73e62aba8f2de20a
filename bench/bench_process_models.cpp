// E7 (§3): process models for hidden procedure arrays.
//
// A bursty load hits an object whose entry is implemented as P[1..64]. Rows
// compare the three §3 strategies:
//   slot-bound — 64 threads created eagerly at object creation (the paper's
//                "the operating system may be burdened with too many
//                processes of which only a few might be active");
//   pooled(M)  — M << 64 workers, assigned at start time ("helps to
//                minimize the number of processes required");
//   dynamic    — a thread created per call (the expensive option the paper
//                warns about: "in many operating systems dynamic process
//                creation is expensive");
//   inline     — a fourth model, not the paper's: the entry declares
//                ImplDecl::inline_start and the manager thread runs each
//                body itself at start (DESIGN.md §4.13). The fallback model
//                is dynamic, so `threads_created` counts bodies that left
//                the manager (none here).
// Counter `threads_created` is the §3 cost metric; time is the burst
// completion latency. The rows run 20 µs bodies; inline and pooled(8) also
// run empty ones, the two sides of inline's trade-off: it saves the
// handoffs of a short body and serializes long ones on the manager.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/alps.h"

namespace {

using namespace alps;
using namespace std::chrono_literals;

constexpr std::size_t kArray = 64;
constexpr int kBurst = 48;       // concurrent calls per burst
constexpr int kBursts = 4;

void bench_model(benchmark::State& state, sched::ProcessModel model,
                 std::size_t pool_workers,
                 std::chrono::microseconds body = 20us,
                 bool inline_start = false) {
  Object obj("Burst", ObjectOptions{.model = model, .pool_workers = pool_workers});
  auto e = obj.define_entry({.name = "Work", .params = 1, .results = 1});
  obj.implement(e, ImplDecl{.array = kArray, .inline_start = inline_start},
                [body](BodyCtx& ctx) -> ValueList {
                  benchutil::busy_spin(body);
                  return {ctx.param(0)};
                });
  obj.set_manager({intercept(e)}, [&](Manager& m) {
    Select()
        .on(accept_guard(e).then([&m](Accepted a) { m.start(a); }))
        .on(await_guard(e).then([&m](Awaited w) { m.finish(w); }))
        .loop(m);
  });
  obj.start();

  for (auto _ : state) {
    for (int b = 0; b < kBursts; ++b) {
      std::vector<CallHandle> handles;
      handles.reserve(kBurst);
      for (int i = 0; i < kBurst; ++i) {
        handles.push_back(obj.async_call(e, vals(i)));
      }
      for (auto& h : handles) h.get();
    }
  }
  state.SetItemsProcessed(state.iterations() * kBurst * kBursts);
  state.counters["threads_created"] =
      static_cast<double>(obj.stats().threads_created);
  obj.stop();
}

void BM_SlotBound(benchmark::State& state) {
  bench_model(state, sched::ProcessModel::kSlotBound, 0);
}
void BM_Pooled(benchmark::State& state) {
  bench_model(state, sched::ProcessModel::kPooled,
              static_cast<std::size_t>(state.range(0)));
}
void BM_Dynamic(benchmark::State& state) {
  bench_model(state, sched::ProcessModel::kDynamic, 0);
}
/// Pooled(8) with empty bodies: the reference for BM_InlineStart/0.
void BM_PooledEmptyBody(benchmark::State& state) {
  bench_model(state, sched::ProcessModel::kPooled,
              static_cast<std::size_t>(state.range(0)), 0us);
}
/// Arg: body cost in µs.
void BM_InlineStart(benchmark::State& state) {
  bench_model(state, sched::ProcessModel::kDynamic, 0,
              std::chrono::microseconds(state.range(0)), /*inline_start=*/true);
}

BENCHMARK(BM_SlotBound)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Pooled)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Dynamic)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_PooledEmptyBody)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_InlineStart)->Arg(0)->Arg(20)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

ALPS_BENCH_MAIN()
