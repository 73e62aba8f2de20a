// Shared helpers for the experiment benches (see DESIGN.md §3 for the E*
// mapping and EXPERIMENTS.md for recorded results).
//
// Environment note: this reproduction typically runs on a small container
// (often a single hardware thread). Absolute throughput numbers are
// time-sliced; the *shapes* — who wins, how ratios move along a sweep —
// are the reproduction targets, because they are driven by blocking
// structure, work savings and thread-count economics rather than core count.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

namespace alps::benchutil {

/// Drop-in replacement for BENCHMARK_MAIN()'s body that adds machine-
/// readable output: when the ALPS_BENCH_JSON environment variable names a
/// file, results are written there as google-benchmark JSON *in addition to*
/// the normal console table. The `bench_all` CMake target uses this to
/// collect every kernel bench into BENCH_kernel.json at the repo root.
inline int bench_main(int argc, char** argv) {
  // Route the JSON through google-benchmark's own --benchmark_out flags
  // (injected into argv) rather than a hand-constructed JSONReporter: the
  // library refuses a custom file reporter unless the flag is also set, and
  // the flag path gives the same console-plus-file behavior for free.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  const char* json_path = std::getenv("ALPS_BENCH_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    out_flag = std::string("--benchmark_out=") + json_path;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // A --benchmark_filter that matches nothing is a failure, not an empty
  // success: bench_all would otherwise merge an empty result silently.
  return ran == 0 ? 1 : 0;
}

/// Runs `worker(thread_index)` on `n` threads and joins them all.
inline void run_threads(int n, const std::function<void(int)>& worker) {
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&worker, i] { worker(i); });
  }
}

/// Spins for roughly `us` microseconds of CPU work (not a sleep) — models
/// service demand in the manager or a body.
inline void busy_spin(std::chrono::microseconds us) {
  const auto deadline = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < deadline) {
    benchmark::DoNotOptimize(deadline);
  }
}

}  // namespace alps::benchutil

/// Use in place of BENCHMARK_MAIN() to get the JSON-capable entry point.
#define ALPS_BENCH_MAIN()                             \
  int main(int argc, char** argv) {                   \
    return ::alps::benchutil::bench_main(argc, argv); \
  }
