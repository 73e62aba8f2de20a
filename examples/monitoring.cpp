// Monitoring an object (§2.3): "the manager provides a facility for pre-
// and post-processing of entry calls which can be used not only to implement
// scheduling but also to monitor the object."
//
// A TraceCollector watches every call-lifecycle transition of a printer
// spooler under load and prints the latency decomposition: where did each
// Print call spend its time — waiting for an array slot, waiting for the
// manager to accept (i.e. for a free printer), printing, or waiting for the
// manager to endorse termination?
//
//   $ example_monitoring
#include <cstdio>

#include "core/alps.h"
#include "support/rng.h"

int main() {
  using namespace alps;

  constexpr std::size_t kPrinters = 2;

  TraceCollector collector;
  Object spooler("Spooler");
  EntryRef print = spooler.define_entry({.name = "Print", .params = 2, .results = 0});
  spooler.implement(
      print, ImplDecl{.array = 6, .hidden_params = 1, .hidden_results = 1},
      [](BodyCtx& ctx) -> ValueList {
        const auto pages = ctx.param(1).as_int();
        std::this_thread::sleep_for(std::chrono::microseconds(400) *
                                    static_cast<int>(pages));
        return {ctx.param(2)};  // hand the printer back as a hidden result
      });
  spooler.set_manager({intercept(print)}, [&](Manager& m) {
    std::deque<std::int64_t> free_printers;
    for (std::size_t p = 0; p < kPrinters; ++p) {
      free_printers.push_back(static_cast<std::int64_t>(p));
    }
    Select()
        .on(accept_guard(print)
                .when([&](const ValueList&) { return !free_printers.empty(); })
                .then([&](Accepted a) {
                  const auto printer = free_printers.front();
                  free_printers.pop_front();
                  m.start(a, vals(printer));
                }))
        .on(await_guard(print).then([&](Awaited w) {
          free_printers.push_back(w.results[0].as_int());
          m.finish(w);
        }))
        .loop(m);
  });
  spooler.set_tracer(&collector);
  spooler.start();

  // 40 jobs of 1-4 pages from 4 submitters.
  support::Rng rng(3);
  std::vector<CallHandle> jobs;
  for (int j = 0; j < 40; ++j) {
    jobs.push_back(
        spooler.async_call(print, vals("doc" + std::to_string(j),
                                       rng.next_range(1, 4))));
  }
  for (auto& j : jobs) j.get();
  spooler.stop();

  const auto report = collector.report("Print");
  std::printf("Print: %llu arrived, %llu finished, %llu failed\n",
              (unsigned long long)report.arrived,
              (unsigned long long)report.finished,
              (unsigned long long)report.failed);
  std::printf("  attach wait   (array contention) %s\n",
              report.attach_wait.summary().c_str());
  std::printf("  accept wait   (printer scarcity) %s\n",
              report.accept_wait.summary().c_str());
  std::printf("  start delay   (manager handoff)  %s\n",
              report.start_delay.summary().c_str());
  std::printf("  service time  (printing)         %s\n",
              report.service_time.summary().c_str());
  std::printf("  finish delay  (manager endorse)  %s\n",
              report.finish_delay.summary().c_str());
  std::printf("  total latency                    %s\n",
              report.total_latency.summary().c_str());
  return 0;
}
