#include "apps/spooler.h"

#include <deque>
#include <thread>

namespace alps::apps {

PrinterSpooler::PrinterSpooler(Options options)
    : options_(options),
      obj_("Spooler", ObjectOptions{.model = options.model,
                                    .pool_workers = options.pool_workers}) {
  for (std::size_t p = 0; p < options_.printers; ++p) {
    busy_.push_back(std::make_unique<std::atomic<int>>(0));
    jobs_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }

  // --- definition: proc Print(file, pages) ---
  print_ = obj_.define_entry({.name = "Print", .params = 2, .results = 0});

  // --- implementation: Print[1..PrintMax] with a hidden printer-number
  // parameter and a hidden printer-number result ---
  obj_.implement(
      print_, ImplDecl{.array = options_.print_max, .hidden_params = 1,
                       .hidden_results = 1},
      [this](BodyCtx& ctx) -> ValueList {
        const std::int64_t pages = ctx.param(1).as_int();
        const auto printer = static_cast<std::size_t>(ctx.param(2).as_int());
        if (busy_[printer]->fetch_add(1) != 0) overlap_ = true;
        std::this_thread::sleep_for(options_.page_time *
                                    static_cast<int>(pages));
        busy_[printer]->fetch_sub(1);
        jobs_[printer]->fetch_add(1);
        ++total_jobs_;
        // "the Print procedure also returns the printer number as a hidden
        // result back to the manager".
        return {Value(static_cast<std::int64_t>(printer))};
      });

  // --- manager ---
  obj_.set_manager(
      {intercept(print_)}, [this](Manager& m) {
        std::deque<std::int64_t> free_printers;
        for (std::size_t p = 0; p < options_.printers; ++p) {
          free_printers.push_back(static_cast<std::int64_t>(p));
        }
        Select()
            .on(accept_guard(print_)
                    .when([&free_printers](const ValueList&) {
                      return !free_printers.empty();
                    })
                    .then([&](Accepted a) {
                      const std::int64_t printer = free_printers.front();
                      free_printers.pop_front();
                      m.start(a, vals(printer));  // hidden parameter
                    }))
            .on(await_guard(print_).then([&](Awaited w) {
              // The hidden result is the printer to recycle.
              free_printers.push_back(w.results[0].as_int());
              m.finish(w);
            }))
            .loop(m);
      });
  obj_.start();
}

PrinterSpooler::~PrinterSpooler() { obj_.stop(); }

void PrinterSpooler::print(const std::string& file, std::int64_t pages) {
  obj_.call(print_, vals(file, pages));
}

CallHandle PrinterSpooler::async_print(const std::string& file,
                                       std::int64_t pages) {
  return obj_.async_call(print_, vals(file, pages));
}

PrinterSpooler::Stats PrinterSpooler::stats() const {
  Stats s;
  for (const auto& j : jobs_) s.jobs_per_printer.push_back(j->load());
  s.printer_overlap = overlap_.load();
  s.jobs = total_jobs_.load();
  return s;
}

}  // namespace alps::apps
