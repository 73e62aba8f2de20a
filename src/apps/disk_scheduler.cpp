#include "apps/disk_scheduler.h"

#include <cstdlib>
#include <thread>

namespace alps::apps {

DiskScheduler::DiskScheduler(Options options)
    : options_(options),
      obj_("Disk", ObjectOptions{.model = options.model,
                                 .pool_workers = options.pool_workers}) {
  // --- definition: proc Access(cylinder) ---
  access_ = obj_.define_entry({.name = "Access", .params = 1, .results = 0});

  // --- implementation: the hidden parameter is the head position at start,
  // from which the body derives its seek time ---
  obj_.implement(
      access_, ImplDecl{.array = options_.queue_depth, .hidden_params = 1},
      [this](BodyCtx& ctx) -> ValueList {
        const std::int64_t cylinder = ctx.param(0).as_int();
        const std::int64_t head = ctx.param(1).as_int();
        const std::uint64_t distance =
            static_cast<std::uint64_t>(std::llabs(cylinder - head));
        total_seek_ += distance;
        ++requests_;
        if (options_.seek_time_per_cylinder.count() > 0) {
          std::this_thread::sleep_for(options_.seek_time_per_cylinder *
                                      static_cast<int>(distance));
        }
        return {};
      });

  // --- manager ---
  obj_.set_manager(
      {intercept(access_).params(1)}, [this](Manager& m) {
        std::int64_t head = 0;
        if (options_.policy == Policy::kShortestSeekFirst) {
          // `pri` = seek distance of the candidate request: among all
          // pending Access[i] the smallest moves first (the paper's
          // "smallest pri value will be selected").
          Select()
              .on(accept_guard(access_)
                      .pri([&head](const ValueList& p) {
                        return std::llabs(p[0].as_int() - head);
                      })
                      .then([&](Accepted a) {
                        const std::int64_t cylinder = a.params[0].as_int();
                        m.execute(a, vals(head));  // disk is serial
                        head = cylinder;
                      }))
              .loop(m);
        } else {
          // FIFO baseline: the plain accept takes requests in arrival order.
          while (!m.stop_requested()) {
            Accepted a = m.accept(access_);
            const std::int64_t cylinder = a.params[0].as_int();
            m.execute(a, vals(head));
            head = cylinder;
          }
        }
      });
  obj_.start();
}

DiskScheduler::~DiskScheduler() { obj_.stop(); }

void DiskScheduler::access(std::int64_t cylinder) {
  obj_.call(access_, vals(cylinder));
}

CallHandle DiskScheduler::async_access(std::int64_t cylinder) {
  return obj_.async_call(access_, vals(cylinder));
}

DiskScheduler::Stats DiskScheduler::stats() const {
  return Stats{requests_.load(), total_seek_.load()};
}

}  // namespace alps::apps
