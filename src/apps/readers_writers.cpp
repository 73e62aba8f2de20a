#include "apps/readers_writers.h"

#include <thread>

namespace alps::apps {

ReadersWritersDb::ReadersWritersDb(Options options)
    : options_(options),
      obj_("Database", ObjectOptions{.model = options.model,
                                     .pool_workers = options.pool_workers}) {
  // --- definition part: Read and Write appear as single procedures ---
  if (options_.multiactive) {
    // Compatibility annotations (DESIGN.md §4.8): reads overlap each other,
    // writes conflict with everything (including other writes).
    read_ = obj_.define_entry(
        EntryDecl{.name = "Read", .params = 1, .results = 1}.compatible_with(
            {"Read"}));
    write_ = obj_.define_entry(
        EntryDecl{.name = "Write", .params = 2, .results = 0}.serial_group());
  } else {
    read_ = obj_.define_entry({.name = "Read", .params = 1, .results = 1});
    write_ = obj_.define_entry({.name = "Write", .params = 2, .results = 0});
  }

  // --- implementation part: Read is a hidden array Read[1..ReadMax] ---
  obj_.implement(read_, ImplDecl{.array = options_.read_max},
                 [this](BodyCtx& ctx) -> ValueList {
                   const int now = ++readers_active_;
                   int prev = max_readers_.load();
                   while (now > prev &&
                          !max_readers_.compare_exchange_weak(prev, now)) {
                   }
                   if (writers_active_.load() > 0) violated_ = true;
                   if (options_.read_time.count() > 0) {
                     std::this_thread::sleep_for(options_.read_time);
                   }
                   auto it = table_.find(ctx.param(0).as_int());
                   const std::int64_t data =
                       it == table_.end() ? 0 : it->second;
                   ++reads_;
                   --readers_active_;
                   return {Value(data)};
                 });
  obj_.implement(write_, [this](BodyCtx& ctx) -> ValueList {
    if (++writers_active_ > 1 || readers_active_.load() > 0) violated_ = true;
    if (options_.write_time.count() > 0) {
      std::this_thread::sleep_for(options_.write_time);
    }
    table_[ctx.param(0).as_int()] = ctx.param(1).as_int();
    ++writes_;
    --writers_active_;
    return {};
  });

  if (options_.multiactive) {
    // --- manager: compat-gated dispatch. The kernel's compatibility gate
    // subsumes the paper's ReadCount/WriterLast bookkeeping: the gate opens
    // only when the call is compatible with every in-flight group AND no
    // older incompatible call is waiting (arrival-order fairness), and
    // ReadMax is still enforced by the hidden array's slot count. Bodies
    // complete their callers directly — no await/finish turns.
    obj_.set_manager({intercept(read_), intercept(write_)}, [this](Manager& m) {
      Select()
          .on(accept_guard(read_).compatible().then([&](Accepted a) {
            m.start_compatible(a);
            // Drain any reads that piled up while we slept — one batch,
            // one lock, one executor wakeup.
            m.start_compatible_pending(read_);
          }))
          .on(accept_guard(write_).compatible().then([&](Accepted a) {
            m.start_compatible(a);
          }))
          .loop(m);
    });
    obj_.start();
    return;
  }

  // --- manager: the paper's protocol, verbatim ---
  obj_.set_manager(
      {intercept(read_), intercept(write_)}, [this](Manager& m) {
        std::size_t read_count = 0;  // active readers
        bool writer_last = false;    // a writer has just used the database
        Select()
            .on(accept_guard(read_)
                    .when([this, &read_count, &writer_last](const ValueList&) {
                      return (obj_.pending(write_) == 0 || writer_last) &&
                             read_count < options_.read_max;
                    })
                    .then([&](Accepted a) {
                      m.start(a);
                      ++read_count;
                      writer_last = false;
                    }))
            .on(await_guard(read_).then([&](Awaited w) {
              m.finish(w);
              --read_count;
            }))
            .on(accept_guard(write_)
                    .when([this, &read_count, &writer_last](const ValueList&) {
                      return read_count == 0 &&
                             (obj_.pending(read_) == 0 || !writer_last);
                    })
                    .then([&](Accepted a) {
                      m.execute(a);  // writers run in exclusion
                      writer_last = true;
                    }))
            .loop(m);
      });
  obj_.start();
}

ReadersWritersDb::~ReadersWritersDb() { obj_.stop(); }

std::int64_t ReadersWritersDb::read(std::int64_t key) {
  return obj_.call(read_, vals(key))[0].as_int();
}

void ReadersWritersDb::write(std::int64_t key, std::int64_t data) {
  obj_.call(write_, vals(key, data));
}

CallHandle ReadersWritersDb::async_read(std::int64_t key) {
  return obj_.async_call(read_, vals(key));
}

CallHandle ReadersWritersDb::async_write(std::int64_t key, std::int64_t data) {
  return obj_.async_call(write_, vals(key, data));
}

ReadersWritersDb::Invariants ReadersWritersDb::invariants() const {
  return Invariants{max_readers_.load(), violated_.load(), reads_.load(),
                    writes_.load()};
}

}  // namespace alps::apps
