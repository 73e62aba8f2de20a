#include "apps/alarm_clock.h"

namespace alps::apps {

AlarmClock::AlarmClock(Options options)
    : options_(options),
      obj_("AlarmClock", ObjectOptions{.model = options.model,
                                       .pool_workers = options.pool_workers}) {
  wake_ = obj_.define_entry({.name = "WakeMe", .params = 1, .results = 1});
  tick_ = obj_.define_entry({.name = "Tick", .params = 0, .results = 0});

  obj_.implement(wake_, ImplDecl{.array = options_.sleeper_max},
                 [this](BodyCtx&) -> ValueList {
                   // By the time the body runs the deadline has passed; the
                   // manager did all the waiting.
                   return {Value(now_.load(std::memory_order_relaxed))};
                 });
  obj_.implement(tick_, [](BodyCtx&) -> ValueList { return {}; });

  obj_.set_manager(
      {intercept(wake_).params(1), intercept(tick_)}, [this](Manager& m) {
        std::int64_t clock = 0;
        Select()
            // A sleeper is eligible only once its deadline is due
            // (acceptance condition on the intercepted parameter), and the
            // earliest deadline is released first (pri).
            .on(accept_guard(wake_)
                    .when([&clock](const ValueList& p) {
                      return p[0].as_int() <= clock;
                    })
                    .pri([](const ValueList& p) { return p[0].as_int(); })
                    .then([&](Accepted a) { m.start(a); }))
            .on(await_guard(wake_).then([&](Awaited w) { m.finish(w); }))
            .on(accept_guard(tick_).then([&](Accepted a) {
              ++clock;
              now_.store(clock, std::memory_order_relaxed);
              m.execute(a);
            }))
            .loop(m);
      });
  obj_.start();
}

AlarmClock::~AlarmClock() { obj_.stop(); }

std::int64_t AlarmClock::wake_me(std::int64_t deadline) {
  return obj_.call(wake_, vals(deadline))[0].as_int();
}

CallHandle AlarmClock::async_wake_me(std::int64_t deadline) {
  return obj_.async_call(wake_, vals(deadline));
}

void AlarmClock::tick() { obj_.call(tick_, {}); }

std::size_t AlarmClock::sleepers() const { return obj_.pending(wake_); }

}  // namespace alps::apps
