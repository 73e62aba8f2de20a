#include "apps/parallel_buffer.h"

namespace alps::apps {

namespace {

/// §2.8.2's long-message copy, materialized on purpose. Value assignment is
/// O(1) since the zero-copy data plane (string/blob payloads are shared,
/// DESIGN.md §4.9), so a buffer that wants an *independent* copy of the
/// message bytes — the workload whose parallelism the paper's design
/// exploits — must now ask for one explicitly.
Value deep_copy(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kString: return Value(std::string(v.as_string()));
    case ValueKind::kBlob: return Value(v.as_blob().to_blob());
    default: return v;
  }
}

}  // namespace

ParallelBoundedBuffer::ParallelBoundedBuffer(Options options)
    : options_(options),
      obj_("ParBuffer", ObjectOptions{.model = options.model,
                                      .pool_workers = options.pool_workers}) {
  buf_.resize(options_.capacity);

  // --- definition ---
  deposit_ = obj_.define_entry({.name = "Deposit", .params = 1, .results = 0});
  remove_ = obj_.define_entry({.name = "Remove", .params = 0, .results = 1});

  // --- implementation: hidden arrays + hidden Place param/result ---
  auto track = [this](auto&& work) {
    const int now = ++copies_active_;
    int prev = max_copies_.load();
    while (now > prev && !max_copies_.compare_exchange_weak(prev, now)) {
    }
    auto result = work();
    --copies_active_;
    return result;
  };

  obj_.implement(
      deposit_,
      ImplDecl{.array = options_.producer_max, .hidden_params = 1,
               .hidden_results = 1},
      [this, track](BodyCtx& ctx) -> ValueList {
        return track([&]() -> ValueList {
          const auto place = static_cast<std::size_t>(ctx.param(1).as_int());
          buf_[place] = deep_copy(ctx.param(0));  // the parallel copy
          ++deposits_;
          return {Value(static_cast<std::int64_t>(place))};  // hidden result
        });
      });
  obj_.implement(
      remove_,
      ImplDecl{.array = options_.consumer_max, .hidden_params = 1,
               .hidden_results = 1},
      [this, track](BodyCtx& ctx) -> ValueList {
        return track([&]() -> ValueList {
          const auto place = static_cast<std::size_t>(ctx.param(0).as_int());
          Value m = deep_copy(buf_[place]);  // the parallel copy
          ++removes_;
          return {std::move(m), Value(static_cast<std::int64_t>(place))};
        });
      });

  // --- manager: the paper's Free/Full index lists ---
  obj_.set_manager(
      {intercept(deposit_), intercept(remove_)}, [this](Manager& m) {
        std::deque<std::int64_t> free_slots, full_slots;
        for (std::size_t i = 0; i < options_.capacity; ++i) {
          free_slots.push_back(static_cast<std::int64_t>(i));
        }
        Select()
            .on(accept_guard(deposit_)
                    .when([&free_slots](const ValueList&) {
                      return !free_slots.empty();
                    })
                    .then([&](Accepted a) {
                      const std::int64_t place = free_slots.front();
                      free_slots.pop_front();
                      m.start(a, vals(place));  // hidden Place parameter
                    }))
            .on(await_guard(deposit_).then([&](Awaited w) {
              full_slots.push_back(w.results[0].as_int());
              m.finish(w);
            }))
            .on(accept_guard(remove_)
                    .when([&full_slots](const ValueList&) {
                      return !full_slots.empty();
                    })
                    .then([&](Accepted a) {
                      const std::int64_t place = full_slots.front();
                      full_slots.pop_front();
                      m.start(a, vals(place));
                    }))
            .on(await_guard(remove_).then([&](Awaited w) {
              // Remove returns (Message, hidden Place); the manager sees
              // only the hidden result here (results are not intercepted).
              free_slots.push_back(w.results[0].as_int());
              m.finish(w);
            }))
            .loop(m);
      });
  obj_.start();
}

ParallelBoundedBuffer::~ParallelBoundedBuffer() { obj_.stop(); }

void ParallelBoundedBuffer::deposit(Value message) {
  obj_.call(deposit_, {std::move(message)});
}

Value ParallelBoundedBuffer::remove() { return obj_.call(remove_, {})[0]; }

CallHandle ParallelBoundedBuffer::async_deposit(Value message) {
  return obj_.async_call(deposit_, {std::move(message)});
}

CallHandle ParallelBoundedBuffer::async_remove() {
  return obj_.async_call(remove_, {});
}

ParallelBoundedBuffer::Stats ParallelBoundedBuffer::stats() const {
  return Stats{max_copies_.load(), deposits_.load(), removes_.load()};
}

}  // namespace alps::apps
