#include "apps/bounded_buffer.h"

namespace alps::apps {

BoundedBuffer::BoundedBuffer(Options options)
    : options_(options),
      obj_("Buffer", ObjectOptions{.model = options.model,
                                   .pool_workers = options.pool_workers}) {
  buf_.resize(options_.capacity);

  // --- definition part ---
  deposit_ = obj_.define_entry({.name = "Deposit", .params = 1, .results = 0});
  remove_ = obj_.define_entry({.name = "Remove", .params = 0, .results = 1});

  // --- implementation part ---
  // The procedures manipulate Inptr/Outptr without any locking of their own;
  // the manager's scheduling provides the exclusion (the paper's point).
  obj_.implement(deposit_, [this](BodyCtx& ctx) -> ValueList {
    buf_[inptr_] = ctx.param(0);
    inptr_ = (inptr_ + 1) % options_.capacity;
    return {};
  });
  obj_.implement(remove_, [this](BodyCtx&) -> ValueList {
    Value m = buf_[outptr_];
    outptr_ = (outptr_ + 1) % options_.capacity;
    return {m};
  });

  // --- manager ---
  obj_.set_manager(
      {intercept(deposit_), intercept(remove_)}, [this](Manager& m) {
        std::size_t count = 0;  // manager-local buffer occupancy
        Select()
            .on(accept_guard(deposit_)
                    .when([this, &count](const ValueList&) {
                      return count < options_.capacity;
                    })
                    .then([&m, &count](Accepted a) {
                      m.execute(a);
                      ++count;
                    }))
            .on(accept_guard(remove_)
                    .when([&count](const ValueList&) { return count > 0; })
                    .then([&m, &count](Accepted a) {
                      m.execute(a);
                      --count;
                    }))
            .loop(m);
      });
  obj_.start();
}

BoundedBuffer::~BoundedBuffer() { obj_.stop(); }

void BoundedBuffer::deposit(Value message) {
  obj_.call(deposit_, {std::move(message)});
}

Value BoundedBuffer::remove() { return obj_.call(remove_, {})[0]; }

CallHandle BoundedBuffer::async_deposit(Value message) {
  return obj_.async_call(deposit_, {std::move(message)});
}

CallHandle BoundedBuffer::async_remove() { return obj_.async_call(remove_, {}); }

}  // namespace alps::apps
