// Quickstart: the paper's §2.4.1 bounded buffer, built directly against the
// public API so every concept is visible — definition part, implementation
// part, manager with an intercepts clause, and a select/loop with acceptance
// conditions.
//
//   $ example_quickstart
#include <cstdio>
#include <thread>

#include "core/alps.h"

int main() {
  using namespace alps;

  constexpr std::size_t kCapacity = 4;

  Object buffer("Buffer");

  // --- definition part: what users of the object see ---
  EntryRef deposit =
      buffer.define_entry({.name = "Deposit", .params = 1, .results = 0});
  EntryRef remove =
      buffer.define_entry({.name = "Remove", .params = 0, .results = 1});

  // --- implementation part: shared data + procedure bodies ---
  // Note there is no mutex anywhere: the manager's scheduling provides all
  // of the synchronization.
  std::vector<Value> slots(kCapacity);
  std::size_t inptr = 0, outptr = 0;

  buffer.implement(deposit, [&](BodyCtx& ctx) -> ValueList {
    slots[inptr] = ctx.param(0);
    inptr = (inptr + 1) % kCapacity;
    return {};
  });
  buffer.implement(remove, [&](BodyCtx&) -> ValueList {
    Value m = slots[outptr];
    outptr = (outptr + 1) % kCapacity;
    return {m};
  });

  // --- the manager: intercepts Deposit and Remove, accepts a Deposit only
  // while the buffer has room and a Remove only while it has content ---
  buffer.set_manager({intercept(deposit), intercept(remove)}, [&](Manager& m) {
    std::size_t count = 0;
    Select()
        .on(accept_guard(deposit)
                .when([&](const ValueList&) { return count < kCapacity; })
                .then([&](Accepted a) {
                  m.execute(a);  // start; await; finish — in exclusion
                  ++count;
                }))
        .on(accept_guard(remove)
                .when([&](const ValueList&) { return count > 0; })
                .then([&](Accepted a) {
                  m.execute(a);
                  --count;
                }))
        .loop(m);
  });

  buffer.start();

  // A producer and a consumer exchange 10 messages through the object.
  std::jthread producer([&] {
    for (int i = 0; i < 10; ++i) {
      buffer.call(deposit, vals("message " + std::to_string(i)));
      std::printf("producer: deposited %d\n", i);
    }
  });
  for (int i = 0; i < 10; ++i) {
    ValueList out = buffer.call(remove, {});
    std::printf("consumer: got \"%s\"\n", out[0].as_string().c_str());
  }
  producer.join();

  buffer.stop();
  std::printf("done.\n");
  return 0;
}
