#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the two sanitizer
# configurations over the concurrency-heavy suites.
#
#   scripts/verify.sh            # tier-1 + TSan + ASan/UBSan
#   scripts/verify.sh --tier1    # tier-1 only (what CI gates on)
#   scripts/verify.sh --stress   # the concurrency suites, 50 repeats each,
#                                # pinned to one core and then unpinned
#
# Tier-1 runs every ctest case until it fails, up to 10 times, so a flake
# that shows up one run in a few fails the gate instead of slipping by.
#
# Sanitizer builds go to build-tsan/ and build-asan/ so they never disturb
# the primary build/ tree. The sanitizer pass runs the suites that exercise
# kernel concurrency, the executor, supervision, multiactive scheduling and
# the codec fuzzers; the full matrix × every suite would triple the wall
# time for no additional coverage (the remaining suites are single-threaded
# protocol tests).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
TIER1_ONLY=0
[[ "${1:-}" == "--tier1" ]] && TIER1_ONLY=1

if [[ "${1:-}" == "--stress" ]]; then
  # Interleavings a single run rarely hits: one core is where posting-thread
  # socket writes and the sender thread interleave worst (every handoff is a
  # preemption); all cores is where they truly overlap. The supervision and
  # multiactive suites drive the teardown table (stop, quarantine, restart)
  # against running bodies, where restart races have only shown under
  # repetition.
  STRESS_SUITES=(net_socket_test net_routing_test core_object_test
                 core_property_test core_supervision_test
                 core_multiactive_test)
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target "${STRESS_SUITES[@]}"
  for pin in "taskset -c 0" ""; do
    for t in "${STRESS_SUITES[@]}"; do
      echo "-- [${pin:-all cores}] $t x50"
      $pin "build/tests/$t" --gtest_repeat=50 --gtest_brief=1 || {
        echo "verify: stress ${pin:-all cores}/$t FAILED"; exit 1; }
    done
  done
  echo "verify: stress OK"
  exit 0
fi

# A source file that .gitignore hides never reaches a clean checkout (that
# is how src/core/buffer.{h,cpp} went missing once), so refuse to pass while
# any file under the source trees is ignored.
ignored=$(git ls-files -oi --exclude-standard -- src tests bench examples)
if [[ -n "$ignored" ]]; then
  echo "verify: .gitignore hides source files:"
  echo "$ignored"
  exit 1
fi

echo "== tier-1: default build (warnings are errors) + full ctest, each test repeated 10x =="
cmake -B build -S . -DALPS_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS" --repeat until-fail:10)

echo "== multi-process smoke: 2 server processes over unix sockets =="
./build/examples/example_distributed_dictionary driver 2 --smoke

# Chaos soak (DESIGN.md §4.11) is opt-in: ALPS_SOAK=1 scripts/verify.sh
# also runs the kill -9 / membership-churn harness, here and again under
# each sanitizer below.
if [[ "${ALPS_SOAK:-}" == 1 ]]; then
  echo "== chaos soak: kill -9 + membership churn over unix sockets =="
  ./build/examples/example_distributed_dictionary chaos 3 --ci
  echo "== shard soak: live 2->3->4 shard split under traffic =="
  ./build/examples/example_distributed_dictionary shard-soak --ci
fi

if [[ "$TIER1_ONLY" == 1 ]]; then
  echo "verify: tier-1 OK"
  exit 0
fi

# Suites worth the sanitizer tax: everything that races threads on purpose.
SAN_SUITES=(
  core_buffer_test
  core_object_test core_select_test core_channel_test core_property_test
  core_supervision_test core_multiactive_test core_trace_test
  sched_executor_test sched_executor_stress_test
  net_test net_failure_test net_fault_test net_routing_test
  net_order_test net_socket_test
  codec_fuzz_test integration_test
  apps_test
)

for san in thread address; do
  echo "== ALPS_SANITIZE=$san build + concurrency suites =="
  cmake -B "build-$san" -S . -DALPS_SANITIZE="$san" >/dev/null
  cmake --build "build-$san" -j "$JOBS" --target "${SAN_SUITES[@]}"
  for t in "${SAN_SUITES[@]}"; do
    echo "-- [$san] $t"
    "build-$san/tests/$t" --gtest_brief=1 || {
      echo "verify: $san/$t FAILED"; exit 1; }
  done
  if [[ "${ALPS_SOAK:-}" == 1 ]]; then
    echo "-- [$san] chaos soak"
    cmake --build "build-$san" -j "$JOBS" \
      --target example_distributed_dictionary
    "build-$san/examples/example_distributed_dictionary" chaos 3 --ci || {
      echo "verify: $san/chaos FAILED"; exit 1; }
    echo "-- [$san] shard-migration soak"
    "build-$san/examples/example_distributed_dictionary" shard-soak --ci || {
      echo "verify: $san/shard-soak FAILED"; exit 1; }
  fi
done

echo "verify: tier-1 + thread + address all OK"
