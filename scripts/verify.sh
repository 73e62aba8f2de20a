#!/usr/bin/env bash
# Full verification sweep: tier-1 build + tests, then the two sanitizer
# configurations over the concurrency-heavy suites and the multi-process
# cluster harness.
#
#   scripts/verify.sh            # tier-1 + TSan + ASan/UBSan
#   scripts/verify.sh --tier1    # tier-1 only (what CI gates on)
#   scripts/verify.sh --stress   # the concurrency suites, 50 repeats each,
#                                # pinned to one core and then unpinned, and
#                                # the kernel-admission suites on two cores
#
# Tier-1 runs every ctest case until it fails, up to 10 times, so a flake
# that shows up one run in a few fails the gate instead of slipping by.
#
# Sanitizer builds go to build-thread/ and build-address/ so they never
# disturb the primary build/ tree. The sanitizer pass runs the suites that
# exercise kernel concurrency, the executor, supervision, multiactive
# scheduling and the codec fuzzers; the full matrix × every suite would
# triple the wall time for no additional coverage (the remaining suites are
# single-threaded protocol tests). Each list of suites is built as the one
# `suites` goal (CMakeLists.txt), so its targets compile in parallel.
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
  # repetition. apps_test's ReadersWriters cases drive kernel admission
  # (reads and writes started by their own callers, or by the body whose
  # epilogue lets them in) with no manager turn. Two cores is where an
  # epilogue most often admits a call whose caller sits between async_call
  # and its wait, so those two suites also run pinned to two cores, with
  # the supervision suite, whose teardown rows stop an object under an
  # epilogue-admitted or caller-admitted multiactive body.
  STRESS_SUITES=(net_socket_test net_routing_test core_object_test
                 core_property_test core_supervision_test
                 core_multiactive_test apps_test)
  ADMISSION_SUITES=(core_supervision_test core_multiactive_test apps_test)
  cmake -B build -S . \
    -DALPS_SUITE_TARGETS="$(IFS=';'; echo "${STRESS_SUITES[*]}")" >/dev/null
  cmake --build build -j "$JOBS" --target suites
  stress() {  # stress <pin> <suite>...
    local pin=$1 t
    shift
    for t in "$@"; do
      echo "-- [${pin:-all cores}] $t x50"
      $pin "build/tests/$t" --gtest_repeat=50 --gtest_brief=1 || {
        echo "verify: stress ${pin:-all cores}/$t FAILED"; exit 1; }
    done
  }
  stress "taskset -c 0" "${STRESS_SUITES[@]}"
  stress "taskset -c 0,1" "${ADMISSION_SUITES[@]}"
  stress "" "${STRESS_SUITES[@]}"
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
# The suite list is reset: a --stress run leaves its own in the cache, and a
# target since deleted from it would fail this configure.
cmake -B build -S . -DALPS_WERROR=ON -DALPS_SUITE_TARGETS= >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS" --repeat until-fail:10)

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
  net_order_test net_socket_test net_transport_parity_test
  codec_fuzz_test integration_test
  apps_test
)

for san in thread address; do
  echo "== ALPS_SANITIZE=$san build + concurrency suites =="
  cmake -B "build-$san" -S . -DALPS_SANITIZE="$san" \
    -DALPS_SUITE_TARGETS="$(IFS=';'; echo "${SAN_SUITES[*]};cluster_harness")" \
    >/dev/null
  cmake --build "build-$san" -j "$JOBS" --target suites
  for t in "${SAN_SUITES[@]}"; do
    echo "-- [$san] $t"
    "build-$san/tests/$t" --gtest_brief=1 || {
      echo "verify: $san/$t FAILED"; exit 1; }
  done
  # The socket transport across real processes (DESIGN.md §4.11, §4.12):
  # the same three modes ctest runs as net_multiprocess_smoke,
  # net_chaos_soak and net_shard_migration_soak.
  for mode in "smoke 2" "chaos 3" "shard"; do
    echo "-- [$san] cluster_harness $mode"
    "build-$san/tests/cluster_harness" $mode || {
      echo "verify: $san/cluster_harness $mode FAILED"; exit 1; }
  done
done

echo "verify: tier-1 + thread + address all OK"
