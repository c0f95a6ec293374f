#!/usr/bin/env bash
# Build and run the test suite under AddressSanitizer + UndefinedBehaviorSanitizer,
# then the concurrent suites under ThreadSanitizer.
#
# The corruption/fuzz tests (io_corruption_test, robustness_test) feed
# truncated and bit-flipped inputs to every loader; running them under
# ASan/UBSan is the acceptance gate for the hardened v2 serialization:
# loaders must return error Statuses, never crash or read out of bounds.
#
# Both presets compile with -Werror (CMakePresets.json), so a new compiler
# warning fails the build leg of each.
#
# Usage: tools/run_sanitized_tests.sh [ctest-args...]
#   e.g. tools/run_sanitized_tests.sh -R IoCorruption
#
# Every leg runs even when an earlier one fails, so one flaky leg cannot
# hide the others; the script then lists the failed legs and exits 1. A
# leg whose preset did not build is listed as failed without running.
set -uo pipefail

cd "$(dirname "$0")/.."

failed=()
# leg NAME NEEDS CMD...: run one leg and record it if it fails. A leg is
# recorded as failed without running when the leg it NEEDS (its preset's
# build) failed; "-" needs none.
leg() {
  local name="$1" needs="$2"
  shift 2
  if [[ " ${failed[*]-} " == *" ${needs} "* ]]; then
    echo "=== leg not run (${needs} failed): ${name}"
    failed+=("${name}")
    return
  fi
  echo "=== leg: ${name}"
  if ! "$@"; then
    echo "=== leg failed: ${name}"
    failed+=("${name}")
  fi
}

leg asan-ubsan-build - \
  bash -c 'cmake --preset asan-ubsan && cmake --build --preset asan-ubsan -j "$(nproc)"'

export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

leg asan-ctest asan-ubsan-build ctest --test-dir build-asan --output-on-failure -j "$(nproc)" "$@"

# The chaos smoke (the `chaos-smoke` ctest label, tools/chaos_harness)
# replays seeded fault schedules over the primary/standby/publisher
# topology. Run it explicitly so a filtered invocation ("$@" above) can
# never silently skip it: under ASan/UBSan it is the memory-safety gate
# for every failure path the injected faults can reach.
leg asan-chaos-smoke asan-ubsan-build \
  ctest --test-dir build-asan --output-on-failure -L chaos-smoke

# The serving smoke (also registered as the `serve-smoke`,
# `cluster-smoke`, `ingest-smoke`, `fleet-smoke`, and `zoo-smoke` ctest
# labels) exercises the socket server, worker pool, request deadlines,
# route quotas, fan-out publish, the primary->standby replication loop,
# the live-ingest write path (journaled crash-exact resume under a real
# kill -9), and the explainer-zoo evaluation gate; under ASan/UBSan it
# doubles as a thread-lifecycle and use-after-free gate.
leg asan-server-smoke asan-ubsan-build \
  tools/run_server_smoke.sh build-asan/tools/gvex_tool all

# The compact-data-plane suites — run explicitly for the same reason as
# the chaos smoke above. The arena hands out raw bump-pointer memory and
# the CSR view aliases Graph internals, so mark/rewind lifetime bugs and
# view out-of-bounds reads only surface under ASan; the quantize suite
# covers the fp16/int8 codecs and the bundle-v2 loader against the same
# out-of-bounds class the io_corruption tests gate for v1 loaders.
leg asan-data-plane asan-ubsan-build \
  ctest --test-dir build-asan --output-on-failure \
  -R 'ArenaTest|CsrViewTest|Fp16Test|Int8Test|QuantizedModelTest|QuantizedBundleTest'

# The thread-sanitizer leg: every suite that runs threads against each
# other — server workers and socket connections, route quotas, ingest,
# replication, the shard router's hedge legs, the cluster and zoo, the
# thread pool and parallel explain, chaos schedules, publish fan-out, the
# obs registry, the checkpoint journal, the MatchCache, the inference
# forward's per-thread scratch, the stream solver's fanned-out EVerify
# probes and the influence build's pooled set loops — in one process. Any data race
# or leaked thread fails the run; there are no suppressions.
leg tsan-build - \
  bash -c 'cmake --preset tsan && cmake --build --preset tsan -j "$(nproc)"'
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
leg tsan-concurrent-suites tsan-build build-tsan/tests/gvex_tests \
  --gtest_filter='Serve*:RouteQuota*:Ingest*:Replication*:ShardRouter*:Cluster*:Zoo*:ThreadPool*:Parallel*:Chaos*:Publish*:ObsTest.*:CheckpointTest.*:MatchCache*:InferConcurrency*:Stream*:InfluenceTest*'

# The pool suite once more, 100 times over: its claim/finish handshake,
# inline nesting and exception hand-off are timing-dependent, so one pass
# samples few interleavings.
leg tsan-thread-pool-x100 tsan-build build-tsan/tests/gvex_tests \
  --gtest_filter='ThreadPool*' --gtest_repeat=100

# The server's dispatch suites 20 times over, for the same reason: the
# worker claim loop (oldest dispatchable request, cap skips, the wake
# after each request) interleaves with admission and stop differently
# from run to run.
leg tsan-serve-dispatch-x20 tsan-build build-tsan/tests/gvex_tests \
  --gtest_filter='ServeEngine*:ServeAdmission*:ServeConcurrency*:RouteQuota*' \
  --gtest_repeat=20

if ((${#failed[@]} > 0)); then
  echo "=== ${#failed[@]} leg(s) failed: ${failed[*]}"
  exit 1
fi
echo "=== every leg passed"
