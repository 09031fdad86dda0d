#!/usr/bin/env bash
# CI driver: full test suite on the default preset, then the chaos- and
# metrics-labelled suites under AddressSanitizer+UBSan and
# ThreadSanitizer, plus an optional line-coverage gate.
#
#   scripts/ci.sh            # default + asan + tsan + perf-smoke
#   scripts/ci.sh default    # just the default preset, full suite
#   scripts/ci.sh asan       # asan build, chaos + metrics + ha + sched suites
#   scripts/ci.sh tsan       # tsan build, BatchRunner/Obs gates + chaos + ha
#   scripts/ci.sh perf       # Release perf gate: paired runs of HEAD and
#                            # merge base + fig14 single-loop round-time smoke
#   scripts/ci.sh coverage   # gcovr line-coverage report (if installed)
#
# The chaos suites (tests/chaos_test.cc, tests/runtime_robustness_test.cc,
# tests/coordination_equivalence_test.cc) carry the "chaos" ctest label;
# they exercise the fault-tolerance paths (reconnects, eviction, mangled
# frames, concurrent stop, delta/full data-path equivalence) where
# sanitizers earn their keep. The observability suites (tests/obs_*.cc, trace_fuzz_test.cc,
# golden_trace_test.cc) carry the "metrics" label; the registry
# concurrency gate additionally runs under tsan by test-name filter.
# The high-availability drills (tests/ha_test.cc: failover, checkpoint
# restore, overload backpressure; tests/checkpoint_test.cc: round-trip
# fuzz) carry the "ha" label and run standalone under both sanitizers.
# The scheduler-zoo invariants (tests/sched_property_test.cc: sampling
# estimate convergence, dcoflow admission soundness, LP-bound soundness
# on fuzzed traces) carry the "sched" label and run under both
# sanitizers; run_default additionally replays a tiny deadlined trace
# through aalo_sim --lp-check as an end-to-end LP-bound gate.
set -euo pipefail
cd "$(dirname "$0")/.."

# Minimum acceptable line coverage for the coverage step (percent).
COVERAGE_FAIL_UNDER=70

# Allowed slowdown of BM_SimulatorEndToEnd/50 built from HEAD relative
# to the same benchmark built from the merge base, median against median
# over PERF_PAIRS interleaved runs of each, before the perf step fails.
PERF_SMOKE_TOLERANCE=1.5
PERF_PAIRS=3

run_default() {
  echo "=== default: configure + build + full suite ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$(nproc)"
  ctest --preset default -j "$(nproc)"
  echo "=== default: benchmark smoke run ==="
  # One short iteration per benchmark catches bit-rot in the bench
  # harness without recording anything. benchmark 1.7.x takes a plain
  # float of seconds here (no '0.01x' multiplier suffix).
  cmake --build --preset default -j "$(nproc)" --target bench_micro
  ./build/bench/bench_micro --benchmark_min_time=0.01 \
    --benchmark_filter='BM_SimulatorEndToEnd|BM_TraceReplay|BM_DClasReschedule/100|BM_EncodeScheduleDelta|BM_ReportApply/100|BM_BroadcastFanout/10|BM_MetricsOverhead'
  echo "=== default: metrics exposition smoke ==="
  # The CLI surface of the observability layer: a real dump must parse as
  # the pinned JSON shape and carry the four component families.
  ./build/tools/aalo_tracegen --kind fb --jobs 10 --ports 10 --seed 1 \
    --out build/ci_smoke.trace >/dev/null
  ./build/tools/aalo_sim --trace build/ci_smoke.trace --sched aalo \
    --metrics-dump build/ci_smoke.prom >/dev/null 2>&1
  grep -q 'aalo_sim_rounds_total' build/ci_smoke.prom
  grep -q 'aalo_sim_queue_occupancy_bucket' build/ci_smoke.prom
  python3 -c "
import json
d = json.load(open('build/ci_smoke.prom.json'))
assert d['context'] == {'format': 'aalo-metrics', 'version': 1}, d['context']
assert d['metrics'], 'empty metrics dump'
"
  echo "=== default: experiments smoke (LP bound gate) ==="
  # Tiny deadlined trace through the scheduler zoo with --lp-check: the
  # run exits non-zero if any scheduler's total CCT dips below the LP
  # lower bound. CHECK_ONLY keeps EXPERIMENTS.md untouched in CI.
  ./build/tools/aalo_tracegen --kind fb --jobs 20 --ports 10 --seed 7 \
    --deadline-slack 0.5 --out build/ci_smoke_dl.trace >/dev/null
  ./build/tools/aalo_sim --trace build/ci_smoke_dl.trace \
    --sched aalo,las,sampling,dcoflow --lp-check >/dev/null
}

run_asan() {
  echo "=== asan: engine equivalence + chaos + metrics + ha + sched suites ==="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" \
    --target chaos_test runtime_robustness_test engine_equivalence_test \
             coordination_equivalence_test \
             obs_test obs_invariant_test \
             obs_concurrency_test trace_fuzz_test golden_trace_test \
             ha_test checkpoint_test sched_property_test
  (cd build-asan && ctest -L chaos --output-on-failure -j "$(nproc)")
  (cd build-asan && ctest \
    -R 'EngineEquivalence|EngineFuzz|EventCalendarProperty|DClasQueueOracle' \
    --output-on-failure -j "$(nproc)")
  (cd build-asan && ctest -L metrics --output-on-failure -j "$(nproc)")
  # '^ha$' because -L is a regex and a bare "ha" also matches "chaos".
  (cd build-asan && ctest -L '^ha$' --output-on-failure -j "$(nproc)")
  # Scheduler-zoo invariants (sampling convergence, dcoflow admission
  # soundness, LP bound <= every scheduler on 200 fuzzed traces).
  (cd build-asan && ctest -L '^sched$' --output-on-failure -j "$(nproc)")
}

run_tsan() {
  echo "=== tsan: BatchRunner + engine-equivalence + obs gates + chaos + ha + sched ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan
  ctest --preset tsan-chaos
  ctest --preset tsan-ha
  ctest --preset tsan-sched
}

run_perf() {
  echo "=== perf: BM_SimulatorEndToEnd/50, HEAD vs merge base, paired ==="
  # Guard against silent end-to-end regressions with a paired A/B on this
  # host: build the benchmark from HEAD's working tree and from the merge
  # base with origin/main (HEAD~1 when there is none, or when HEAD is the
  # merge base), both in Release, then run the two binaries alternately
  # so host load and frequency drift hit both sides alike. An absolute
  # median recorded on another host (BENCH_micro.json) is no gate.
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$(nproc)" --target bench_micro
  local head base
  head=$(git rev-parse HEAD)
  base=$(git merge-base HEAD origin/main 2>/dev/null || true)
  if [ -z "$base" ] || [ "$base" = "$head" ]; then base=$(git rev-parse HEAD~1); fi
  local base_dir="build-perf-base/${base}"
  if [ ! -d "${base_dir}/src" ]; then
    mkdir -p "${base_dir}/src"
    git archive "$base" | tar -x -C "${base_dir}/src"
  fi
  cmake -S "${base_dir}/src" -B "${base_dir}/build" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "${base_dir}/build" -j "$(nproc)" --target bench_micro
  echo "perf: base ${base}"
  local i side bin
  for i in $(seq 1 "$PERF_PAIRS"); do
    for side in base head; do
      if [ "$side" = base ]; then
        bin="${base_dir}/build/bench/bench_micro"
      else
        bin=./build-release/bench/bench_micro
      fi
      "$bin" --benchmark_filter='^BM_SimulatorEndToEnd/50$' \
        --benchmark_format=json >"build-release/perf_${side}_${i}.json"
    done
  done
  python3 - "$PERF_SMOKE_TOLERANCE" "$PERF_PAIRS" <<'EOF'
import json, statistics, sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def time_ns(path):
    doc = json.load(open(path))
    for b in doc["benchmarks"]:
        if b["name"] == "BM_SimulatorEndToEnd/50":
            return b["real_time"] * UNIT_NS[b.get("time_unit", "ns")]
    raise SystemExit(f"perf: no BM_SimulatorEndToEnd/50 in {path}")

tolerance, pairs = float(sys.argv[1]), int(sys.argv[2])
runs = {side: [time_ns(f"build-release/perf_{side}_{i}.json")
               for i in range(1, pairs + 1)] for side in ("base", "head")}
base = statistics.median(runs["base"])
head = statistics.median(runs["head"])
ratio = head / base
for side in ("base", "head"):
    print(f"perf: {side} runs " + ", ".join(f"{t / 1e6:.1f}" for t in runs[side]) + " ms")
print(f"perf: median {head / 1e6:.1f} ms vs base {base / 1e6:.1f} ms "
      f"(ratio {ratio:.2f}, limit {tolerance:.2f})")
if ratio > tolerance:
    raise SystemExit("perf: FAIL — end-to-end benchmark regressed against the merge base")
EOF
  echo "=== perf-smoke: fig14 coordinator round time @1000 daemons ==="
  # The single coordinator loop must complete timed broadcast rounds at
  # the scale the paper's Fig 14 starts from; a wedged accept/report/
  # fan-out path produces none and fails here.
  cmake --build --preset release -j "$(nproc)" --target bench_fig14_scalability
  ./build-release/bench/bench_fig14_scalability \
    --json build-release/perf_fig14.json \
    --daemons 1000 --rounds 10 --sweep-only
  python3 - <<'EOF'
import json

doc = json.load(open("build-release/perf_fig14.json"))
rounds = [e["avg_round_s"] for e in doc["daemon_sweep"]
          if e["daemons"] == 1000 and e["avg_round_s"] > 0]
if not rounds:
    raise SystemExit("perf-smoke: FAIL — fig14 @1000 daemons produced no timed rounds")
print(f"perf-smoke: fig14 @1000 daemons round {rounds[0] * 1e3:.2f} ms")
EOF
}

run_coverage() {
  echo "=== coverage: gcov/gcovr line coverage (fail-under ${COVERAGE_FAIL_UNDER}%) ==="
  # gcovr is not part of the baked toolchain image; the step degrades to a
  # skip (with the threshold still recorded above) rather than failing CI
  # on environments without it.
  if ! command -v gcovr >/dev/null 2>&1; then
    echo "coverage: gcovr not installed — skipping (threshold ${COVERAGE_FAIL_UNDER}% recorded)"
    return 0
  fi
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
  cmake --build build-cov -j "$(nproc)"
  (cd build-cov && ctest -j "$(nproc)" --output-on-failure)
  gcovr --root . --filter 'src/' \
    --fail-under-line "${COVERAGE_FAIL_UNDER}" \
    --print-summary build-cov
}

case "${1:-all}" in
  default)  run_default ;;
  asan)     run_asan ;;
  tsan)     run_tsan ;;
  perf)     run_perf ;;
  coverage) run_coverage ;;
  all)      run_default; run_asan; run_tsan; run_perf; run_coverage ;;
  *) echo "usage: $0 [default|asan|tsan|perf|coverage|all]" >&2; exit 2 ;;
esac
echo "ci: OK"
