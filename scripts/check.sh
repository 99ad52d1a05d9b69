#!/usr/bin/env bash
# Tiered CI entry point. Every check is a named stage; run them all (the
# default), or pick one with --stage <name> — exactly what the GitHub
# workflow's jobs do, so CI and a laptop run the same commands.
#
#   scripts/check.sh                 # every stage, in order
#   scripts/check.sh --list          # stage names + what they cover
#   scripts/check.sh --stage serve   # one stage (repeatable)
#
# Tests always run through ctest (--no-tests=error), never by invoking
# binaries directly: a test that silently fell out of the build fails the
# stage instead of being skipped. Per-stage wall-clock timings are printed
# as a summary table at the end; the exit code is non-zero if any stage
# failed. A stage failure skips the stages after it (their result shows as
# "skipped" in the table).
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}
ASAN_BUILD=${ASAN_BUILD_DIR:-build-asan}
TSAN_BUILD=${TSAN_BUILD_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc)}

STAGES=(build registration lint analyze obs differential fusion ssb serve cluster spill race tsan asan bench-gate)

stage_desc() {
  case "$1" in
    build)        echo "configure + build + full tier-1 ctest suite" ;;
    registration) echo "every tests/*_test.cc is registered with ctest" ;;
    lint)         echo "sirius_lint repo walk + rule unit tests (ctest -L lint)" ;;
    analyze)      echo "sirius_analyze whole-program flow checks (ctest -L analyze)" ;;
    obs)          echo "observability suite (ctest -L obs)" ;;
    differential) echo "GPU vs CPU cell-by-cell suite (ctest -L differential)" ;;
    fusion)       echo "fused pipeline execution: selection-view units + engine fusion suite + ablation bench vs snapshot" ;;
    ssb)          echo "SSB workload family: generator determinism + skew/string variants + bench" ;;
    serve)        echo "serving layer: admission/fairness/placement/chaos (ctest -L serve)" ;;
    cluster)      echo "federated serving: routing/replication/chaos + bench vs snapshot" ;;
    spill)        echo "tiered memory: spill governance + fault recovery (ctest -L spill)" ;;
    race)         echo "race-checked device runs (SIRIUS_RACE_CHECK=1, ctest -L race)" ;;
    tsan)         echo "ThreadSanitizer build + serving-layer, codec, spill and cluster suites" ;;
    asan)         echo "AddressSanitizer+UBSan build + chaos/race/fusion/codec/expr/keys/kernels suites" ;;
    bench-gate)   echo "deterministic benches vs committed bench/BENCH_*.json snapshots + Fig 4 scale invariance (loaded SF 0.01 vs 0.1)" ;;
    *)            echo "unknown" ;;
  esac
}

ensure_build() {
  cmake -B "$BUILD" -S . >/dev/null
  cmake --build "$BUILD" -j "$JOBS"
}

stage_build() {
  ensure_build
  ctest --test-dir "$BUILD" --output-on-failure --no-tests=error -j "$JOBS"
}

stage_registration() {
  ensure_build
  python3 scripts/check_registration.py --build-dir "$BUILD"
}

stage_lint() {
  ensure_build
  ctest --test-dir "$BUILD" -L lint --output-on-failure --no-tests=error
}

stage_analyze() {
  ensure_build
  ctest --test-dir "$BUILD" -L analyze --output-on-failure --no-tests=error
}

stage_obs() {
  ensure_build
  ctest --test-dir "$BUILD" -L obs --output-on-failure --no-tests=error -j "$JOBS"
}

stage_differential() {
  ensure_build
  ctest --test-dir "$BUILD" -L differential --output-on-failure --no-tests=error -j "$JOBS"
}

stage_fusion() {
  ensure_build
  # The fused-execution surface in one stage: the selection-view contract
  # units, the engine fusion suite (compiler/explain/fallback/out-of-core),
  # and the fused-vs-materialized ablation bench gated against its committed
  # snapshot alone (the full cross-bench gate is the bench-gate stage).
  ctest --test-dir "$BUILD" -L fusion --output-on-failure --no-tests=error -j "$JOBS"
  local out="$BUILD/bench-json-fusion" base="$BUILD/bench-baseline-fusion"
  rm -rf "$out" "$base" && mkdir -p "$out" "$base"
  cp bench/BENCH_ablation_fusion.json "$base/"
  cmake --build "$BUILD" -j "$JOBS" --target bench_ablation_fusion >/dev/null
  SIRIUS_BENCH_JSON_DIR="$out" "$BUILD/bench/bench_ablation_fusion"
  python3 scripts/bench_gate.py --fresh "$out" --baseline "$base"
}

stage_ssb() {
  ensure_build
  # Everything SSB-specific in one stage: generator determinism (golden
  # checksums), the randomized skew/string-length property sweeps, the
  # GPU-vs-CPU differential across all variants, and the mixed-tenant bench
  # gated against its committed snapshot alone (the full cross-bench gate is
  # the bench-gate stage).
  ctest --test-dir "$BUILD" -R 'Ssb|DbgenDeterminism' \
    --output-on-failure --no-tests=error -j "$JOBS"
  local out="$BUILD/bench-json-ssb" base="$BUILD/bench-baseline-ssb"
  rm -rf "$out" "$base" && mkdir -p "$out" "$base"
  cp bench/BENCH_ssb.json "$base/"
  cmake --build "$BUILD" -j "$JOBS" --target bench_ssb >/dev/null
  SIRIUS_BENCH_JSON_DIR="$out" "$BUILD/bench/bench_ssb"
  python3 scripts/bench_gate.py --fresh "$out" --baseline "$base"
}

stage_serve() {
  ensure_build
  ctest --test-dir "$BUILD" -L serve --output-on-failure --no-tests=error -j "$JOBS"
}

stage_cluster() {
  ensure_build
  # The federated tier in one stage: routing/replication/invalidation units,
  # the cluster.* chaos sweeps, and the hit-anywhere-vs-coordinator bench
  # gated against its committed snapshot alone (the full cross-bench gate is
  # the bench-gate stage).
  ctest --test-dir "$BUILD" -L cluster --output-on-failure --no-tests=error -j "$JOBS"
  local out="$BUILD/bench-json-cluster" base="$BUILD/bench-baseline-cluster"
  rm -rf "$out" "$base" && mkdir -p "$out" "$base"
  cp bench/BENCH_serve_cluster.json "$base/"
  cmake --build "$BUILD" -j "$JOBS" --target bench_serve_cluster >/dev/null
  SIRIUS_BENCH_JSON_DIR="$out" "$BUILD/bench/bench_serve_cluster"
  python3 scripts/bench_gate.py --fresh "$out" --baseline "$base"
}

stage_spill() {
  ensure_build
  ctest --test-dir "$BUILD" -L spill --output-on-failure --no-tests=error -j "$JOBS"
}

stage_race() {
  ensure_build
  SIRIUS_RACE_CHECK=1 \
    ctest --test-dir "$BUILD" -L race --output-on-failure --no-tests=error -j "$JOBS"
}

stage_tsan() {
  cmake -B "$TSAN_BUILD" -S . -DSIRIUS_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_BUILD" -j "$JOBS"
  # "codec" includes scans decoding outside the buffer manager's mutex
  # while another thread evicts; "spill" sends typed failure causes from the
  # execution pool to the serve DES thread; "cluster" runs the chaos sweeps
  # whose node-loss requeues shed with retry-after hints.
  ctest --test-dir "$TSAN_BUILD" -L 'serve|codec|spill|cluster' --output-on-failure --no-tests=error -j "$JOBS"
}

stage_asan() {
  cmake -B "$ASAN_BUILD" -S . -DSIRIUS_SANITIZE=address >/dev/null
  cmake --build "$ASAN_BUILD" -j "$JOBS"
  # The address build carries UBSan too. "fault" covers the chaos suites
  # (including the serve.place placement faults); "race" re-runs the checked
  # device tests; "fusion" runs the view kernels both inside and outside a
  # fused pass; "codec" runs the bit-packing sweeps over exact-size buffers,
  # where a read past the packed stream is a heap overflow; "expr" runs the
  # evaluator's property test, because its kernels index raw buffers with a
  # 0/1 stride and write validity bitmaps directly; "keys" runs the key
  # kernels' property test, because the join and group-by slots pack 32-bit
  # row ids with hash tags and the typed hash/equality loops index raw
  # buffers; "kernels" runs the gdf kernel suite and the LIST suite, because
  # the range copy behind slice and concat and the gathers compute byte
  # ranges and rebased offsets over raw buffers, a list's child ranges
  # included, so an off-by-one is a heap overflow.
  SIRIUS_RACE_CHECK=1 \
    ctest --test-dir "$ASAN_BUILD" -L 'fault|race|fusion|codec|expr|keys|kernels' --output-on-failure --no-tests=error -j "$JOBS"
}

stage_bench_gate() {
  ensure_build
  local out="$BUILD/bench-json"
  rm -rf "$out" && mkdir -p "$out"
  local b
  for b in bench_fig4_tpch_single_node bench_ablation_fusion bench_serve \
           bench_serve_multi_gpu bench_serve_cluster bench_spill_sweep \
           bench_ssb; do
    cmake --build "$BUILD" -j "$JOBS" --target "$b" >/dev/null
    echo "--- $b"
    SIRIUS_BENCH_JSON_DIR="$out" "$BUILD/bench/$b"
  done
  python3 scripts/bench_gate.py --fresh "$out" --baseline bench || return 1
  # Modeled SF-100 numbers must not depend on the loaded SF: re-run Fig 4
  # on ten times the data (every query must still run on the device, which
  # the bench checks itself) and compare it with the SF 0.01 run above.
  local big="$BUILD/bench-json-sf0.1"
  rm -rf "$big" && mkdir -p "$big"
  echo "--- bench_fig4_tpch_single_node (SIRIUS_SF=0.1)"
  SIRIUS_SF=0.1 SIRIUS_BENCH_JSON_DIR="$big" \
    "$BUILD/bench/bench_fig4_tpch_single_node" || return 1
  python3 scripts/scale_gate.py --low "$out" --high "$big"
}

usage() {
  echo "usage: $0 [--stage <name>]... [--list]"
  echo "stages: ${STAGES[*]}"
}

SELECTED=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --list)
      for s in "${STAGES[@]}"; do
        printf '%-14s %s\n' "$s" "$(stage_desc "$s")"
      done
      exit 0
      ;;
    --stage)
      [[ $# -ge 2 ]] || { usage >&2; exit 2; }
      found=0
      for s in "${STAGES[@]}"; do [[ "$s" == "$2" ]] && found=1; done
      [[ $found == 1 ]] || { echo "unknown stage: $2" >&2; usage >&2; exit 2; }
      SELECTED+=("$2")
      shift 2
      ;;
    -h|--help) usage; exit 0 ;;
    *) echo "unknown argument: $1" >&2; usage >&2; exit 2 ;;
  esac
done
[[ ${#SELECTED[@]} -gt 0 ]] || SELECTED=("${STAGES[@]}")

RESULTS=()
TIMES=()
FAILED=0
for s in "${SELECTED[@]}"; do
  if [[ $FAILED != 0 ]]; then
    RESULTS+=("skipped")
    TIMES+=("-")
    continue
  fi
  echo "==> $s: $(stage_desc "$s")"
  start=$(date +%s)
  if "stage_${s//-/_}"; then
    RESULTS+=("ok")
  else
    RESULTS+=("FAIL")
    FAILED=1
  fi
  TIMES+=("$(( $(date +%s) - start ))s")
done

echo
printf '%-14s %-8s %s\n' "stage" "result" "wall"
printf '%-14s %-8s %s\n' "-----" "------" "----"
for i in "${!SELECTED[@]}"; do
  printf '%-14s %-8s %s\n' "${SELECTED[$i]}" "${RESULTS[$i]}" "${TIMES[$i]}"
done
if [[ $FAILED != 0 ]]; then
  echo "FAILED"
  exit 1
fi
echo "all checks passed"
