#!/usr/bin/env bash
# Pre-PR correctness gate. Named steps, in default order:
#   analyze   tools/wb_analyze static analysis (determinism, headers, raii,
#             realtime call-graph walk, legacy lint) + JSON + call-graph
#             artifacts + committed-baseline diff + call-graph unit tests
#   build     ASan+UBSan build, -Werror        (build dir: build-check/)
#   test      full ctest under the sanitizers
#   tsan      TSan build of the concurrency surface (build-tsan/) running
#             the runner + obs + serve test binaries
#   clang     clang build with -Wthread-safety -Werror (build-clang/):
#             statically proves the WB_GUARDED_BY/WB_REQUIRES capability
#             annotations and that the units layer is warnings-clean on
#             the second toolchain (skipped with a notice if clang++ is
#             not installed — gcc expands the annotations to nothing)
#   obs       observability smoke: one CLI query exchange, --metrics-out /
#             --trace-out validated as JSON covering all six modules;
#             --forensics-out JSONL diffed against the DropReason enum
#             (exact two-way coverage), a sweep byte-compared at
#             --threads 1 vs 8, and the serve mode's stdout + forensics
#             byte-compared at --threads 1 vs 8
#   tidy      clang-tidy over src/  (skipped with a notice if not installed)
#   perf      Release perf gate: bench_decoder_micro --json-out must show a
#             zero-allocation workspace decode (validate_bench_decoder.py),
#             bench_obs_overhead must hold the forensics budget — <=5%
#             decode overhead, zero steady-state allocations
#             (validate_bench_obs.py) — and bench_serve_throughput must
#             sustain 8 concurrent sessions with zero steady-state
#             ingest/dispatch allocations and a lossless drain
#             (validate_bench_serve.py)
#   goldens   byte-identity: scripts/goldens.py --check on the Release
#             tree — every figure bench's --quick stdout at --threads 4,
#             fig10/12/17/20 --json-out and four CLI modes' stdout against
#             the SHA-256s in GOLDENS.json (skipped with a message when
#             the toolchain tag differs from the file's)
#   perfbench end-to-end benchmark self-check: perfbench/run.py builds the
#             benchmark from this tree (Release, into build-perf/perfbench/)
#             and runs every workload briefly, untraced and traced; fails
#             when a src/ API the benchmark calls is gone or one of its
#             output checks breaks
#
# Usage: scripts/check.sh [-j N] [--fast] [--only STEP ...]
#   --fast        analyze + plain build (build-fast/, no sanitizers) + unit
#                 tests — the doc-change loop; the sanitizer matrix, tidy,
#                 and the perf + goldens + perfbench gates are skipped
#   --only STEP   run just the named step(s), in the order given
#                 (repeatable; step names as listed above)
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
ONLY=()
while [ $# -gt 0 ]; do
  case "$1" in
    -j) JOBS="$2"; shift 2 ;;
    -j*) JOBS="${1#-j}"; shift ;;
    --fast) FAST=1; shift ;;
    --only)
      [ $# -ge 2 ] || { echo "--only needs a step name" >&2; exit 2; }
      ONLY+=("$2"); shift 2 ;;
    -h|--help)
      sed -n '2,47p' "$0"; exit 0 ;;
    *) echo "usage: scripts/check.sh [-j N] [--fast] [--only STEP ...]" >&2
       exit 2 ;;
  esac
done

BUILD_DIR=build-check
TSAN_DIR=build-tsan
CLANG_DIR=build-clang
PERF_DIR=build-perf
FAST_DIR=build-fast

step_analyze() {
  mkdir -p "$BUILD_DIR"
  python3 tools/wb_analyze \
    --json-out "$BUILD_DIR/wb_analyze.json" \
    --callgraph-out "$BUILD_DIR/wb_callgraph.json" \
    --baseline tools/wb_analyze/baseline.json
  python3 tests/analyze/test_callgraph.py
}

step_build() {
  cmake -B "$BUILD_DIR" -S . \
    -DWB_SANITIZE=address -DWB_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD_DIR" -j "$JOBS"
}

step_test() {
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
}

step_build_fast() {
  cmake -B "$FAST_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$FAST_DIR" -j "$JOBS"
}

step_test_fast() {
  ctest --test-dir "$FAST_DIR" --output-on-failure -j "$JOBS"
}

step_tsan() {
  cmake -B "$TSAN_DIR" -S . \
    -DWB_SANITIZE=thread -DWB_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_runner_indexed_for test_runner_sweep test_obs_metrics \
             test_serve_service
  "$TSAN_DIR/tests/test_runner_indexed_for"
  "$TSAN_DIR/tests/test_runner_sweep"
  "$TSAN_DIR/tests/test_obs_metrics"
  "$TSAN_DIR/tests/test_serve_service"
}

step_clang() {
  if ! command -v clang++ > /dev/null 2>&1; then
    echo "    clang++ not installed; skipping thread-safety analysis" \
         "(annotations: src/util/thread_annotations.h)"
    return 0
  fi
  # -Wthread-safety is added by CMakeLists.txt whenever the compiler is
  # clang; WB_WERROR promotes it (and any units-layer warning) to an error.
  cmake -B "$CLANG_DIR" -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DWB_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$CLANG_DIR" -j "$JOBS"
}

step_obs() {
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$tmp'" EXIT
  "$BUILD_DIR/examples/wb_experiment_cli" query \
    --queries 1 --distance 0.2 \
    --metrics-out "$tmp/smoke.metrics.json" \
    --trace-out "$tmp/smoke.trace.json" > /dev/null
  python3 - "$tmp" <<'PY'
import json, sys
tmp = sys.argv[1]
metrics = json.load(open(tmp + "/smoke.metrics.json"))
trace = json.load(open(tmp + "/smoke.trace.json"))
counters = metrics["metrics"]["counters"]
modules = sorted({name.split(".")[0] for name in counters})
missing = sorted(set(["core", "phy", "reader", "sim", "tag", "wifi"])
                 - set(modules))
assert not missing, f"metrics missing modules: {missing}"
assert trace["traceEvents"], "trace has no events"
print(f"    metrics: {len(counters)} counters over modules {modules}")
print(f"    trace:   {len(trace['traceEvents'])} events")
PY
  # Decode forensics: a query exchange with the taxonomy and SLO watchdog
  # on. The JSONL's aggregate reason lines (emitted even at zero) must
  # cover the DropReason enum in src/obs/forensics.h exactly — a new
  # enumerator without an export line (or vice versa) fails here.
  "$BUILD_DIR/examples/wb_experiment_cli" query \
    --queries 1 --distance 0.2 \
    --forensics-out "$tmp/smoke.forensics.jsonl" \
    --slo "mac_drops=forensics.wifi_mac.collision_total<=1000000" > /dev/null
  python3 - "$tmp/smoke.forensics.jsonl" src/obs/forensics.h <<'PY'
import json, re, sys
jsonl_path, header_path = sys.argv[1], sys.argv[2]
header = open(header_path).read()

def enum_tokens(name):
    body = re.search(r"enum class %s\s*:[^{]*\{(.*?)\n\};" % name,
                     header, re.S).group(1)
    names = re.findall(r"^\s*k([A-Za-z0-9]+),", body, re.M)
    return {re.sub(r"(?<!^)([A-Z])", r"_\1", n).lower() for n in names}

lines = [json.loads(l) for l in open(jsonl_path) if l.strip()]
by_type = {}
for l in lines:
    by_type.setdefault(l["type"], []).append(l)
exported_reasons = {l["reason"] for l in by_type.get("reason", [])}
enum_reasons = enum_tokens("DropReason")
assert exported_reasons == enum_reasons, (
    f"taxonomy drift: enum-only {sorted(enum_reasons - exported_reasons)}, "
    f"export-only {sorted(exported_reasons - enum_reasons)}")
stages = {l["stage"] for l in by_type.get("stage", [])}
num_stages = len(re.findall(r"^\s*k[A-Za-z0-9]+,", re.search(
    r"enum class DropStage\s*:[^{]*\{(.*?)\n\};", header, re.S).group(1),
    re.M))
assert len(stages) == num_stages, (
    f"{len(stages)} stage lines vs {num_stages} DropStage enumerators")
for l in by_type["stage"]:
    assert l["attempts"] == l["decodes"] + l["drops"], f"ledger broken: {l}"
print(f"    forensics: {len(exported_reasons)} reasons x {len(stages)} "
      f"stages covered, per-stage ledgers reconcile")
PY
  # Thread-count determinism: the same sweep at --threads 1 and 8 must
  # write byte-identical forensics JSONL (per-task sinks, in-order merge).
  for t in 1 8; do
    "$BUILD_DIR/examples/wb_experiment_cli" sweep \
      --distances-cm 5,30 --pkts-per-bit 10 --runs 2 --seed 11 \
      --threads "$t" --json-out "$tmp/sweep.t$t.json" \
      --forensics-out "$tmp/sweep.t$t.jsonl" > /dev/null
  done
  cmp "$tmp/sweep.t1.jsonl" "$tmp/sweep.t8.jsonl"
  echo "    forensics: sweep JSONL byte-identical at --threads 1 vs 8"
  # Live-capture service determinism: the same multi-session replay with
  # inline dispatch and an 8-worker pool must print the same report and
  # export byte-identical merged forensics (per-session private sinks,
  # ascending-id merge).
  for t in 1 8; do
    "$BUILD_DIR/examples/wb_experiment_cli" serve \
      --sessions 3 --ring 64 --packets 3600 --seed 11 --threads "$t" \
      --forensics-out "$tmp/serve.t$t.jsonl" > "$tmp/serve.t$t.out"
  done
  cmp "$tmp/serve.t1.jsonl" "$tmp/serve.t8.jsonl"
  # The report prints the configured thread count and the forensics
  # output path; mask those two tokens.
  for t in 1 8; do
    sed -e "s/threads [0-9]*/threads N/" -e "s/serve\.t[0-9]*/serve.tN/" \
      "$tmp/serve.t$t.out" > "$tmp/serve.t$t.masked"
  done
  cmp "$tmp/serve.t1.masked" "$tmp/serve.t8.masked"
  echo "    serve: report + forensics byte-identical at --threads 1 vs 8"
}

step_tidy() {
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "    clang-tidy not installed; skipping (config: .clang-tidy)"
    return 0
  fi
  if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "    no $BUILD_DIR/compile_commands.json — run the build step first" >&2
    return 1
  fi
  if command -v run-clang-tidy > /dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "src/.*\.cpp$"
  else
    # Single-binary fallback. Capture output and propagate the exit code:
    # .clang-tidy sets WarningsAsErrors '*', so any finding exits non-zero
    # (the old version piped to /dev/null and ignored failures entirely).
    local log="$BUILD_DIR/clang-tidy.log" rc=0
    find src -name '*.cpp' -print0 | sort -z | \
      xargs -0 clang-tidy -p "$BUILD_DIR" --quiet > "$log" 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
      cat "$log"
      echo "    clang-tidy failed (exit $rc); full log: $log" >&2
      return "$rc"
    fi
    echo "    clang-tidy clean ($(find src -name '*.cpp' | wc -l) files)"
  fi
}

step_perf() {
  cmake -B "$PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$PERF_DIR" -j "$JOBS" \
    --target bench_decoder_micro bench_obs_overhead bench_serve_throughput
  # Decode hot path: zero steady-state allocations on the workspace rows
  # and the stream-batched conditioning kernels at least 2x the frozen
  # scalar reference (DESIGN.md §15).
  python3 scripts/validate_bench_decoder.py \
    --bench "$PERF_DIR/bench/bench_decoder_micro" \
    --out "$PERF_DIR/BENCH_decoder.json" \
    --min-conditioning-speedup 2.0
  # Forensics-layer budget: recorder+taxonomy-on decode within 5% of off
  # and zero steady-state allocations (the ctest smoke runs the same
  # validator with a relaxed bound; Release is where the 5% is meaningful).
  python3 scripts/validate_bench_obs.py \
    --bench "$PERF_DIR/bench/bench_obs_overhead" \
    --out "$PERF_DIR/BENCH_obs.json"
  # Live-capture service budget: 8 concurrent sessions sustained with
  # zero steady-state ingest/dispatch allocations, measured submit
  # latency percentiles, and one decoded frame per session per pass.
  python3 scripts/validate_bench_serve.py \
    --bench "$PERF_DIR/bench/bench_serve_throughput" \
    --out "$PERF_DIR/BENCH_serve.json"
}

step_goldens() {
  cmake -B "$PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  # shellcheck disable=SC2046
  cmake --build "$PERF_DIR" -j "$JOBS" \
    --target $(python3 scripts/goldens.py --targets)
  python3 scripts/goldens.py --check --build-dir "$PERF_DIR"
}

step_perfbench() {
  CARGO_TARGET_DIR="$PERF_DIR" python3 perfbench/run.py --self-check
}

if [ ${#ONLY[@]} -gt 0 ]; then
  STEPS=("${ONLY[@]}")
elif [ "$FAST" -eq 1 ]; then
  STEPS=(analyze build_fast test_fast)
else
  STEPS=(analyze build test tsan clang obs tidy perf goldens perfbench)
fi

N=${#STEPS[@]}
i=0
for step in "${STEPS[@]}"; do
  i=$((i + 1))
  case "$step" in
    analyze|build|test|tsan|clang|obs|tidy|perf|goldens|perfbench|build_fast|test_fast) ;;
    *) echo "unknown step: $step (steps: analyze build test tsan clang obs" \
            "tidy perf goldens perfbench)" >&2; exit 2 ;;
  esac
  echo "==> [$i/$N] $step"
  "step_$step"
done

echo "==> all checks passed"
