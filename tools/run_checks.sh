#!/usr/bin/env bash
# One-command correctness gate for the dswm repo.
#
# Builds and tests up to six trees:
#   build-release/       Release, -Werror        (the shipping configuration)
#   build-portable/      Release, -Werror, DSWM_AVX=OFF (the scalar
#                                                 linalg tiles; its ctest
#                                                 runs the DigestGate cases
#                                                 against the same committed
#                                                 digests as build-release)
#   build-asan/          ASan+UBSan, -Werror, DCHECKs (the tripwired tree)
#   build-tsan/          TSan, -Werror, DCHECKs  (thread-pool + threaded
#                                                 kernel tests only)
#   build-threadsafety/  clang -Wthread-safety -Werror=thread-safety over
#                        the capability annotations (clang only; skipped
#                        with a notice when no clang++ is on PATH)
#   build-fuzz/          DSWM_FUZZ=ON + ASan+UBSan: corpus-replay ctests
#                        plus a bounded mutation smoke of both harnesses
# The ctest of release, portable and asan is tier-1 in full. Its exactness
# gate is DigestGate (tests/determinism_test.cc): every tracker's run
# digest -- the estimates at the query points and the message ledger --
# must equal a committed value with metrics off, metrics on and at 4
# threads, for the 11 algorithms on all three datasets, fault profiles,
# the former wire baselines and perfbench's workload shapes.
#
# After the trees, it smoke-tests the benchmark JSON emitter, runs the repo
# linter (tools/dswm_semlint.py, every rule R1-R14) and its fixture
# selftest and,
# when the binaries exist on PATH, a clang-format --dry-run check and
# clang-tidy -- enforced (warnings-as-errors) on src/obs and src/net,
# budgeted elsewhere (tools/tidy_budget.txt, a ratchet that may only
# decrease).
#
# Usage: tools/run_checks.sh [--skip-release] [--skip-asan] [--skip-tsan]
#                            [--skip-fuzz] [--skip-bench] [--jobs N]
# Exits nonzero on the first failing stage.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_RELEASE=0
SKIP_ASAN=0
SKIP_TSAN=0
SKIP_BENCH=0
SKIP_FUZZ=0
# Mutation counts sized to keep the whole fuzz stage near a minute on a
# typical container; the corpus replay part is always exhaustive.
FUZZ_WIRE_RUNS=20000
FUZZ_CSV_RUNS=8000

while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-release) SKIP_RELEASE=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-bench) SKIP_BENCH=1 ;;
    --skip-fuzz) SKIP_FUZZ=1 ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "run_checks.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

log() { printf '\n=== %s ===\n' "$*"; }

build_and_test() {
  local dir="$1"; shift
  local filter="$1"; shift
  log "configure ${dir}"
  cmake -B "${ROOT}/${dir}" -S "${ROOT}" -DDSWM_WERROR=ON "$@"
  log "build ${dir} (-j${JOBS})"
  cmake --build "${ROOT}/${dir}" -j "${JOBS}"
  log "ctest ${dir}"
  if [[ -n "${filter}" ]]; then
    ctest --test-dir "${ROOT}/${dir}" --output-on-failure -j "${JOBS}" \
      -R "${filter}"
  else
    ctest --test-dir "${ROOT}/${dir}" --output-on-failure -j "${JOBS}"
  fi
}

if [[ "${SKIP_RELEASE}" -eq 0 ]]; then
  build_and_test build-release "" -DCMAKE_BUILD_TYPE=Release
  build_and_test build-portable "" -DCMAKE_BUILD_TYPE=Release -DDSWM_AVX=OFF
fi

if [[ "${SKIP_ASAN}" -eq 0 ]]; then
  build_and_test build-asan "" -DCMAKE_BUILD_TYPE=Debug \
    -DDSWM_SANITIZE="address;undefined"
fi

if [[ "${SKIP_ASAN}" -eq 0 ]]; then
  # Explicit transport pass: the net-labeled suite (wire-format parser
  # corpus, channel fault injection, ledger cross-validation) under
  # ASan+UBSan, where a parser over-read actually trips.
  log "ctest -L net (build-asan)"
  ctest --test-dir "${ROOT}/build-asan" --output-on-failure -j "${JOBS}" \
    -L net
fi

if [[ "${SKIP_TSAN}" -eq 0 ]]; then
  # TSan is exclusive with ASan, so it gets its own tree. Only the tests
  # that actually spawn workers matter here (ThreadPool semantics plus the
  # Threaded* kernel/driver equivalence tests); the full suite already ran
  # under ASan above.
  build_and_test build-tsan 'ThreadPool|Threaded' -DCMAKE_BUILD_TYPE=Debug \
    -DDSWM_SANITIZE=thread

  # The obs-labeled suite under TSan: concurrent relaxed-atomic metric
  # updates and the thread_local span paths are exactly the code TSan can
  # vet (a missed atomic would be a data race here, not just wrong counts).
  log "ctest -L obs (build-tsan)"
  ctest --test-dir "${ROOT}/build-tsan" --output-on-failure -j "${JOBS}" \
    -L obs

  # The serve-labeled suite under TSan: the publish-while-read stress
  # (store readers and session readers against a live publisher) plus the
  # bit-identity loaded runs are exactly the tests where a version freed
  # while still read, or a session's unlocked version check, shows up as
  # a race instead of luck.
  log "ctest -L serve (build-tsan)"
  ctest --test-dir "${ROOT}/build-tsan" --output-on-failure -j "${JOBS}" \
    -L serve
fi

# Thread-safety analysis: the capability annotations in
# common/thread_annotations.h are only checked by clang; GCC compiles
# them away. A compile of the full tree IS the test (DSWM_WERROR plus
# -Werror=thread-safety from the option), so no ctest run here.
if command -v clang++ >/dev/null 2>&1; then
  log "configure build-threadsafety (clang -Wthread-safety)"
  cmake -B "${ROOT}/build-threadsafety" -S "${ROOT}" \
    -DCMAKE_CXX_COMPILER=clang++ -DCMAKE_BUILD_TYPE=Release \
    -DDSWM_WERROR=ON -DDSWM_THREAD_SAFETY=ON
  log "build build-threadsafety (-j${JOBS})"
  cmake --build "${ROOT}/build-threadsafety" -j "${JOBS}"
else
  log "clang++ not found; skipping thread-safety analysis build"
fi

if [[ "${SKIP_FUZZ}" -eq 0 ]]; then
  # Fuzz tree: harnesses under ASan+UBSan. Two layers run here: the
  # committed corpus replays as ordinary ctests (every past finding and
  # structured near-miss stays fixed), then a bounded deterministic
  # mutation smoke hammers both parsers. Long coverage-guided runs are a
  # manual activity (clang/libFuzzer, same harnesses).
  log "configure build-fuzz (DSWM_FUZZ + ASan/UBSan)"
  cmake -B "${ROOT}/build-fuzz" -S "${ROOT}" -DCMAKE_BUILD_TYPE=Debug \
    -DDSWM_WERROR=ON -DDSWM_FUZZ=ON -DDSWM_SANITIZE="address;undefined"
  log "build build-fuzz (-j${JOBS})"
  cmake --build "${ROOT}/build-fuzz" -j "${JOBS}" \
    --target fuzz_wire_parse fuzz_csv_parse
  log "ctest -L fuzz (corpus replay)"
  ctest --test-dir "${ROOT}/build-fuzz" --output-on-failure -j "${JOBS}" \
    -L fuzz
  log "fuzz smoke (${FUZZ_WIRE_RUNS} wire + ${FUZZ_CSV_RUNS} csv mutations)"
  "${ROOT}/build-fuzz/fuzz/fuzz_wire_parse" -runs="${FUZZ_WIRE_RUNS}" \
    -seed=1 "${ROOT}/fuzz/corpus/wire"
  "${ROOT}/build-fuzz/fuzz/fuzz_csv_parse" -runs="${FUZZ_CSV_RUNS}" \
    -seed=1 "${ROOT}/fuzz/corpus/csv"
fi

if [[ "${SKIP_BENCH}" -eq 0 ]]; then
  log "bench smoke (JSON emitter)"
  if [[ ! -f "${ROOT}/build-release/CMakeCache.txt" ]]; then
    cmake -B "${ROOT}/build-release" -S "${ROOT}" -DDSWM_WERROR=ON \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target bench_micro_linalg
  BENCH_JSON_TMP="$(mktemp "${TMPDIR:-/tmp}/dswm_bench_smoke.XXXXXX.json")"
  DSWM_BENCH_JSON="${BENCH_JSON_TMP}" \
    "${ROOT}/build-release/bench/bench_micro_linalg" \
    --benchmark_filter='BM_MatMul/128$' --benchmark_min_time=0.01 \
    >/dev/null
  python3 - "${BENCH_JSON_TMP}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc.get("benchmarks"), "DSWM_BENCH_JSON produced no benchmark entries"
print(f"bench JSON OK ({len(doc['benchmarks'])} entries)")
PY
  rm -f "${BENCH_JSON_TMP}"

  log "bench smoke (batched window cells)"
  # One fast cell from each batched-engine benchmark: proves the binary
  # runs, the JSON emitter fires, and SetGlobalThreads inside a benchmark
  # body restores the pool (the process would hang teardown otherwise).
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target bench_micro_window
  WIN_JSON_TMP="$(mktemp "${TMPDIR:-/tmp}/dswm_bench_window.XXXXXX.json")"
  DSWM_BENCH_JSON="${WIN_JSON_TMP}" \
    "${ROOT}/build-release/bench/bench_micro_window" \
    --benchmark_filter='BM_SamplerRefill/256' --benchmark_min_time=0.01 \
    >/dev/null
  python3 - "${WIN_JSON_TMP}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
names = [b["name"] for b in doc.get("benchmarks", [])]
assert any("/1" in n for n in names) and any("/4" in n for n in names), (
    f"expected 1- and 4-thread sampler-refill cells, got {names}")
print(f"window bench JSON OK ({len(names)} cells)")
PY
  rm -f "${WIN_JSON_TMP}"

  log "metrics overhead smoke (micro-sketch, enabled vs disabled)"
  # The observability contract says instrumentation is near-zero overhead:
  # the disabled path is one relaxed load + untaken branch per site, and
  # even the *enabled* path (relaxed atomic adds) must stay within 3% on
  # the hottest instrumented loop (FD append, one DSWM_OBS_COUNT per
  # shrink). Measuring enabled-vs-disabled bounds both: the disabled path
  # is a strict subset of the enabled one. Host speed drifts between runs
  # by more than 3%, so the two sides alternate in seven back-to-back
  # pairs and the bound applies to the median of the per-pair ratios.
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target bench_micro_sketch
  OVH_DIR_TMP="$(mktemp -d "${TMPDIR:-/tmp}/dswm_ovh.XXXXXX")"
  for pair in 1 2 3 4 5 6 7; do
    for side in off on; do
      metrics=0
      [[ "${side}" == on ]] && metrics=1
      DSWM_BENCH_JSON="${OVH_DIR_TMP}/${side}${pair}.json" \
        DSWM_BENCH_METRICS="${metrics}" \
        "${ROOT}/build-release/bench/bench_micro_sketch" \
        --benchmark_filter='BM_FrequentDirectionsAppend/128/20$' \
        --benchmark_min_time=0.2 >/dev/null
    done
  done
  python3 - "${OVH_DIR_TMP}" <<'PY'
import json, statistics, sys
def time_of(path):
    with open(path) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        if b.get("run_type", "iteration") == "iteration":
            return b["real_time"]
    raise AssertionError(f"no timed run in {path}")
pairs = [(time_of(f"{sys.argv[1]}/off{i}.json"),
          time_of(f"{sys.argv[1]}/on{i}.json")) for i in range(1, 8)]
ratios = [on / off for off, on in pairs]
overhead = statistics.median(ratios) - 1.0
detail = ", ".join(f"{r - 1.0:+.1%}" for r in ratios)
assert overhead < 0.03, (
    f"metrics overhead {overhead:.1%} (median of 7 pairs: {detail}) "
    "exceeds 3% on micro-sketch")
print(f"metrics overhead OK ({overhead:+.2%}, median of 7 pairs: {detail})")
PY
  rm -rf "${OVH_DIR_TMP}"

  log "IWMT trigger gate (DA2 decompositions and Cholesky rows per row)"
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target dswm_cli
  # DA2's IWMT decomposes its residual only when the Schur-complement
  # certificate cannot show the top eigenvalue is below theta (DESIGN.md
  # item 5). The old mass-bound trigger decomposed about once per row on
  # SYNTHETIC's flat spectrum. The certificate extends its Cholesky factor
  # by the rows appended since its last run; refactoring all of them on
  # every run planned 37.3 rows per input row here. The counts are
  # deterministic, so fixed ceilings catch either regression with no
  # timing noise.
  IWMT_JSON_TMP="$(mktemp "${TMPDIR:-/tmp}/dswm_iwmt_gate.XXXXXX.json")"
  "${ROOT}/build-release/tools/dswm_cli" run --dataset synthetic \
    --algorithm DA2 --epsilon 0.05 --sites 20 --rows 14000 --window 4000 \
    --seed 1 --queries 2 --metrics-json - | grep '^{' > "${IWMT_JSON_TMP}"
  python3 - "${IWMT_JSON_TMP}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
rows = 14000
per_row = counters.get("core.iwmt.decompositions", 0) / rows
skips = counters.get("core.iwmt.certified_skips", 0)
chol_per_row = counters.get("core.iwmt.cholesky_rows", 0) / rows
assert skips > 0, "the IWMT certificate never ran (certified_skips is 0)"
assert 0 < per_row <= 0.40, (
    f"IWMT decompositions per row {per_row:.3f} exceed the 0.40 ceiling "
    "(the certified trigger makes 0.31 on this run)")
assert 0 < chol_per_row <= 12, (
    f"IWMT Cholesky rows per row {chol_per_row:.2f} exceed the 12 ceiling "
    "(the extended factor plans 7.13 on this run)")
print(f"IWMT trigger OK ({per_row:.3f} decompositions/row, "
      f"{skips} certified skips, {chol_per_row:.2f} Cholesky rows/row)")
PY
  rm -f "${IWMT_JSON_TMP}"

  log "DA1 Krylov gate (fallbacks, Lanczos steps and eigensolves)"
  # DA1 checks ||C - C_hat|| by a Lanczos run and ships the Ritz pairs
  # above the cut once they converge and CertifyNormBelow proves nothing
  # above it was missed; only a run that hits its step cap or fails the
  # certificate falls back to the d x d SymmetricEigen (DESIGN.md item 4).
  # The counts are deterministic. On this run (d = 64, so the cap reaches
  # d) the Krylov path settles every decomposition, in 12.2 Lanczos steps
  # per check, and no eigensolve runs; the exact path ran 0.127 per row.
  DA1_JSON_TMP="$(mktemp "${TMPDIR:-/tmp}/dswm_da1_gate.XXXXXX.json")"
  "${ROOT}/build-release/tools/dswm_cli" run --dataset synthetic \
    --algorithm DA1 --epsilon 0.05 --sites 20 --rows 14000 --window 4000 \
    --seed 1 --queries 2 --metrics-json - | grep '^{' > "${DA1_JSON_TMP}"
  python3 - "${DA1_JSON_TMP}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
rows = 14000
checks = counters.get("core.da1.norm_checks", 0)
decompositions = counters.get("core.da1.decompositions", 0)
assert checks > 0 and decompositions > 0, "DA1 ran no check or report"
fallbacks = counters.get("core.da1.fallbacks", 0) / decompositions
steps = counters.get("core.da1.lanczos_steps", 0) / checks
eigen = counters.get("linalg.eigen.calls", 0) / rows
assert fallbacks <= 0.01, (
    f"DA1 fallbacks per decomposition {fallbacks:.4f} exceed the 0.01 "
    "ceiling (the Krylov path settles all of them on this run)")
assert 0 < steps <= 16, (
    f"DA1 Lanczos steps per check {steps:.2f} exceed the 16 ceiling "
    "(12.2 on this run)")
assert eigen <= 0.01, (
    f"DA1 eigensolves per row {eigen:.4f} exceed the 0.01 ceiling "
    "(0 on this run, 0.127 on the exact path)")
print(f"DA1 Krylov OK ({fallbacks:.4f} fallbacks/decomposition, "
      f"{steps:.2f} Lanczos steps/check, {eigen:.4f} eigensolves/row)")
PY
  rm -f "${DA1_JSON_TMP}"

  log "serving-bench smoke (QPS + latency histogram + metrics invariance)"
  # Three serving-tier claims checked cheaply: the closed-loop load gen
  # sustains a nonzero QPS with zero Status errors, the obs latency
  # histogram actually populates (the DSWM_OBS_HISTOGRAM site is live),
  # and flipping metrics on/off changes no query result bytes (the
  # --selfcheck pass runs the same deterministic probe sequence both ways
  # and memcmps the doubles).
  SERVE_LOG_TMP="$(mktemp "${TMPDIR:-/tmp}/dswm_serve_smoke.XXXXXX.log")"
  "${ROOT}/build-release/tools/dswm_cli" serve-bench --rows 2000 \
    --readers 2 --min-queries 50 | tee "${SERVE_LOG_TMP}"
  python3 - "${SERVE_LOG_TMP}" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
qps = float(re.search(r"^qps\s*:\s*([\d.]+)", text, re.M).group(1))
errors = int(re.search(r"^errors\s*:\s*(\d+)", text, re.M).group(1))
hist = re.search(r"^latency \(us\)\s*:\s*(\S.*)$", text, re.M)
assert qps > 0, f"serving bench reported zero QPS"
assert errors == 0, f"serving bench reported {errors} query errors"
assert hist and hist.group(1).strip(), "latency histogram is empty"
print(f"serving smoke OK ({qps:.0f} QPS, populated latency histogram)")
PY
  rm -f "${SERVE_LOG_TMP}"
  "${ROOT}/build-release/tools/dswm_cli" serve-bench --rows 1200 \
    --selfcheck 1
fi

log "dswm_semlint"
python3 "${ROOT}/tools/dswm_semlint.py" --root "${ROOT}"

log "dswm_semlint selftest (rule fixtures)"
python3 "${ROOT}/tools/dswm_semlint_test.py" --root "${ROOT}"

if command -v clang-format >/dev/null 2>&1; then
  log "clang-format --dry-run"
  # shellcheck disable=SC2046
  clang-format --dry-run --Werror $(cd "${ROOT}" && \
    git ls-files 'src/**/*.h' 'src/**/*.cc' 'tests/*.cc' 'bench/*.cc' \
                 'bench/*.h' 'examples/*.cpp' 'tools/*.cc' | \
    sed "s|^|${ROOT}/|")
else
  log "clang-format not found; skipping format check"
fi

if command -v run-clang-tidy >/dev/null 2>&1 && \
   command -v clang-tidy >/dev/null 2>&1; then
  TIDY_DB="$("${ROOT}/tools/compiledb.sh")"
  TIDY_DIR="$(dirname "${TIDY_DB}")"

  # Enforced zone: src/obs and src/net were written tidy-clean (they are
  # the youngest subsystems), so any diagnostic there is an error.
  log "clang-tidy (src/obs + src/net, warnings-as-errors)"
  run-clang-tidy -quiet -p "${TIDY_DIR}" \
    -warnings-as-errors='*' "${ROOT}/src/(obs|net)/.*"

  # Budgeted zone: the rest of src/ carries a warning-count ratchet.
  # tools/tidy_budget.txt holds the ceiling; lower it as warnings are
  # burned down, never raise it.
  TIDY_BUDGET="$(grep -v '^#' "${ROOT}/tools/tidy_budget.txt" | head -1)"
  log "clang-tidy (src/ excluding obs+net, budget ${TIDY_BUDGET})"
  TIDY_LOG="$(mktemp "${TMPDIR:-/tmp}/dswm_tidy.XXXXXX.log")"
  run-clang-tidy -quiet -p "${TIDY_DIR}" \
    "${ROOT}/src/(?!obs/|net/).*" >"${TIDY_LOG}" 2>&1 || true
  TIDY_COUNT="$(grep -c 'warning:' "${TIDY_LOG}" || true)"
  if [[ "${TIDY_COUNT}" -gt "${TIDY_BUDGET}" ]]; then
    cat "${TIDY_LOG}"
    echo "clang-tidy: ${TIDY_COUNT} warnings exceed budget ${TIDY_BUDGET}" >&2
    rm -f "${TIDY_LOG}"
    exit 1
  fi
  echo "clang-tidy budget OK (${TIDY_COUNT}/${TIDY_BUDGET} warnings)"
  rm -f "${TIDY_LOG}"
else
  log "clang-tidy not found; skipping tidy check"
fi

log "all checks passed"
