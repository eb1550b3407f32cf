#!/usr/bin/env bash
# One-command correctness gate for the dswm repo.
#
# Builds and tests up to five trees:
#   build-release/       Release, -Werror        (the shipping configuration)
#   build-asan/          ASan+UBSan, -Werror, DCHECKs (the tripwired tree)
#   build-tsan/          TSan, -Werror, DCHECKs  (thread-pool + threaded
#                                                 kernel tests only)
#   build-threadsafety/  clang -Wthread-safety -Werror=thread-safety over
#                        the capability annotations (clang only; skipped
#                        with a notice when no clang++ is on PATH)
#   build-fuzz/          DSWM_FUZZ=ON + ASan+UBSan: corpus-replay ctests
#                        plus a bounded mutation smoke of both harnesses
#   build-fastmath/      Release + -DDSWM_FAST_MATH=ON: the FMA-contracted
#                        kernels against the FastMath tolerance suite (the
#                        bitwise-vs-Reference oracles self-skip there)
# then smoke-tests the benchmark JSON emitter, runs both repo linters
# (tools/dswm_lint.py textual, tools/dswm_semlint.py AST-level, with the
# fixture selftest and an empty-grandfather gate) and, when the binaries
# exist on PATH, a clang-format --dry-run check and clang-tidy --
# enforced (warnings-as-errors) on src/obs and src/net, budgeted
# elsewhere (tools/tidy_budget.txt, a ratchet that may only decrease).
#
# Usage: tools/run_checks.sh [--skip-release] [--skip-asan] [--skip-tsan]
#                            [--skip-fuzz] [--skip-fastmath] [--skip-bench]
#                            [--jobs N]
# Exits nonzero on the first failing stage.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
SKIP_RELEASE=0
SKIP_ASAN=0
SKIP_TSAN=0
SKIP_BENCH=0
SKIP_FUZZ=0
SKIP_FASTMATH=0
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
    --skip-fastmath) SKIP_FASTMATH=1 ;;
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

  # The serve-labeled suite under TSan: the snapshot store's publish /
  # pin / reclaim protocol is the one deliberately lock-free reader path
  # in the tree, and the publish-while-read stress plus the bit-identity
  # loaded runs are exactly the tests where a misordered epoch announce
  # or a reclaim-while-pinned shows up as a race instead of luck.
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

if [[ "${SKIP_FASTMATH}" -eq 0 ]]; then
  # FMA-contracted kernel mode. Not bit-exact with the default build (by
  # design -- one rounding per accumulate step instead of two), so its
  # acceptance gate is the FastMath tolerance suite, not the memcmp
  # oracles; those self-skip under DSWM_FAST_MATH. The filter also pulls
  # in the Threaded/batched bit-identity tests, which must still hold:
  # contraction never changes the accumulation partition.
  build_and_test build-fastmath 'FastMath|Threaded|ThreadPool' \
    -DCMAKE_BUILD_TYPE=Release -DDSWM_FAST_MATH=ON
fi

if [[ "${SKIP_BENCH}" -eq 0 ]]; then
  log "bench smoke (JSON emitter)"
  if [[ ! -f "${ROOT}/build-release/CMakeCache.txt" ]]; then
    cmake -B "${ROOT}/build-release" -S "${ROOT}" -DDSWM_WERROR=ON \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target bench_micro_linalg
  BENCH_JSON_TMP="$(mktemp /tmp/dswm_bench_smoke.XXXXXX.json)"
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
  WIN_JSON_TMP="$(mktemp /tmp/dswm_bench_window.XXXXXX.json)"
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
  # is a strict subset of the enabled one. Medians over repetitions damp
  # scheduler noise.
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target bench_micro_sketch
  OVH_OFF_TMP="$(mktemp /tmp/dswm_ovh_off.XXXXXX.json)"
  OVH_ON_TMP="$(mktemp /tmp/dswm_ovh_on.XXXXXX.json)"
  DSWM_BENCH_JSON="${OVH_OFF_TMP}" \
    "${ROOT}/build-release/bench/bench_micro_sketch" \
    --benchmark_filter='BM_FrequentDirectionsAppend/128/20$' \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true >/dev/null
  DSWM_BENCH_JSON="${OVH_ON_TMP}" DSWM_BENCH_METRICS=1 \
    "${ROOT}/build-release/bench/bench_micro_sketch" \
    --benchmark_filter='BM_FrequentDirectionsAppend/128/20$' \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true >/dev/null
  python3 - "${OVH_OFF_TMP}" "${OVH_ON_TMP}" <<'PY'
import json, sys
def median_time(path):
    with open(path) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        if b.get("aggregate_name") == "median":
            return b["real_time"]
    raise AssertionError(f"no median aggregate in {path}")
off = median_time(sys.argv[1])
on = median_time(sys.argv[2])
overhead = (on - off) / off
assert overhead < 0.03, (
    f"metrics overhead {overhead:.1%} exceeds 3% on micro-sketch "
    f"(disabled {off:.1f}ns, enabled {on:.1f}ns per append)")
print(f"metrics overhead OK ({overhead:+.2%}: "
      f"disabled {off:.1f}ns, enabled {on:.1f}ns per append)")
PY
  rm -f "${OVH_OFF_TMP}" "${OVH_ON_TMP}"

  log "net bench smoke (DA2 and DA1 wire bytes vs baselines)"
  # Serialized bytes per window are exact under loopback (deterministic
  # protocol, deterministic wire format), so the committed baselines are
  # checked with zero tolerance: any drift is a wire-format or protocol
  # change and must be re-baselined deliberately. DA1's report decisions
  # also hang on its d x d kernels (power-iteration norm check,
  # eigendecomposition, send cut), so a kernel change that flips one of
  # them changes its word count.
  cmake --build "${ROOT}/build-release" -j "${JOBS}" --target dswm_cli
  for ALG in DA2 DA1; do
    BASELINE="bench/BENCH_net_${ALG,,}_bytes.json"
    NET_JSON_TMP="$(mktemp /tmp/dswm_net_${ALG,,}.XXXXXX.json)"
    "${ROOT}/build-release/tools/dswm_cli" run --dataset synthetic \
      --algorithm "${ALG}" --epsilon 0.2 --sites 4 --rows 4000 \
      --window 500 --seed 1 --queries 2 --net-json 1 \
      | grep '^{' > "${NET_JSON_TMP}"
    python3 - "${NET_JSON_TMP}" "${ROOT}/${BASELINE}" "${BASELINE}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    got = json.load(f)
with open(sys.argv[2]) as f:
    want = json.load(f)
for key in ("algorithm", "total_words", "wire_payload_bytes",
            "wire_transmissions", "payload_bytes_per_window"):
    assert got[key] == want[key], (
        f"{want['algorithm']} wire baseline drift in '{key}': "
        f"got {got[key]!r}, baseline {want[key]!r} -- if intentional, "
        f"regenerate {sys.argv[3]} with the command in that file")
print(f"{got['algorithm']} wire baseline OK "
      f"({got['wire_payload_bytes']} payload bytes, "
      f"{got['payload_bytes_per_window']} per window)")
PY
    rm -f "${NET_JSON_TMP}"
  done

  log "IWMT trigger gate (DA2 decompositions per row)"
  # DA2's IWMT decomposes its residual only when the Schur-complement
  # certificate cannot show the top eigenvalue is below theta (DESIGN.md
  # item 5). The old mass-bound trigger decomposed about once per row on
  # SYNTHETIC's flat spectrum. The count is deterministic, so a fixed
  # ceiling catches that trigger's return with no timing noise.
  IWMT_JSON_TMP="$(mktemp /tmp/dswm_iwmt_gate.XXXXXX.json)"
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
assert skips > 0, "the IWMT certificate never ran (certified_skips is 0)"
assert 0 < per_row <= 0.40, (
    f"IWMT decompositions per row {per_row:.3f} exceed the 0.40 ceiling "
    "(the certified trigger makes 0.31 on this run)")
print(f"IWMT trigger OK ({per_row:.3f} decompositions/row, "
      f"{skips} certified skips)")
PY
  rm -f "${IWMT_JSON_TMP}"

  log "serving-bench smoke (QPS + latency histogram + metrics invariance)"
  # Three serving-tier claims checked cheaply: the closed-loop load gen
  # sustains a nonzero QPS with zero Status errors, the obs latency
  # histogram actually populates (the DSWM_OBS_HISTOGRAM site is live),
  # and flipping metrics on/off changes no query result bytes (the
  # --selfcheck pass runs the same deterministic probe sequence both ways
  # and memcmps the doubles).
  SERVE_LOG_TMP="$(mktemp /tmp/dswm_serve_smoke.XXXXXX.log)"
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

log "dswm_lint"
python3 "${ROOT}/tools/dswm_lint.py" --root "${ROOT}"

log "dswm_semlint (AST-level rules)"
SEMLINT_DB=""
for dir in "${ROOT}"/build-release "${ROOT}"/build "${ROOT}"/build-fuzz; do
  if [[ -f "${dir}/compile_commands.json" ]]; then
    SEMLINT_DB="${dir}/compile_commands.json"
    break
  fi
done
python3 "${ROOT}/tools/dswm_semlint.py" --root "${ROOT}" \
  ${SEMLINT_DB:+--compile-commands "${SEMLINT_DB}"}

log "dswm_semlint selftest (rule fixtures)"
python3 "${ROOT}/tools/dswm_semlint_test.py" --root "${ROOT}"

log "grandfather gate"
# The semantic linter started life with empty grandfather lists and they
# must stay empty: new code meets the rules or carries a per-line,
# justified allow marker. Any entry in the GRANDFATHERED block fails here.
python3 - "${ROOT}/tools/dswm_semlint.py" <<'PY'
import re, sys
src = open(sys.argv[1]).read()
block = re.search(r"GRANDFATHERED = \{(.*?)\n\}", src, re.S)
assert block, "GRANDFATHERED block missing from dswm_semlint.py"
entries = re.findall(r":\s*\{\s*\"", block.group(1))
assert not entries, f"{len(entries)} grandfather list(s) are non-empty"
print("grandfather lists empty")
PY

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
  TIDY_LOG="$(mktemp /tmp/dswm_tidy.XXXXXX.log)"
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
