#!/usr/bin/env bash
# Pre-merge gate: static analysis first, then sanitized builds + the full
# tier-1 test suite. One command, three stages:
#
#   0. Static gate (fast, runs first so cheap failures stop the expensive
#      stages): a -DMEMLP_WERROR=ON build of the whole tree — which also
#      compiles the generated per-header self-containment objects
#      (memlp_header_check) — plus the memlint project-invariant linter
#      over the real tree (rules R1–R10, docs/static-analysis.md) with a
#      per-rule hit/suppression summary. When clang-tidy is on PATH the
#      build additionally runs it over src/ via -DMEMLP_TIDY=ON with
#      --warnings-as-errors=*.
#   1. -DMEMLP_SANITIZE=ON (ASan + UBSan): builds everything and runs the
#      full suite with ctest -j. Any sanitizer report fails the
#      corresponding test, so a clean run means the suite is memory- and
#      UB-clean.
#   2. -DMEMLP_SANITIZE=thread (TSan): builds the concurrency-sensitive
#      binaries (test_par, test_obs, test_prof, test_tiled, test_crossbar,
#      test_factor_cache — tiled and crossbar exercise the parallel tile
#      paths, factor_cache the structured settle's parallel level updates)
#      and runs them under MEMLP_THREADS=4, proving the memlp::par pool,
#      the parallel tile/linalg paths, and the trace/metrics/profiler sinks
#      are race-free.
#   3. Smoke bench: fig6a_latency + fig7a_energy + complexity_scaling +
#      ablation_sparsity at a pinned tiny sweep (fixed seed, MEMLP_MAX_M=16,
#      2 trials) into a temp dir, then memlp_report against the committed
#      results/json/baseline tree — the regression gate from
#      docs/observability.md. Deterministic estimated metrics (including
#      the settle-cache refactor and plan counts, the sparse-Schur flop
#      crossover, and zero-shard counts) use the default tight tolerance;
#      measured wall clocks get a machine-tolerant band. ablation_sparsity
#      additionally hard-fails if the sparse Schur assembly is not >= 5x
#      cheaper than the dense form at 5% density, m = 512.
#
# Usage: scripts/check.sh [extra ctest args for the ASan run...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${MEMLP_CHECK_BUILD_DIR:-build-check}"
TSAN_BUILD_DIR="${MEMLP_CHECK_TSAN_BUILD_DIR:-build-check-tsan}"
STATIC_BUILD_DIR="${MEMLP_CHECK_STATIC_BUILD_DIR:-build-check-static}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

TIDY=OFF
if command -v clang-tidy >/dev/null 2>&1; then
  TIDY=ON
fi

echo "== Static gate (memlint + Werror, clang-tidy: $TIDY) =="
if [ "$TIDY" = OFF ]; then
  echo "note: clang-tidy not on PATH; tidy checks skipped in this run"
fi
cmake -B "$STATIC_BUILD_DIR" -S . -DMEMLP_WERROR=ON -DMEMLP_TIDY="$TIDY" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$STATIC_BUILD_DIR" -j "$JOBS"
"$STATIC_BUILD_DIR/tools/memlint" --root . --summary

echo "== ASan/UBSan gate =="
cmake -B "$BUILD_DIR" -S . -DMEMLP_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"
# A solver failure or contract trip during the suite dumps the flight
# recorder (docs/observability.md) — pin the dump next to the build so a
# failing run leaves its post-mortem at a known path (CI uploads it).
# Tests that assert on the dump override MEMLP_FLIGHT_DUMP themselves.
FLIGHT_DUMP="$PWD/$BUILD_DIR/memlp_flight.jsonl"
rm -f "$FLIGHT_DUMP"
if ! MEMLP_FLIGHT_DUMP="$FLIGHT_DUMP" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" "$@"; then
  [ -s "$FLIGHT_DUMP" ] && \
    echo "flight-recorder dump preserved at $FLIGHT_DUMP"
  exit 1
fi

echo "== TSan gate (test_par + test_obs + test_prof + test_tiled + test_crossbar + test_factor_cache) =="
cmake -B "$TSAN_BUILD_DIR" -S . -DMEMLP_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" \
  --target test_par test_obs test_prof test_tiled test_crossbar \
  test_factor_cache
MEMLP_THREADS=4 ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
  -j "$JOBS" -L 'test_par|test_obs|test_prof|test_tiled|test_crossbar|test_factor_cache'

echo "== Smoke bench vs results/json/baseline =="
# Runs the unsanitized static-gate binaries (sanitizers would skew wall
# clocks); the deterministic estimated metrics carry the gate at the tight
# default tolerance, measured wall clocks get a machine-tolerant 5x band.
# The pinned sweep must match scripts/update_baseline.sh, or every
# comparison is apples to oranges.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SMOKE_ENV=(MEMLP_MAX_M=16 MEMLP_TRIALS=2 MEMLP_SEED=42 MEMLP_THREADS=1
           MEMLP_BENCH_DIR="$SMOKE_DIR")
env "${SMOKE_ENV[@]}" "$STATIC_BUILD_DIR/bench/fig6a_latency" > /dev/null
env "${SMOKE_ENV[@]}" "$STATIC_BUILD_DIR/bench/fig7a_energy" > /dev/null
env "${SMOKE_ENV[@]}" "$STATIC_BUILD_DIR/bench/complexity_scaling" > /dev/null
env "${SMOKE_ENV[@]}" "$STATIC_BUILD_DIR/bench/ablation_sparsity" > /dev/null
"$STATIC_BUILD_DIR/tools/memlp_report" --require-coverage \
  --tolerance-measured 5.0 results/json/baseline "$SMOKE_DIR"
