#!/usr/bin/env bash
# The end-to-end benchmark's one command (bench/e2e/README.md).
#
#   bench/e2e/run.sh
#       builds, runs every workload untraced and prints
#       "workload metric value unit", then runs the traced pass;
#   bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#       builds, then one run; its last stdout line is the JSON result.
#
# Builds into ${CARGO_TARGET_DIR:-.bench_build}/e2e under the repository root
# and leaves result files (and traced runs' Chrome-trace span files) in its
# results/ directory.  Build output goes to stderr.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"
BUILD="${CARGO_TARGET_DIR:-.bench_build}/e2e"
JOBS="$(nproc)"
if (( JOBS > 4 )); then JOBS=4; fi

{
  if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
    cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$BUILD" -j "$JOBS"
} >&2

BIN="$BUILD/yoso_e2e"
RESULTS="$BUILD/results"
mkdir -p "$RESULTS"
COMMIT=unknown
if [[ -e .git ]]; then COMMIT="$(git rev-parse --short=12 HEAD)"; fi

if (( $# > 0 )); then
  exec "$BIN" run "$@" --out-dir "$RESULTS" --commit "$COMMIT"
fi

SEED=1
for trace in 0 1; do
  for w in $("$BIN" list); do
    "$BIN" run --workload "$w" --seed "$SEED" --trace "$trace" --out-dir "$RESULTS" \
      --commit "$COMMIT" | sed '$d'
  done
done
echo "results and span files: $RESULTS" >&2
