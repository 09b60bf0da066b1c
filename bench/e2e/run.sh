#!/usr/bin/env bash
# End-to-end request benchmark for gmdiv. See bench/e2e/README.md.
#
#   bash bench/e2e/run.sh [--workload W] [--seconds S] [--seed N]
#                         [--trace [0|1]] [--smoke] [--selftest] [--calibrate]
#
# Builds gmdiv and the benchmark from source into build/e2e (first run
# only; later runs are a no-op build), clears every GMDIV_* knob, then
# runs the workload(s). With --workload, the last stdout line is that
# workload's JSON result; without it, all four run in turn and the last
# line merges them. --smoke runs every workload untraced and traced for
# 1 s each. --selftest corrupts one expected value per workload and
# exits nonzero when every workload caught it. --calibrate runs each
# workload 5 times over different seeds and rewrites bench/e2e/NOISE.md.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"

WORKLOADS=(bulk short_jobs route churn)
workload="" seconds="" seed=1 trace=0 smoke=0 selftest=0 calibrate=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --selftest) selftest=1; shift ;;
    --calibrate) calibrate=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ "$calibrate" = 1 ]; then
  exec python3 bench/e2e/e2e.py calibrate ${seconds:+--seconds "$seconds"}
fi

if [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: $ROOT/src is missing; the benchmark builds gmdiv from source" >&2
  exit 2
fi

# Reproducible runs: no GMDIV_* knob reaches the build or the binary.
while read -r var; do unset "$var"; done < <(compgen -e | grep '^GMDIV_' || true)

BUILD=build/e2e
mkdir -p "$BUILD"
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  generator=()
  command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
  if ! cmake -S bench/e2e -B "$BUILD" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$BUILD/configure.log" 2>&1; then
    tail -n 30 "$BUILD/configure.log" >&2
    rm -f "$BUILD/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$BUILD" --target gmdiv_e2e -j "$jobs" >"$BUILD/build.log" 2>&1; then
  tail -n 40 "$BUILD/build.log" >&2
  exit 1
fi

sha=unknown
if [ -e .git ]; then
  sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

run_one() { # workload seconds trace [extra args...]
  "$BUILD/gmdiv_e2e" --workload "$1" --seconds "$2" --trace "$3" \
    --seed "$seed" --out "$BUILD/out" --git-sha "$sha" "${@:4}"
}

if [ -n "$workload" ]; then
  WORKLOADS=("$workload")
fi

if [ "$selftest" = 1 ]; then
  for w in "${WORKLOADS[@]}"; do
    if run_one "$w" "${seconds:-1}" 0 --selftest >/dev/null; then
      echo "selftest: $w did not catch the corrupted expected value" >&2
      exit 0
    fi
    echo "selftest: $w caught the corrupted expected value" >&2
  done
  exit 1
fi

traces=("$trace")
if [ "$smoke" = 1 ]; then
  seconds=1
  traces=(0 1)
fi

if [ ${#WORKLOADS[@]} -eq 1 ] && [ ${#traces[@]} -eq 1 ]; then
  exec "$BUILD/gmdiv_e2e" --workload "${WORKLOADS[0]}" --seconds "${seconds:-20}" \
    --trace "$trace" --seed "$seed" --out "$BUILD/out" --git-sha "$sha"
fi

# Several runs: print each, then merge their results into the last line.
results="$BUILD/out/results.jsonl"
mkdir -p "$BUILD/out"
: >"$results"
status=0
for w in "${WORKLOADS[@]}"; do
  for t in "${traces[@]}"; do
    label="$w"
    [ ${#traces[@]} -gt 1 ] && label="$w.trace$t"
    run_one "$w" "${seconds:-20}" "$t" | tee "$BUILD/out/$label.log" || status=1
    tail -n 1 "$BUILD/out/$label.log" |
      sed "s/^/{\"workload\":\"$label\",\"result\":/; s/\$/}/" >>"$results"
  done
done
python3 bench/e2e/e2e.py merge "$results" || status=1
exit "$status"
