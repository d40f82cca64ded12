#!/usr/bin/env bash
# Runs every bench_e2e workload R times, each in a fresh process, and writes
# one result file per run (with its context: commit, nproc, compiler, build
# type) under <build-dir>/e2e_results/<commit>-<time>/, the directory
# compare_e2e.py reads. Run r uses seed N + r, and the workload order is
# reversed on every other run, so two sets made with the same --seed pair up
# run by run in compare_e2e.py. Exits non-zero if any run failed.
#
#   bench_e2e/run_e2e.sh [build-dir] [--seed N] [--runs R] [--trace]
#                        [--seconds S] [--scale full|smoke]
#
# Defaults: .bench_build, seed 1, 5 runs, untraced, BENCHMARK.json's
# run_seconds, full scale.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build=.bench_build
seed=1
runs=5
trace=0
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
scale=full
usage="usage: $0 [build-dir] [--seed N] [--runs R] [--trace] [--seconds S]
       [--scale full|smoke]"

if [[ $# -gt 0 && $1 != --* ]]; then
  build=$1
  shift
fi
while [[ $# -gt 0 ]]; do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --trace) trace=1; shift ;;
    --seconds) seconds=$2; shift 2 ;;
    --scale) scale=$2; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
out="$build/e2e_results/$commit-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"
forward=(converge churn query_mix bgp_replay)
backward=(bgp_replay query_mix churn converge)
status=0
for ((r = 0; r < runs; r++)); do
  if ((r % 2 == 0)); then order=("${forward[@]}"); else order=("${backward[@]}"); fi
  for w in "${order[@]}"; do
    s=$((seed + r))
    echo "== run $r: $w, seed $s" >&2
    args=(--build-dir "$build" --workload "$w" --seed "$s"
          --seconds "$seconds" --trace "$trace" --scale "$scale"
          --commit "$commit" --benchmark_out "$out/$w-run$r.json")
    if [[ $trace == 1 ]]; then
      args+=(--trace-file "$out/$w-run$r.trace.json")
    fi
    python3 "$here/run.py" "${args[@]}" || status=1
  done
done
echo "results: $out" >&2
exit $status
