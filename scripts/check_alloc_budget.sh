#!/usr/bin/env bash
# Allocation-budget gate for the zero-allocation shipping path.
#
# Runs the churn bench from an alloc-counting build (cmake
# -DNETTRAILS_COUNT_ALLOCS=ON) and fails if heap allocations per converged
# link flap exceed the committed budgets. The budgets pin the pooled
# pipeline — POD event records, recycled message frames, open-addressing
# row storage, pooled ValueList/arg buffers, tombstoned aggregate groups —
# against regressions that reintroduce per-tuple allocation.
#
# History (mincost, n=24): the pre-pooling pipeline measured 51,390
# allocs/flap at batch 64 and 54,529 at batch 1; the pooled pipeline
# measured ~3,920 and ~13,100. Batch 1 then dropped to ~5,020 when the
# per-action pipeline was removed and a batch of one started draining
# through the pooled batch path (batch 64 unchanged at ~3,920). f_mkrid
# then stopped building a Vid vector per call (two calls per derivation
# under the provenance rewrite) and queued deltas stopped carrying
# predicate names: ~2,480 at batch 64, ~3,230 at batch 1, and ~1,590 on
# the threaded leg below. Budgets carry ~15% headroom over the measured
# values so noise does not flake CI, while any real per-tuple regression
# (one alloc per shipped tuple is ~1,300/flap) trips the gate.
#
# Usage: scripts/check_alloc_budget.sh [build-dir]
#   build-dir defaults to build-alloc and must be configured with
#   -DNETTRAILS_COUNT_ALLOCS=ON (the script fails loud if the counter is
#   absent, which is what a non-counting build reports).
set -euo pipefail

BUILD_DIR="${1:-build-alloc}"
BENCH="$BUILD_DIR/bench_churn"
SCALEOUT="$BUILD_DIR/bench_scaleout"

# allocs_per_flap ceilings, keyed by benchmark args (nodes/batch).
BUDGET_24_64=2850
BUDGET_24_1=3700
# Threaded leg (bench_scaleout, nodes=64, threads=4, batch 64): the sharded
# loop must stay pooled too — worker frame arenas and op logs reach steady
# state exactly like the shared frame pool. Measured ~2,550 allocs/flap at
# threads 1, 2, AND 4 (the parallel path adds zero steady-state
# allocation); ~1,590 at each of those thread counts since f_mkrid stopped
# allocating. ~15% headroom like the serial budgets above.
BUDGET_SCALEOUT_64_4=1850

if [[ ! -x "$BENCH" || ! -x "$SCALEOUT" ]]; then
  echo "error: $BENCH / $SCALEOUT not built; configure with:" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release -DNETTRAILS_COUNT_ALLOCS=ON" >&2
  echo "  cmake --build $BUILD_DIR --target bench_churn bench_scaleout -j" >&2
  exit 2
fi

OUT="$BUILD_DIR/alloc_budget_churn.json"
"$BENCH" --benchmark_filter='Mincost_IncrementalFlap/24/(1|64)$' \
         --benchmark_min_time=0.2 \
         --benchmark_out="$OUT" --benchmark_out_format=json >/dev/null

SCALEOUT_OUT="$BUILD_DIR/alloc_budget_scaleout.json"
"$SCALEOUT" --benchmark_filter='Scaleout_Mincost_IncrementalFlap/64/4/' \
            --benchmark_min_time=0.2 \
            --benchmark_out="$SCALEOUT_OUT" --benchmark_out_format=json \
            >/dev/null

python3 - "$OUT" "$SCALEOUT_OUT" "$BUDGET_24_64" "$BUDGET_24_1" \
    "$BUDGET_SCALEOUT_64_4" <<'EOF'
import json, sys

out, scaleout_out = sys.argv[1], sys.argv[2]
budget64, budget1, budget_s = (float(a) for a in sys.argv[3:6])
budgets = {
    "BM_Churn_Mincost_IncrementalFlap/24/64": budget64,
    "BM_Churn_Mincost_IncrementalFlap/24/1": budget1,
    "BM_Scaleout_Mincost_IncrementalFlap/64/4/process_time/real_time":
        budget_s,
}
measured = {}
for path in (out, scaleout_out):
    for b in json.load(open(path))["benchmarks"]:
        if b["name"] in budgets:
            measured[b["name"]] = b.get("allocs_per_flap")

failed = False
for name, budget in budgets.items():
    got = measured.get(name)
    if got is None:
        print(f"FAIL {name}: no allocs_per_flap counter in bench output — "
              "bench was built without -DNETTRAILS_COUNT_ALLOCS=ON")
        failed = True
        continue
    verdict = "FAIL" if got > budget else "ok"
    print(f"{verdict:4s} {name}: {got:.0f} allocs/flap (budget {budget:.0f})")
    if got > budget:
        failed = True

sys.exit(1 if failed else 0)
EOF
