#!/usr/bin/env python3
"""Compares two bench_e2e result sets, metric by metric.

    python3 bench_e2e/compare_e2e.py BASE HEAD

BASE and HEAD are result directories written by run_e2e.sh, such as the
committed bench_e2e/results/baseline. Runs pair up by (workload, seed).
For every (workload, metric) the table gives both medians with their
quartiles, head/base with the base it divides by, the share of pairs the
head wins (ties count for neither), and a verdict.

End-to-end metrics are judged against their bound in BENCHMARK.json:
  improved    the head wins at least 9/10 of the pairs, and its median is
              better than the base's by more than the base's own quartile
              spread
  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound, and not every head run beats every base run
              (not for setup_s: a few short set-ups per run cannot make its
              spread steady, so it is judged on its median alone, as the
              benchmark's acceptance rule does)
  regressed   the head median is worse than the base median by more than
              the bound
  unchanged   none of the above
Per-layer metrics have no bound: "same" when every pair is identical (the
count metrics of one seed must be), otherwise "-".
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    files = sorted(f for f in glob.glob(os.path.join(path, "*-run*.json"))
                   if not f.endswith(".trace.json"))
    if not files:
        sys.exit("no result files in %s" % path)
    return [json.load(open(f)) for f in files]


def by_key(runs):
    """{(workload, metric): {seed: value}} plus units and failed runs."""
    values, units, bad = {}, {}, []
    for run in runs:
        if not run["result"]["correct"]:
            bad.append("%s seed %s" % (run["workload"], run["seed"]))
        for name, m in run["result"]["metrics"].items():
            key = (run["workload"], name)
            values.setdefault(key, {})[run["seed"]] = m["value"]
            units[name] = m["unit"]
    return values, units, bad


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(base, head, pairs, lower, bound, spread_counts=True):
    better = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
    wins = sum(better(h, b) for b, h in pairs) / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    if bound is None:
        return wins, "same" if pairs and all(b == h for b, h in pairs) else "-"
    if wins >= 0.9 and better(hmed, bmed) and abs(hmed - bmed) > bq3 - bq1:
        return wins, "improved"
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (hq3 - hq1) / hmed if hmed else 0.0)
    all_better = all(better(h, b) for h in head for b in base)
    if spread_counts and spread > bound and not all_better:
        return wins, "unresolved"
    worse = (hmed - bmed) if lower else (bmed - hmed)
    if bmed and worse / abs(bmed) > bound:
        return wins, "regressed"
    return wins, "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in spec["end_to_end"] + spec["per_layer"]}
    base, units, base_bad = by_key(load_runs(sys.argv[1]))
    head, _, head_bad = by_key(load_runs(sys.argv[2]))
    for label, bad in (("base", base_bad), ("head", head_bad)):
        if bad:
            print("# %s runs with failed ops: %s" % (label, ", ".join(bad)))
    verdicts = {}
    print("| workload | metric | unit | base median [q1, q3] | "
          "head median [q1, q3] | head/base (base) | head wins | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for key in sorted(set(base) & set(head)):
        workload, name = key
        b, h = base[key], head[key]
        pairs = [(b[s], h[s]) for s in sorted(set(b) & set(h))]
        bv, hv = list(b.values()), list(h.values())
        wins, v = verdict(bv, hv, pairs, lower.get(name, True),
                          bounds.get(name), spread_counts=name != "setup_s")
        verdicts[v] = verdicts.get(v, 0) + 1
        bq1, bmed, bq3 = quartiles(bv)
        hq1, hmed, hq3 = quartiles(hv)
        ratio = "%.4f (%.6g)" % (hmed / bmed, bmed) if bmed else "- (0)"
        print("| %s | %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %s | "
              "%d/%d | %s |" % (workload, name, units.get(name, ""), bmed, bq1,
                                bq3, hmed, hq1, hq3, ratio,
                                round(wins * len(pairs)), len(pairs), v))
    print("# verdicts: " +
          ", ".join("%s %d" % kv for kv in sorted(verdicts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
