#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to .bench_build (or
--build-dir) and is incremental, so only the first run pays for it. Build
output goes to standard error; standard output is the benchmark's, whose
last line is its JSON result. With --trace 1 the Chrome trace is written to
<build-dir>/traces/ unless --trace-file is given. Exit status: the
benchmark's, or 3 if the build fails (no result is printed then).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("converge", "churn", "query_mix", "bgp_replay")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--build-dir", default=".bench_build")
    p.add_argument("--trace-file")
    p.add_argument("--benchmark_out")
    p.add_argument("--commit")
    args = p.parse_args()

    build_dir = os.path.abspath(args.build_dir)
    if not build(build_dir):
        print("bench_e2e: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale]
    if args.trace == "1":
        trace_file = args.trace_file or os.path.join(
            build_dir, "traces", "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(trace_file)), exist_ok=True)
        cmd += ["--trace-file", trace_file]
    if args.benchmark_out:
        cmd += ["--benchmark_out=" + args.benchmark_out]
    if args.commit:
        cmd += ["--commit", args.commit]
    # Become the benchmark, so whoever started this script waits on (and
    # can stop) the measuring process itself.
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())
