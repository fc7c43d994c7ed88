#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_small_n --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (Release) into .bench_build/perfbench at
the repository root, then runs rlb_perfbench with the given flags. It
prints the metrics and, as its last line, one JSON object; build output
goes to stderr. --all runs every workload untraced and then traced, one
rlb_perfbench process each, in .bench_build/perfbench, so a traced run
(--trace 1) writes its spans to .bench_build/perfbench/trace-<workload>-<seed>.json.
A run gets --seconds plus RUN_SLACK_S to finish: five set-ups, the checks
and, when traced, the per-layer probes.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_SLACK_S = 140
WORKLOADS = ("paper_small_n", "large_fleet", "paper_bounds")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target", target]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return BUILD / target


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=BUILD, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped rlb_perfbench.
        sys.exit(f"perfbench: rlb_perfbench exceeded {timeout:.0f} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the determinism self-test instead")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(run([str(build("perfbench_selftest"))], RUN_SLACK_S))
    if not args.workload and not args.all:
        ap.error("--workload or --all is required")

    program = build("rlb_perfbench")
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    status = 0
    for workload, trace in runs:
        cmd = [str(program), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        rc = run(cmd, args.seconds + RUN_SLACK_S)
        status = status or rc
    sys.exit(status)


if __name__ == "__main__":
    main()
