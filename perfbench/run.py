#!/usr/bin/env python3
"""Served-route benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds the astclk library and the program
from source into .bench_build/perfbench (CMake, Release), then runs one
measurement.  The program's stdout is passed through; its last line is the
result JSON.  A full report (host metadata, every metric, per-request
results) goes to perfbench/out/, and with --trace 1 the spans too.  With
--workload all every workload runs in turn, each in its own process, and the
last line combines their results (metrics keyed "workload/metric").

Exits non-zero without printing a result when the sources are missing, the
build fails or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_tables", "large_auto", "large_sharded")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "route_service.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "served_bench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "served_bench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run_one(exe, workload, args):
    """Run one measurement; returns its stdout (last line: the result)."""
    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(OUT, stem + ".json"),
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT, stem + ".spans.json")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("served_bench exited with %d" % r.returncode, 3)
    return r.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="%s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that every verifier check fires")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        fail("--workload is required")

    exe = build()
    if args.self_test:
        sys.exit(subprocess.run([exe, "--self-test"]).returncode)

    if args.workload != "all":
        sys.stdout.write(run_one(exe, args.workload, args))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = run_one(exe, workload, args)
        sys.stdout.write(out)
        result = json.loads(out.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][workload + "/" + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
