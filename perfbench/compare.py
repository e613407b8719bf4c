#!/usr/bin/env python3
"""Compare two sets of served-route benchmark reports (perfbench/out/*.json).

    python3 perfbench/compare.py --a BASE.json... --b CHANGE.json...

Prints, per metric, each side's median and quartiles and the change of the
medians.  Every report carries the host it ran on (nproc, machine, node
name, compiler, flags, build type); reports from different hosts are never
compared: the tool refuses and exits with code 3.
Reports of different workloads or trace modes are never mixed.
"""

import argparse
import json
import statistics
import sys

HOST_KEYS = ("nproc", "machine", "nodename", "compiler", "flags", "build_type")


def load(paths):
    reports = []
    for p in paths:
        with open(p) as f:
            reports.append(json.load(f))
    return reports


def fingerprint(report):
    return tuple((k, report["host"].get(k)) for k in HOST_KEYS)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="baseline reports")
    ap.add_argument("--b", nargs="+", required=True, help="changed reports")
    args = ap.parse_args()
    a, b = load(args.a), load(args.b)

    kinds = {(r["workload"], r["trace"]) for r in a + b}
    if len(kinds) != 1:
        print("compare: reports mix workloads/trace modes: %s" % sorted(kinds),
              file=sys.stderr)
        return 2
    hosts = {fingerprint(r) for r in a + b}
    if len(hosts) != 1:
        lines = ["  " + ", ".join("%s=%s" % kv for kv in h) for h in sorted(hosts)]
        print("compare: refusing to compare; reports come from different hosts "
              "or builds:\n" + "\n".join(lines), file=sys.stderr)
        return 3

    sections = ["end_to_end", "quality"] + (["per_layer"] if a[0]["trace"] else [])
    workload, trace = kinds.pop()
    print("workload %s trace %d: %d baseline vs %d changed reports"
          % (workload, trace, len(a), len(b)))
    for section in sections:
        print("[%s]" % section)
        for name, m in a[0][section].items():
            xa = [r[section][name]["value"] for r in a if r[section][name]["value"] is not None]
            xb = [r[section][name]["value"] for r in b if r[section][name]["value"] is not None]
            if not xa or not xb:
                continue
            qa, qb = quartiles(xa), quartiles(xb)
            change = (qb[1] / qa[1] - 1.0) if qa[1] else float("nan")
            print("  %-26s %-6s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.2f%%"
                  % (name, m["unit"], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                     100.0 * change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
