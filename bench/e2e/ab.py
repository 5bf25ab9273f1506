#!/usr/bin/env python3
"""Interleaved A/B comparison of two bench_e2e builds.

    python3 bench/e2e/ab.py --a BUILD_A --b BUILD_B [--pairs 10] [--seed 2]

BUILD_A (the parent) and BUILD_B (the change) are bench_e2e binaries or
build directories holding one (cmake -S bench/e2e -B DIR && cmake --build
DIR, once per commit). Each pair runs every workload of BENCHMARK.json on
both sides, on the same seed and for its run_seconds, alternating which
side goes first, so slow drifts of a shared host hit both sides alike.
Directions and bounds come from BENCHMARK.json too.

For every workload and end-to-end metric the script prints each side's
median and quartiles, the share of pairs B wins (ties count for neither)
and one verdict:

  gain           B wins at least 9 of 10 pairs, the medians differ by more
                 than A's own quartile spread, and B failed no more
                 operations than A
  unresolved     a side's quartile spread exceeds the bound and not every
                 B run beats every A run (or a gain with more failures)
  regression     B's median is worse than A's by more than the bound
  no-regression  otherwise

With fewer than 10 pairs every verdict is unresolved: the quartiles of a
few runs say nothing about the host's spread.

Exit code: 0 when no metric regressed, 1 otherwise, 2 on usage errors.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def binary_of(path):
    p = Path(path)
    if p.is_dir():
        p = p / "bench_e2e"
    if not p.is_file():
        print(f"ab.py: no bench_e2e at {path}", file=sys.stderr)
        sys.exit(2)
    return p.resolve()


def run(binary, workload, seed, seconds, workdir, tag):
    out = workdir / f"{tag}-{workload}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out),
           "--workdir", str(workdir / "work")]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
    return json.loads(out.read_text())


def better(metric, b, a):
    return b > a if metric["better"] == "higher" else b < a


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, a, b, failed_a, failed_b):
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(better(metric, y, x) for x, y in pairs) / len(pairs)
    worse = (med_a - med_b if metric["better"] == "higher" else med_b - med_a)
    rel_worse = worse / abs(med_a) if med_a else 0.0
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    all_better = all(better(metric, y, x) for y in b for x in a)
    if len(pairs) < MIN_PAIRS:
        v = "unresolved"
    elif wins >= 0.9 and abs(med_b - med_a) > (q3a - q1a):
        # A gain does not count when more operations failed.
        v = "gain" if failed_b <= failed_a else "unresolved"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    elif rel_worse > metric["bound"]:
        v = "regression"
    else:
        v = "no-regression"
    return dict(med_a=med_a, q1a=q1a, q3a=q3a, med_b=med_b, q1b=q1b, q3b=q3b,
                wins=wins, ratio=med_b / med_a if med_a else float("nan"),
                verdict=v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--a", required=True, help="parent build")
    ap.add_argument("--b", required=True, help="changed build")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = {"A": binary_of(args.a), "B": binary_of(args.b)}
    workdir = ROOT / ".bench_build" / "ab"
    workdir.mkdir(parents=True, exist_ok=True)

    runs = {(w, s): [] for w in names for s in sides}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in names:
            for side in order:
                report = run(sides[side], w, args.seed, seconds, workdir, side)
                runs[(w, side)].append(report)
                print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                      f"{report['failed']}/{report['attempted']} failed",
                      file=sys.stderr)

    regressed = False
    print(f"{'workload':<13} {'metric':<17} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B/A':>7} {'B wins':>7}  verdict")
    for w in names:
        failed = {s: sum(r["failed"] for r in runs[(w, s)]) for s in sides}
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs[(w, "A")]]
            b = [r["metrics"][m["name"]]["value"] for r in runs[(w, "B")]]
            v = verdict(m, a, b, failed["A"], failed["B"])
            regressed |= v["verdict"] == "regression"
            side_a = f"{v['med_a']:.5g} [{v['q1a']:.5g}, {v['q3a']:.5g}]"
            side_b = f"{v['med_b']:.5g} [{v['q1b']:.5g}, {v['q3b']:.5g}]"
            print(f"{w:<13} {m['name']:<17} {side_a:>30} {side_b:>30} "
                  f"{v['ratio']:>7.3f} {v['wins']:>7.0%}  {v['verdict']}")
        if failed["A"] or failed["B"]:
            print(f"{w:<13} failed operations: A {failed['A']}, B {failed['B']}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
