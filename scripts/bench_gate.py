#!/usr/bin/env python3
"""Perf gate: same-window A/B of two bench_regression builds.

    scripts/bench_gate.py [--bound 0.10] BASE HEAD

BASE (the reference build, e.g. the parent commit) and HEAD (the change)
are bench_regression binaries. The gate runs PAIRS alternating pairs
(which side goes first flips every pair, so slow drifts of a shared host
hit both sides alike), each run with REPS reps, and scores every
benchmark's best_ms with bench/e2e/ab.py's verdict() at --bound: the
median ratio, both sides' quartiles, the share of pairs HEAD wins, and one
of gain / no-regression / unresolved / regression.

Each run's powergear-bench-v1 JSON and the A/B table (ab.txt) are kept in
a fresh bench_gate-* directory under $TMPDIR, whose path is printed first,
so a failed gate can be diagnosed from its files.

Exit codes: 0 ok, 1 a benchmark regressed or one BASE has is missing from
HEAD, 2 usage or I/O error (a run that fails, an unreadable result).
"""
import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10  # verdict() calls anything under 10 pairs unresolved
# Best of 10 reps keeps most benchmarks' quartile spread at 1-2%, well under
# the 10% bound; 5 reps gave 3-7% (EXPERIMENTS.md "Perf gate").
REPS = 10
SCHEMA = "powergear-bench-v1"
AB_PY = Path(__file__).resolve().parent.parent / "bench" / "e2e" / "ab.py"


class GateError(Exception):
    """A usage or I/O failure: exit 2, never 1."""


def load_verdict():
    # ab.py lives in the end-to-end benchmark's own tree; import it without
    # leaving a __pycache__ behind there.
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("ab", AB_PY)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab.verdict


def run(binary, out):
    cmd = [binary, "--reps", str(REPS), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    except OSError as e:
        raise GateError(f"cannot run {binary}: {e}")
    if proc.returncode != 0:
        raise GateError(f"{' '.join(cmd)} exited {proc.returncode}")
    try:
        doc = json.loads(out.read_text())
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"schema {doc.get('schema')!r}, want {SCHEMA!r}")
        return {name: float(b["best_ms"])
                for name, b in doc["benchmarks"].items()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise GateError(f"cannot read {out}: {e}")


def gate(base, head, bound, outdir):
    verdict = load_verdict()
    sides = {"base": base, "head": head}
    runs = {side: [] for side in sides}
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            out = outdir / f"BENCH_{side}_{i + 1:02d}.json"
            runs[side].append(run(sides[side], out))
        print(f"bench_gate: pair {i + 1}/{PAIRS} done", file=sys.stderr,
              flush=True)

    # A benchmark counts only if every run of its side reported it.
    names = {side: set.intersection(*(set(r) for r in runs[side]))
             for side in sides}
    metric = {"better": "lower", "bound": bound}
    lines = [f"bench_gate: {PAIRS} pairs x {REPS} reps, bound {bound:.0%}",
             f"{'benchmark':<23} {'base median [q1, q3]':>34} "
             f"{'head median [q1, q3]':>34} {'ratio':>6} {'wins':>5}  verdict"]
    failures = 0
    for name in sorted(names["base"] | names["head"]):
        if name not in names["head"]:
            lines.append(f"{name:<23} {'':>34} {'-':>34} {'-':>6} {'-':>5}  "
                         "missing")
            failures += 1
            continue
        if name not in names["base"]:
            lines.append(f"{name:<23} {'-':>34} {'':>34} {'-':>6} {'-':>5}  new")
            continue
        v = verdict(metric, [r[name] for r in runs["base"]],
                    [r[name] for r in runs["head"]], 0, 0)
        failures += v["verdict"] == "regression"
        base_s = f"{v['med_a']:.5g} [{v['q1a']:.5g}, {v['q3a']:.5g}]"
        head_s = f"{v['med_b']:.5g} [{v['q1b']:.5g}, {v['q3b']:.5g}]"
        lines.append(f"{name:<23} {base_s:>34} {head_s:>34} "
                     f"{v['ratio']:>6.3f} {v['wins']:>5.0%}  {v['verdict']}")
    if failures:
        lines.append(f"bench_gate: FAIL — {failures} benchmark(s) regressed "
                     "or missing")
    else:
        lines.append("bench_gate: OK — no regressions")
    table = "\n".join(lines) + "\n"
    (outdir / "ab.txt").write_text(table)
    print(table, end="")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="reference bench_regression binary")
    ap.add_argument("head", help="changed bench_regression binary")
    ap.add_argument("--bound", type=float, default=0.10,
                    help="slowdown of the median that fails (default 0.10)")
    args = ap.parse_args()
    if not args.bound > 0.0:
        ap.error("--bound must be > 0")
    try:
        outdir = Path(tempfile.mkdtemp(prefix="bench_gate-"))
        print(f"bench_gate: results in {outdir}", flush=True)
        return gate(str(Path(args.base).absolute()),
                    str(Path(args.head).absolute()), args.bound, outdir)
    except (GateError, OSError) as e:
        print(f"bench_gate: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
