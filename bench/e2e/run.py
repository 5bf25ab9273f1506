#!/usr/bin/env python3
"""Build and run the end-to-end benchmark; print one JSON result line.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first call
configures and builds bench_e2e (and the library it links, from src/) into
.bench_build at the repository root; later calls reuse that build. The run's
full report is kept under .bench_build/results/, and the last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

carrying every end_to_end metric BENCHMARK.json names (--trace 0) or every
per_layer metric (--trace 1).

    python3 bench/e2e/run.py --smoke [--binary PATH]

runs each workload once at smoke scale and checks that its report has every
metric BENCHMARK.json names, with the declared unit, and no failed operation
(the ctest leg of bench/e2e/CMakeLists.txt).

Exit codes: 0 result printed, 1 the benchmark failed or its report is
incomplete, 2 usage error or no source tree to build.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no powergear source tree under {ROOT}; nothing to build", 2)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return BUILD / "bench_e2e"


def run_bench(binary, workload, seed, seconds, trace, smoke=False):
    """One bench_e2e process; returns its parsed report."""
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{'trace' if trace else 'run'}-{os.getpid()}"
    out = results / f"{stem}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--workdir", str(BUILD / "work")]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", str(results / f"{stem}.trace.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench_e2e exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: bench_e2e exited with {proc.returncode}")
    return json.loads(out.read_text())


def pick_metrics(report, declared, section):
    """The declared metrics out of one report section, units checked."""
    have = report.get(section, {})
    picked = {}
    for m in declared:
        got = have.get(m["name"])
        if got is None:
            fail(f"{report['workload']}: report lacks {section} metric {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{report['workload']}: {m['name']} unit {got['unit']!r}, "
                 f"BENCHMARK.json says {m['unit']!r}")
        picked[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return picked


def smoke(spec, binary):
    for w in spec["workloads"]:
        report = run_bench(binary, w["name"], 1, None, trace=True, smoke=True)
        pick_metrics(report, spec["end_to_end"], "metrics")
        pick_metrics(report, spec["per_layer"], "layers")
        if report["failed"] != 0 or not report["correct"]:
            fail(f"{w['name']}: {report['failed']}/{report['attempted']} "
                 f"failed, checks: {report['checks']}")
        print(f"smoke {w['name']}: ok ({report['attempted']} operations)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this bench_e2e instead of building")
    args = ap.parse_args()

    spec = load_spec()
    if args.smoke:
        smoke(spec, Path(args.binary) if args.binary else build())
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}", 2)
    if args.seed is None or args.seed < 0:
        fail("--seed N (N >= 0) is required", 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be >= 1", 2)

    binary = Path(args.binary) if args.binary else build()
    report = run_bench(binary, args.workload, args.seed, seconds,
                       trace=bool(args.trace))
    if args.trace:
        metrics = pick_metrics(report, spec["per_layer"], "layers")
    else:
        metrics = pick_metrics(report, spec["end_to_end"], "metrics")
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
