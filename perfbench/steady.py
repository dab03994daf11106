#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json several times on one workload and
prints, for every end-to-end metric, the median, the quartiles and the
spread (quartile distance / median) next to the metric's bound. The
bounds in BENCHMARK.json rest on this evidence: a spread should stay
below a third of its bound (setup_s is exempt from the spread rule).

Run from the repository root:

    python3 perfbench/steady.py --workload oltp-bank --seeds 1,2,3,4,5
    python3 perfbench/steady.py --workload all --seed 7 --repeat 10

`--seeds` varies the seed per run; `--seed S --repeat N` repeats one seed.
Exits 1 if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return result["metrics"]


def report(bench, workload, runs):
    print(f"\n{workload}: {len(runs)} runs")
    print(f"{'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if name == "setup_s":
            verdict = "exempt"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print(f"{name:<24}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.4f}{bound:>8.3f}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seeds", help="comma-separated seeds, one run each")
    ap.add_argument("--seed", type=int, default=1, help="seed repeated --repeat times")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed] * args.repeat
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload {w}; have {names}")
        runs = []
        for s in seeds:
            runs.append(run_once(bench, w, s))
            print(f"  {w} seed {s}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1].items()), flush=True)
        report(bench, w, runs)


if __name__ == "__main__":
    main()
