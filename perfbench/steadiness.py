#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seconds S]

Runs each workload `--runs` times per set, alternating set A and set B run
by run (set A takes seeds 1..N, set B seeds 101..100+N), and prints for
every end-to-end metric: both medians, both quartiles, each set's spread
(interquartile range over median), whether both spreads are within the
metric's bound in BENCHMARK.json, and whether the two medians differ by
at most the bound in either direction (the sets run the same code, so a
set that reads better is as far off as one that reads worse). Quartiles
are Python's statistics.quantiles(values, n=4). The raw results go to
.bench_out/steadiness.json.

The verdict holds every metric's medians to its bound and every spread
but setup_s's: a run has one cold set-up, and the benchmark's acceptance
rule holds set-up time to its median only. Its spread is printed and
marked all the same.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, seed in (("A", 1 + i), ("B", 101 + i)):
                result = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: outputs not correct")
                    ok = False
                sets[name].append(result)
        raw[workload] = sets
        print(f"\n{workload}  ({args.runs} runs per set, {args.seconds} s each)")
        print(f"  {'metric':16} {'median A':>11} {'q1..q3 A':>23} {'spread A':>8}"
              f" {'median B':>11} {'q1..q3 B':>23} {'spread B':>8} {'bound':>6}"
              f" {'change':>7}  spreads  medians")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa1, ma, qa3, sa = summary(a)
            qb1, mb, qb3, sb = summary(b)
            change = (mb - ma) / ma if ma else float("inf")
            medians_ok = abs(change) <= bound
            spreads_ok = sa <= bound and sb <= bound
            # setup_s: one cold sample per run, held to its medians only.
            ok = ok and medians_ok and (spreads_ok or name == "setup_s")
            spread_mark = "yes" if spreads_ok else (
                "no (not held)" if name == "setup_s" else "NO")
            print(f"  {name:16} {ma:11.4g} {qa1:11.4g}..{qa3:<11.4g} {sa:8.3f}"
                  f" {mb:11.4g} {qb1:11.4g}..{qb3:<11.4g} {sb:8.3f} {bound:6.2f}"
                  f" {change:+7.3f}  {spread_mark:7}  "
                  f"{'yes' if medians_ok else 'NO'}")
        shares = {r["failed"] / r["attempted"]
                  for r in sets["A"] + sets["B"]}
        ok = ok and len(shares) == 1
        print(f"  failed share {', '.join(f'{x:.6f}' for x in sorted(shares))}"
              f"  ({'the same in every run' if len(shares) == 1 else 'VARIES'})")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
