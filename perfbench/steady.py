#!/usr/bin/env python3
"""Steadiness tool: runs one workload N times and reports each metric's spread.

    python3 perfbench/steady.py --workload deep_chain --runs 10 --seed0 1
    python3 perfbench/steady.py --workload cold_mix --seeds 7,7,7

Each run is `perfbench/run.py` with its own seed (seed0, seed0+1, ... or
the --seeds list). For every metric the tool prints the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and
(q3 - q1) / median, the spread a benchmark bound must exceed; "3x" is
three times that spread, the smallest bound a steady metric should get.
Per run it prints the seed, wall time and the benchmark's CPU time over wall
time, which falls below 1 (serial workloads) when the host takes the CPU
away. Runs that share a seed must print identical count lines; any
difference is reported as drift and makes the tool exit 1, as does any run
that fails or reports a failed session.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime -
                                                before.ru_stime)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    counts = next((l for l in lines if l.startswith("counts ")), None)
    return {"seed": seed, "wall": wall, "cpu_wall": cpu / wall,
            "returncode": proc.returncode, "result": result,
            "counts": counts, "stderr": proc.stderr}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated seeds (overrides "
                    "--runs/--seed0); repeat a seed to check counts")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds else
             list(range(args.seed0, args.seed0 + args.runs)))

    runs, bad = [], False
    for seed in seeds:
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append(r)
        res = r["result"]
        status = ("exit %d" % r["returncode"] if res is None else
                  "ok" if res["correct"] and res["failed"] == 0 else
                  "FAILED %d/%d" % (res["failed"], res["attempted"]))
        print("run seed=%-6d wall=%6.1fs cpu/wall=%.2f  %s" %
              (seed, r["wall"], r["cpu_wall"], status), flush=True)
        if status != "ok":
            bad = True
            sys.stdout.write(r["stderr"][-2000:])

    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], set()).add(r["counts"])
    for seed, counts in sorted(by_seed.items()):
        if len(counts) > 1:
            bad = True
            print("DRIFT seed=%d: count lines differ:" % seed)
            for c in sorted(counts, key=str):
                print("   ", c)

    ok = [r["result"] for r in runs if r["result"]]
    if len(ok) >= 2:
        print("\n%-30s %12s %12s %12s %9s %6s" %
              ("metric", "median", "q1", "q3", "iqr/med", "3x"))
        for name in ok[0]["metrics"]:
            vals = [res["metrics"][name]["value"] for res in ok]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-30s %12.6g %12.6g %12.6g %9.4f %6.3f" %
                  (name, med, q1, q3, spread, 3 * spread))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
