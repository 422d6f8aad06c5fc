#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b] \
        [--out perfbench/steadiness.json]

Each set runs every workload `--runs` times through `run.py` with
`--trace 0`, each run with another seed (set k uses seeds
k*runs+1 .. k*runs+runs).  For every end-to-end metric it reports the
median of the runs and their spread: the distance between the first and
third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median.  With two sets it also reports how far the second set's median
moved from the first's.  A metric is steady when its spread stays below
a third of its bound in `BENCHMARK.json` (`setup_s` excepted) and the
second median is no worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "run_seconds": args.seconds,
        "runs_per_set": args.runs,
        "sets": args.sets,
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        per_set = []
        for k in range(args.sets):
            runs = [run_once(workload, k * args.runs + i + 1, args.seconds) for i in range(args.runs)]
            per_set.append({name: [r[name] for r in runs] for name in bounds})
        summary = {}
        for name, bound in bounds.items():
            medians = [statistics.median(s[name]) for s in per_set]
            spreads = [spread(s[name]) for s in per_set]
            entry = {"bound": bound, "medians": medians, "spreads": spreads,
                     "values": [s[name] for s in per_set]}
            ok = name == "setup_s" or all(x < bound / 3 for x in spreads)
            if len(medians) > 1:
                entry["second_over_first"] = medians[1] / medians[0]
                ok = ok and medians[1] <= medians[0] * (1 + bound)
            entry["steady"] = ok
            steady = steady and ok
            summary[name] = entry
            print(f"{workload:12} {name:18} median {medians} spread "
                  f"{[round(x, 4) for x in spreads]} bound {bound} {'ok' if ok else 'NOT STEADY'}",
                  flush=True)
        record["workloads"][workload] = summary
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
