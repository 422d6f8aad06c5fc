#!/usr/bin/env python3
"""Build the Mojave benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <stencil|halo_served|migrate> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds `perfbench` (this directory's crate) and the `mcc`
binary in release mode, runs the workload, and prints the benchmark's
result as the last line of standard output: one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`).  Build output
and the human-readable summary go to standard error.

`--smoke` runs every workload at a tiny size with both trace settings and
checks that each emits every metric `BENCHMARK.json` names, with a valid
name and unit.

Build products go to `$CARGO_TARGET_DIR`, or `.bench_build` in the
repository root when it is unset.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stencil", "halo_served", "migrate")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A run measures for --seconds; set-up, the halo_served oracle and the
# last unit in flight need well under this margin on top.
RUN_MARGIN_S = 120


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build perfbench and mcc; return the two binaries' paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "mcc", "--bin", "mcc"]),
    ):
        if not os.path.isfile(manifest):
            raise RuntimeError(f"{manifest} is missing: run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "mcc")


def declared_metrics():
    """The metric names and units BENCHMARK.json declares, by trace mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec, {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_workload(binaries, workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (result dict, full stdout)."""
    perfbench, mcc = binaries
    cmd = [perfbench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--mcc", mcc]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=float(seconds) + RUN_MARGIN_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed no result")
    return json.loads(lines[-1]), done.stdout


def check_result(result, expected_units, positive):
    """Problems with one result line, as a list of messages."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected_units) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected_units))}")
    for name, entry in metrics.items():
        value, unit = entry.get("value"), entry.get("unit")
        if not NAME.match(name):
            problems.append(f"invalid metric name {name!r}")
        if not isinstance(unit, str) or not UNIT.match(unit) or unit != expected_units.get(name):
            problems.append(f"{name}: unit {unit!r}, declared {expected_units.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif positive and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not positive")
    return problems


def smoke(binaries):
    spec, units = declared_metrics()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, _ = run_workload(binaries, workload, seed=1, seconds=0.5, trace=trace, tiny=True)
            problems = check_result(result, units[trace], positive=trace == 0)
            for p in problems:
                log(f"smoke {workload} --trace {trace}: {p}")
            failures += bool(problems)
            log(f"smoke {workload} --trace {trace}: {'FAIL' if problems else 'ok'} "
                f"({len(result.get('metrics', {}))} metrics)")
    return failures == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    try:
        binaries = build()
        if args.smoke:
            return 0 if smoke(binaries) else 1
        result, stdout = run_workload(binaries, args.workload, args.seed, args.seconds, args.trace)
        _, units = declared_metrics()
        for problem in check_result(result, units[args.trace], positive=args.trace == 0):
            log(f"warning: {problem}")
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
