#!/usr/bin/env python3
"""Build the TeamPlay benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload certify_cold --seed 1 --seconds 20 --trace 0

The benchmark crate in this directory is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run. Its last stdout line
is re-printed with the unit of every metric taken from BENCHMARK.json,
after checking that the metric names are exactly the declared ones:
`end_to_end` with --trace 0, `per_layer` with --trace 1. Build output and
progress go to stderr. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The run budget of one invocation, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload `{args.workload}`")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(target, "release", "teamplay-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(target, "perfbench-work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"run exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(result["metrics"]) != set(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
