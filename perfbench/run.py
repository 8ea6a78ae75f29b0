#!/usr/bin/env python3
"""Runs one workload of the repo benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (CMake, Release) into .bench_build/perfbench; later calls rebuild
incrementally. dbgp_benchmark's metric lines are echoed, and the last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json for --trace 0 and
its per-layer metrics for --trace 1. A failed build or run exits non-zero without that line; a run
whose correctness checks fail prints it with "correct": false and exits 1.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
# dbgp_benchmark stops itself after --seconds plus set-up, warm-up and checks;
# this is only a backstop so a hung run cannot outlive its caller.
RUN_SLACK_S = 120


def build(out_dir):
    """Configures and builds dbgp_benchmark; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "dbgp_benchmark", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "dbgp_benchmark")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd.append("--trace")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print("run.py: dbgp_benchmark timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    if run.returncode not in (0, 3) or not os.path.exists(out):
        print(f"run.py: dbgp_benchmark exited with {run.returncode}", file=sys.stderr)
        return 1

    with open(out) as f:
        doc = json.load(f)
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: dbgp_benchmark did not report {m['name']} in {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
