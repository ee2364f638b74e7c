#!/usr/bin/env python3
"""Build the cliquest benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload draw_gnp256 --seed 1 --seconds 30 --trace 0

The first call configures and builds `perfbench` (and the library, through
the repository's own CMakeLists.txt) in Release mode under the directory named
by CARGO_TARGET_DIR, or `.bench_build` when it is unset; later calls reuse the
build. The benchmark's stdout is passed through; its last line is the JSON
result. The exit code is nonzero when the build fails, when a correctness
check fails, or when the run measured a metric BENCHMARK.json does not
declare or missed an end-to-end one.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("draw_gnp256", "draw_lollipop64", "serve_tcp_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no cliquest sources (CMakeLists.txt, src/) next to perfbench/; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def complete(result, spec, workload, trace):
    """Turn the program's measured values into the result line BENCHMARK.json
    describes: every metric of the run's kind, with its declared unit.

    A measured metric that BENCHMARK.json does not declare, or a missing
    end-to-end metric, fails the run. A per-layer metric the workload does
    not exercise is reported as 0 and named on a line before the result, so a
    layer that stops being recorded shows up there.
    """
    declared = {m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    undeclared = sorted(set(result["metrics"]) - declared)
    if undeclared:
        fail(f"{workload} measured undeclared metrics: {', '.join(undeclared)}")
    metrics = {}
    unexercised = []
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = result["metrics"].get(metric["name"])
        if value is None:
            if not trace:
                fail(f"{workload} did not measure {metric['name']}")
            unexercised.append(metric["name"])
            value = 0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if unexercised:
        print(f"not exercised by {workload}, reported as 0: {', '.join(unexercised)}")
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    spec = load_spec(root)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A run lasts --seconds plus about ten seconds of set-up bursts, sentinel
    # and checks; the limit leaves a wide margin above that.
    timeout_s = 3 * args.seconds + 60
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout_s} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}: {lines[-1]}")
    result = complete(json.loads(lines[-1]), spec, args.workload, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
