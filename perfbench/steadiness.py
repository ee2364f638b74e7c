#!/usr/bin/env python3
"""Steadiness report: repeat each workload and compare each metric's spread
with the bound BENCHMARK.json gives it.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10            # seeds 1..10, every workload
    python3 perfbench/steadiness.py --runs 5 --workload draw_gnp256 --seconds 10
    python3 perfbench/steadiness.py --runs 3 --same-seed # replay hashes must match

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound, marking spreads above a third of the bound. With
--same-seed every run uses one seed, and the replay hash and rounds_per_tree
must then be identical across runs. It also prints the checks that earlier
benchmark attempts failed on: setup_s of short prepares, peak_rss_mib with
worker threads, and timed loops shorter than a few 2-second CPU-speed
windows.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MODE_WINDOW_S = 2.0


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(f"  run failed (seed {seed}, exit {done.returncode})")
        return None
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1])
    hash_match = re.search(r"replay hash ([0-9a-f]+)", text)
    loop_match = re.search(r"timed loop ([0-9.]+) s", text)
    ref_match = re.search(r"machine.ref_ms before ([0-9.]+), after ([0-9.]+)", text)
    result["ref_ms"] = ref_match.groups() if ref_match else ("?", "?")
    result["replay_hash"] = hash_match.group(1) if hash_match else None
    result["loop_s"] = float(loop_match.group(1)) if loop_match else None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="workload to repeat (default: all); may be given more than once")
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    steady = True

    for workload in workloads:
        print(f"== {workload}: {args.runs} runs of {seconds} s")
        results = []
        for i in range(args.runs):
            seed = 1 if args.same_seed else 1 + i
            result = run_once(workload, seed, seconds)
            if result is None or not result["correct"]:
                steady = False
                continue
            results.append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in metrics)
            print(f"  seed {seed}: {values} (machine.ref_ms {'/'.join(result['ref_ms'])})")
        if len(results) < 2:
            print("  too few successful runs")
            steady = False
            continue
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = metric["bound"]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print(f"  {metric['name']:<44} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.2f}{flag}")
        loops = [r["loop_s"] for r in results if r["loop_s"]]
        if loops:
            windows = min(loops) / MODE_WINDOW_S
            print(f"  shortest timed loop {min(loops):.1f} s = {windows:.1f} CPU-speed windows"
                  f"{'  <-- fewer than 5' if windows < 5 else ''}")
        if args.same_seed:
            hashes = {r["replay_hash"] for r in results}
            rounds = {r["metrics"]["rounds_per_tree"]["value"] for r in results}
            same = len(hashes) == 1 and len(rounds) <= 1
            steady = steady and same
            print(f"  replay hashes {sorted(hashes)}, rounds_per_tree {sorted(rounds)}: "
                  f"{'identical' if same else 'DIFFER'}")
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
