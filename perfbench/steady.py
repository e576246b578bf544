#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark command of BENCHMARK.json for N seeds, alternating the
workloads seed by seed, and prints for each workload and metric the
median, the quartiles and the quartile spread (Q3 - Q1) / median, the
figure a metric's bound is checked against.

Run from the repository root:

    python3 perfbench/steady.py --seeds 10 [--first-seed 1] [--seconds S]
        [--workloads control_batch,serve_deep] [--trace 0|1] [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        sys.exit(f"unknown workloads: {sorted(unknown)}")

    runs = {w: [] for w in workloads}
    for i in range(args.seeds):
        seed = args.first_seed + i
        # Alternate the order seed by seed so that no workload always
        # runs in the same stretch of host drift.
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(lines[-1])
            header = json.loads(lines[-2])["header"] if len(lines) > 1 else {}
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect run: {lines[-1]}")
            runs[w].append({"seed": seed, "header": header, "result": result})
            print(f"{w} seed {seed}: attempted {result['attempted']}, "
                  f"host.ref_ms {header.get('host.ref_ms', float('nan')):.2f}",
                  file=sys.stderr, flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'workload':<16} {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        metrics = runs[w][0]["result"]["metrics"].keys()
        for m in sorted(metrics):
            values = [r["result"]["metrics"][m]["value"] for r in runs[w]]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(m)
            print(f"{w:<16} {m:<30} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>7.3f} {bound if bound is not None else '':>6}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
