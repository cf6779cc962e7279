#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json repeatedly, the workloads in
alternating order (forward on even rounds, backward on odd ones), with
seed = --seed0 + round, and prints for every workload and end-to-end
metric the median, the quartiles, the quartile spread (q3 - q1) / median
and the min/max spread (max - min) / median. The bounds in
BENCHMARK.json are set from this output: a metric's quartile spread
should stay below a third of its bound.

Run from the repository root:

    python3 perfbench/steady.py                 # 10 rounds, all workloads
    python3 perfbench/steady.py --runs 5 --workloads paper_suite
    python3 perfbench/steady.py --out /tmp/steady.json

Build once first (the first run of a fresh checkout compiles for
minutes): cargo build --release --offline --manifest-path perfbench/Cargo.toml
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, min(values), max(values), (max(values) - min(values)) / scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="rounds over the workloads")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="run length (default: run_seconds)")
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first round")
    ap.add_argument("--out", default="", help="also write every run's result here as JSON")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w]
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for r in range(opts.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            result, wall = run_once(bench["command"], w, opts.seed0 + r, seconds)
            runs[w].append({"seed": opts.seed0 + r, "wall_s": wall, "result": result})
            print(f"round {r} {w} seed {opts.seed0 + r}: {wall:.1f} s, correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}", flush=True)

    print()
    print(f"{'workload':<13} {'metric':<25} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'min':>12} {'max':>12} {'rng/med':>8} {'bound':>6}  verdict")
    for w in workloads:
        results = [r["result"] for r in runs[w]]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, iqr, lo, hi, rng = spread(values)
            if iqr <= bound / 3:
                verdict = "ok"
            elif iqr <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "OVER BOUND"
            print(f"{w:<13} {name:<25} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {iqr:>8.4f} "
                  f"{lo:>12.5g} {hi:>12.5g} {rng:>8.4f} {bound:>6}  {verdict}")
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        walls = [r["wall_s"] for r in runs[w]]
        print(f"{w:<13} {'failed/attempted':<25} {shares}; all correct: "
              f"{all(r['correct'] for r in results)}; wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
