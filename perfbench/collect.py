#!/usr/bin/env python3
"""Run the benchmark several times, one seed per run, and keep every result.

    python3 perfbench/collect.py --workload codec_sweep --runs 10 \
        --out set-a.jsonl [--trace 0]

Run from the repository root. Runs use seeds 1..runs and the run length
`run_seconds` from BENCHMARK.json, so two sets always compare like with
like. Each run's result line, seed, run length, steal share, host
calibration figure and wall time are appended to the output as one JSON
object per line; the file is what `compare.py` reads. At the end the
median and quartile spread of every metric are printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    run, rounds = {}, None
    for line in lines:
        if line.startswith("# run "):
            run = json.loads(line[len("# run "):])
        elif "round wall s " in line:
            rounds = json.loads(line.split("round wall s ", 1)[1])
        elif line.startswith("# check failed"):
            sys.stderr.write(line + "\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "wall_s": wall,
        "steal_share": run.get("steal_share"),
        "calibration_ns": run.get("calibration_ns"),
        "round_wall_s": rounds,
        "result": result,
    }


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = bench_spec()
    seconds = spec["run_seconds"]
    records = []
    with open(args.out, "a") as out:
        for seed in range(1, args.runs + 1):
            rec = run_once(spec, args.workload, seed, seconds, args.trace)
            out.write(json.dumps(rec) + "\n")
            out.flush()
            records.append(rec)
            r = rec["result"]
            print(f"seed {rec['seed']}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall={rec['wall_s']:.1f}s steal={rec['steal_share']} "
                  f"calibration={rec['calibration_ns']}ns")
    if len(records) >= 2:
        for name in sorted(records[0]["result"]["metrics"]):
            values = [r["result"]["metrics"][name]["value"] for r in records]
            med, iqr = spread(values)
            print(f"{name:<28} median {med:<14.6g} iqr/median {iqr:.4f}")


if __name__ == "__main__":
    main()
