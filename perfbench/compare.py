#!/usr/bin/env python3
"""Compare two result sets written by `collect.py`.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and metric, prints each set's median and quartiles,
the spread (quartile distance over median), and the pairwise win rate of
NEW over BASE (runs paired by seed, else in order). A gain is called only
when NEW wins at least 9 of 10 pairs and the medians differ by more than
BASE's quartile distance. An end-to-end metric whose NEW median is worse
than BASE's by more than its bound in BENCHMARK.json is flagged as a
regression, as are a quartile spread wider than the bound, a different
share of failed operations and sets taken at different run lengths. Each set's
median steal share and host calibration figure (ns per element of a fixed
loop; higher means a slower host at the time) are printed so that a noisy
set can be told from a regression.
Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    sets = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                sets.setdefault(rec["workload"], []).append(rec)
    return sets


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(base, new):
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    if len(matched) == min(len(base), len(new)):
        return matched
    return list(zip(base, new))


def failed_share(records):
    att = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / att if att else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    flags = []
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        steal_b, steal_n = (statistics.median(r["steal_share"] or 0.0 for r in s) for s in (b, n))
        cal_b, cal_n = (statistics.median(r.get("calibration_ns") or 0.0 for r in s) for s in (b, n))
        print(f"\n== {workload}: {len(b)} vs {len(n)} runs; "
              f"median steal share {steal_b:.3f} vs {steal_n:.3f}; "
              f"median host calibration {cal_b:.4f} vs {cal_n:.4f} ns")
        lengths = {r["seconds"] for r in b + n}
        if len(lengths) != 1:
            flags.append(f"{workload}: runs of different lengths {sorted(lengths)} s")
        fb, fn = failed_share(b), failed_share(n)
        if fb != fn:
            flags.append(f"{workload}: failed share {fb} vs {fn}")
        if not all(r["result"]["correct"] for r in b + n):
            flags.append(f"{workload}: a run reported incorrect output")
        print(f"{'metric':<28} {'base q1/med/q3':>36} {'new q1/med/q3':>36} "
              f"{'spread b/n':>13} {'wins':>6}  verdict")
        names = sorted(set(b[0]["result"]["metrics"]) & set(n[0]["result"]["metrics"]))
        for name in names:
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            vn = [r["result"]["metrics"][name]["value"] for r in n]
            qb, qn = quartiles(vb), quartiles(vn)
            m = meta.get(name, {})
            higher = m.get("better") == "higher"
            better = (lambda x, y: y > x) if higher else (lambda x, y: y < x)
            won = sum(1 for x, y in pairs(b, n)
                      if better(x["result"]["metrics"][name]["value"],
                                y["result"]["metrics"][name]["value"]))
            total = len(pairs(b, n))
            iqr_b = qb[2] - qb[0]
            verdict = ""
            if total and won >= 0.9 * total and abs(qn[1] - qb[1]) > iqr_b:
                verdict = "gain"
            bound = m.get("bound")
            if bound is not None and qb[1]:
                worse = (qb[1] - qn[1]) / qb[1] if higher else (qn[1] - qb[1]) / qb[1]
                if worse > bound:
                    verdict = f"REGRESSION ({worse:+.1%} > {bound:.0%})"
                    flags.append(f"{workload} {name}: {verdict}")
            sb = iqr_b / qb[1] if qb[1] else 0.0
            sn = (qn[2] - qn[0]) / qn[1] if qn[1] else 0.0
            if bound is not None and max(sb, sn) > bound:
                verdict += f" SPREAD > {bound:.0%}"
                flags.append(f"{workload} {name}: quartile spread above its bound")
            fmt = lambda q: f"{q[0]:.5g}/{q[1]:.5g}/{q[2]:.5g}"
            print(f"{name:<28} {fmt(qb):>36} {fmt(qn):>36} "
                  f"{sb:>6.3f}/{sn:<6.3f} {won:>2}/{total:<3}  {verdict}")
    if flags:
        print("\nflagged:")
        for f in flags:
            print("  " + f)
        sys.exit(1)
    print("\nno metric worse than its bound")


if __name__ == "__main__":
    main()
