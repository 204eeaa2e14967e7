"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads verify,cli-exact]
        [--seconds 15] [--traced-seed 1] [--out FILE]

For every workload: ten (or as many as given) untraced runs, one per seed,
give each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, the figure BENCHMARK.json's
bounds are held against); one traced run gives the per-layer metrics.  The
summary is printed and, with --out, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="verify,cli-exact,cli-walks")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    summary = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            results.append(run(workload, seed, args.seconds, 0))
            r = results[-1]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']}"
                  f" failed={r['failed']} wall_s={r['metrics']['wall_s']['value']:.2f}",
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": summarize(results),
        }
        if args.traced_seed is not None:
            traced = run(workload, args.traced_seed, args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
        summary["workloads"][workload] = entry
        for name, m in sorted(entry["end_to_end"].items()):
            print(f"  {name:16s} median {m['median']:12.6g} {m['unit']:6s} spread {m['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
