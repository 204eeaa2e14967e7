"""bmext benchmark: three seeded closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload verify|cli-exact|cli-walks|all \
        --seed N --seconds S --trace 0|1

With --trace 0 a run reports the end-to-end metrics.  Three kinds of fresh
process make them: several that only set up (setup_time.py; set-up time is
their median), one that runs the workload's timed pass (worker.py), and one
that times the probe calls of the commands the stream does not issue
(worker.py --probes).  The worker and probe processes also time a fixed
calibration unit at a steady rate while they work, and scale every
operation's time by the unit's reference time over its mean time while that
operation ran (calibration.py), so that the figures do not follow the
machine's drifting speed; set-up processes time the unit after setting up.  With --trace 1 the run reports
the per-layer metrics of a traced replay and the tracing overhead.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the lines
above it print every metric by name with its unit, and the output-check
verdicts.  ``all`` runs the three workloads one after another and prints
their tables.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP = os.path.join(HERE, "setup_time.py")
WORKLOADS = ("verify", "cli-exact", "cli-walks")
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 140


def _run(script: str, args: list, timeout: float) -> list:
    """Run a benchmark script; return its stdout lines, the last two parsed."""
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{os.path.basename(script)} {' '.join(args)} failed"
                         f" with exit code {proc.returncode}")
    return [json.loads(line) for line in lines[-2:]]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    info, result = _run(WORKER, common + ["--trace", str(trace)], RUN_TIMEOUT_S)
    if trace:
        return info, result
    probe_info, probes = _run(WORKER, ["--workload", workload, "--probes"], 25)
    samples = [_run(SETUP, [workload, str(seed), str(seconds)], 10)[-1]
               for _ in range(SETUP_SAMPLES)]
    setup = [m["setup_s"] for m in samples]
    scale = calibration.factor([u for m in samples for u in m["units_s"]])
    result["metrics"].update(probes["metrics"])
    result["metrics"]["setup_s"] = {"value": statistics.median(setup) * scale, "unit": "s"}
    # the probe calls are checked like any other operation, but their process
    # is not the workload's: they stay out of its fail_ratio
    result["correct"] = result["correct"] and probes["correct"]
    result["attempted"] += probes["attempted"]
    result["failed"] += probes["failed"]
    info["verdicts"]["failures"] += probe_info["verdicts"]["failures"]
    info["detail"].update(probe_info["detail"], raw_setup_samples_s=setup, setup_scale=scale)
    return info, result


def report(workload: str, info: dict, result: dict) -> None:
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for key, value in info["detail"].items():
        print(f"  {key}: {value}")
    for f in info["verdicts"]["failures"]:
        print(f"  FAILED op {f['op']} ({f['kind']}): {f['request']}\n      {f['why']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bmext benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bmext", "__init__.py")):
        sys.stderr.write(f"perfbench: no bmext sources under {ROOT}/src\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        info, result = run_workload(name, args.seed, args.seconds, args.trace)
        report(name, info, result)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    # a single run always reports; "all" also says in its exit code whether every check held
    return 0 if len(results) == 1 or all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
