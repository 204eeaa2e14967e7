"""One workload in one fresh process: run, check, report.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --probes

The last two stdout lines are JSON objects: details with the check verdicts,
then the result.  A run times the workload's pass with tracing off, checks
every output, and reports the end-to-end numbers (trace 0), or then replays
the same operations with tracing on and reports the per-layer numbers and
the tracing overhead (trace 1).  With --probes it times, in this process of
its own, the fixed probe calls of the commands that the workload's stream
does not issue.  Untraced times are scaled to reference seconds by the
machine speed sampled while each operation ran (calibration.py).  Set-up
time is measured by setup_time.py.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, WALK_ENGINES, Tracer  # noqa: E402


def import_bmext():
    if not os.path.isfile(os.path.join(SRC, "bmext", "__init__.py")):
        raise SystemExit(f"no bmext sources under {SRC}")
    sys.path.insert(0, SRC)
    import bmext  # noqa: F401
    import bmext.cli

    if not os.path.abspath(bmext.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bmext imported from {bmext.__file__}, not from {SRC}")
    return bmext.cli


class Runner:
    def __init__(self, cli, tmp: str, refs: dict):
        self.cli = cli
        self.tmp = tmp
        self.refs = refs
        self.tracer: Tracer | None = None  # set for the traced replay
        self.runs = 0
        # samples the machine's speed during untraced passes; tracing leaves
        # it out, since the tracer would count the unit's Fractions
        self.sampler = calibration.Sampler()

    def _spent(self) -> float:
        return self.sampler.spent if self.tracer is None else 0.0

    def call(self, op) -> checks.Outcome:
        """Run one CLI request in-process, with stdout captured."""
        self.runs += 1
        out_dir = os.path.join(self.tmp, f"op{op.id}-{self.runs}") if "{out}" in op.argv else None
        argv = [out_dir if a == "{out}" else a for a in op.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        code = error = None
        spent = self._spent()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.run_op(op.id, self.cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an escaped exception is the failure being measured
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0 - (self._spent() - spent)
        return checks.Outcome(code, stdout.getvalue(), error, seconds, out_dir, t0)

    def verdict(self, op, outcome: checks.Outcome) -> str | None:
        if op.kind == "exact":
            return checks.check_exact(op.key, outcome, self.refs)
        if op.kind == "walk":
            return checks.check_walk(op.group, op.params, outcome)
        if op.kind == "check":
            return None if outcome.code == 0 else outcome.stdout
        return checks.check_malformed(outcome)

    def check(self, ran: list) -> list:
        """Attach a verdict to each (op, outcome) and remove its CSV directory."""
        done = [(op, o, self.verdict(op, o)) for op, o in ran]
        for _, o in ran:
            if o.out_dir:
                shutil.rmtree(o.out_dir, ignore_errors=True)
        return done

    def run_battery(self, checks_ops) -> list:
        """The verify workload's battery: one ``run_all`` over the check operations."""
        from bmext import verify

        saved = verify.CHECKS
        units, starts = [], []  # calibration time inside each check's row time; start times

        def wrap(op, fn):
            def check(seed):
                spent = self._spent()
                starts.append(time.perf_counter())
                try:
                    if self.tracer is None:
                        return fn(seed)
                    return self.tracer.run_op(op.id, fn, seed)
                finally:
                    units.append(self._spent() - spent)
            return check

        verify.CHECKS = tuple((name, wrap(op, fn)) for op, (name, fn) in zip(checks_ops, saved))
        try:
            rows = verify.run_all(checks_ops[0].params["seed"])
        finally:
            verify.CHECKS = saved
        return [
            (op, checks.Outcome(int(not row.passed), row.detail, None, row.elapsed - unit,
                                start=start))
            for op, row, unit, start in zip(checks_ops, rows, units, starts)
        ]

    def run_pass(self, ops) -> tuple:
        """Run the operations in order; return the (op, outcome) pairs and the seconds.

        An untraced pass samples the machine's speed as it runs; the time
        spent sampling is left out of every figure, and ``scaled`` turns the
        times into reference seconds.  Checking is left to ``check``.
        """
        sampling = self.sampler if self.tracer is None else contextlib.nullcontext()
        battery = [op for op in ops if op.kind == "check"]
        with sampling:
            spent = self._spent()
            t0 = time.perf_counter()
            ran = self.run_battery(battery) if battery else []
            ran += [(op, self.call(op)) for op in ops if op.kind != "check"]
            wall = time.perf_counter() - t0 - (self._spent() - spent)
        return ran, wall

    def scaled(self, ran: list) -> list:
        """The (op, outcome) pairs with each time in reference seconds."""
        return [
            (op, dataclasses.replace(o, seconds=o.seconds * calibration.scale_between(
                self.sampler, o.start, o.start + o.seconds)))
            for op, o in ran
        ]


# -- metrics ------------------------------------------------------------------------


def tail(latencies: list) -> tuple:
    """The mean of the ten samples beyond the highest percentile that has ten
    beyond it, and that percentile.

    The percentile's own value is a single operation's time, with that
    operation's jitter; the mean of the ten beyond it is steadier.  Below
    eleven samples no percentile qualifies and the maximum is returned.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0
    return statistics.fmean(ordered[-10:]), 100.0 * (n - 10) / n


def group_ms(done: list, group: str) -> float:
    """A command's figure: the geometric mean of its calls' latencies, in ms.

    One command's calls in cli-exact span a hundredfold in cost, and then
    their median is a single call's time, with that call's jitter.
    """
    times = (o.seconds for op, o, _ in done if op.group == group)
    return statistics.geometric_mean(times) * 1e3


def end_to_end(workload: str, done: list) -> tuple:
    """The end-to-end metrics of a pass whose times are in reference seconds.

    ``wall_s`` adds up the operations' times, each scaled by the machine's
    speed while it ran.
    """
    wall = sum(o.seconds for _, o, _ in done)
    work = [(op, o, v) for op, o, v in done if op.kind != "malformed"]
    latencies = [o.seconds for _, o, _ in work]
    tail_s, pct = tail(latencies)
    metrics = {
        "wall_s": (wall, "s"),
        "ops_per_s": (sum(v is None for _, _, v in done) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "fail_ratio": (sum(v is not None for _, _, v in done) / len(done), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for group in workloads.STREAM_GROUPS[workload]:
        metrics[f"{group}_ms"] = (group_ms(work, group), "ms")
    detail = {"tail_percentile": pct, "latency_samples": len(latencies)}
    return metrics, detail


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def per_layer(tracer: Tracer, done: list, overhead: float) -> dict:
    from bmext.verify import CHECKS

    totals = tracer.totals()
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    counts = tracer.counts
    walk_s = sum(totals[name]["self_s"] for name in WALK_ENGINES)
    steps = counts["walker_steps"]
    settled = counts["settled"] + counts["excluded"]
    metrics.update({
        "exact.fraction_new.calls": (counts["fraction_new"], "count"),
        "sim.walker_steps": (steps, "count"),
        "sim.ns_per_step": (walk_s * 1e9 / steps if steps else 0.0, "ns"),
        "sim.hitting_probability.settled_ratio": (
            counts["settled"] / settled if settled else 0.0, "ratio"),
        "darning.darn.items": (counts["darn_items"], "count"),
        "trace.trace_structure.cells": (counts["trace_cells"], "count"),
    })
    root_s = {tracer.op[i]: (tracer.end[i] - tracer.start[i]) / 1e9 for i in tracer.roots()}
    by_name = {op.params.get("name"): root_s.get(op.id, 0.0) for op, _, _ in done}
    for name, _ in CHECKS:
        metrics[f"verify.{_slug(name)}.total_s"] = (by_name.get(name, 0.0), "s")
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def verdict_summary(done: list) -> dict:
    failures = [
        {"op": op.id, "kind": op.kind, "request": op.key or op.params.get("name"), "why": v}
        for op, _, v in done if v is not None
    ]
    return {"checked": len(done), "failed": len(failures), "failures": failures}


def print_result(metrics: dict, detail: dict, done: list) -> None:
    summary = verdict_summary(done)
    # a malformed request that is not refused cleanly is a failed operation (a
    # defect of the error contract) but not a wrong answer; any other failed
    # check is a wrong answer
    correct = all(v is None for op, _, v in done if op.kind != "malformed")
    print(json.dumps({"detail": detail, "verdicts": summary}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(done),
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", action="store_true")
    args = ap.parse_args(argv)

    cli = import_bmext()
    if args.probes:
        ops = workloads.probe_plan(args.workload)
    else:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="csv-", dir=SCRATCH)
    try:
        runner = Runner(cli, tmp, checks.load_refs())
        ran, wall = runner.run_pass(ops)
        done = runner.check(runner.scaled(ran))
        samples = runner.sampler.samples
        calibrated = {"raw_wall_s": wall, "mean_scale": calibration.factor(samples),
                      "units": len(samples)}
        if args.probes:
            groups = dict.fromkeys(op.group for op in ops)
            metrics = {f"{g}_ms": (group_ms(done, g), "ms") for g in groups}
            detail = {"probe_calls": {g: sum(op.group == g for op in ops) for g in groups},
                      "probe_calibration": calibrated}
        elif args.trace:
            tracer = Tracer()
            runner.tracer = tracer
            with tracer.installed():
                ran, traced_wall = runner.run_pass(ops)
            traced = runner.check(ran)
            metrics = per_layer(tracer, traced, traced_wall - wall)
            tracer.dump(os.path.join(SCRATCH, "spans", f"{args.workload}-seed{args.seed}.json"))
            detail = {"untraced_wall_s": wall, "traced_wall_s": traced_wall}
            done += traced
        else:
            metrics, detail = end_to_end(args.workload, done)
            detail["calibration"] = calibrated
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print_result(metrics, detail, done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
