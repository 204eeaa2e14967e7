"""Tests of the benchmark itself: metric names, output checks, span trees.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = worker.import_bmext()

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


@pytest.fixture
def runner(tmp_path):
    return worker.Runner(CLI, str(tmp_path), checks.load_refs())


def small_ops() -> list:
    """A cheap mix: exact calls, one walk of each kind, malformed requests."""
    rng = random.Random(7)
    ops = [
        workloads.Op(0, "exact", "validate", workloads.exact_argv("validate", "ex215", 4)),
        workloads.Op(0, "exact", "forms", workloads.exact_argv("energy", "ex216", 5, "tent")),
        workloads.Op(0, "exact", "darn", workloads.exact_argv("darn", "ex215", 4, index=0, out=True)),
        workloads.Op(0, "exact", "trace", workloads.exact_argv("trace", "ex215", 4, "cantor", out=True)),
        workloads.hitting_op(rng, "ex215", 6, (-0.5, -0.4), 2.0, samples=2_000),
        workloads.path_op(rng, "ex218", 1 / 3, 2 / 3, out=True, n=2_000),
        workloads.tracewalk_op(rng, "ex218", "brownian", 1 / 3, out=True, n=5_000),
        workloads.darnedwalk_op(rng, "ex215", 0, 4, out=True, n=5_000),
    ]
    # all but the unknown-function request, which validates ex218 for seconds first
    ops += [workloads.Op(0, "malformed", None, argv)
            for argv in workloads.exact_malformed(rng) if "ex218" not in argv]
    for i, op in enumerate(ops):
        op.id = i
    return ops


def _names(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_every_declared_end_to_end_metric_is_emitted_with_its_unit(runner):
    ran, _ = runner.run_pass(small_ops())
    assert len(runner.sampler.samples) >= 3
    metrics, _ = worker.end_to_end("cli-exact", runner.check(runner.scaled(ran)))
    # one pass over the probe groups; run.py adds their figures and setup_s
    probes = workloads.probe_plan("cli-exact")[:4]
    assert {op.group for op in probes} == {"hitting", "path", "tracewalk", "darnedwalk"}
    probed = runner.check(runner.scaled(runner.run_pass(probes)[0]))
    assert all(v is None for _, _, v in probed)
    metrics.update({f"{op.group}_ms": (worker.group_ms(probed, op.group), "ms") for op in probes})
    metrics["setup_s"] = (0.1, "s")
    assert _names(metrics) == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_every_declared_per_layer_metric_is_emitted_with_its_unit(runner):
    ops = small_ops()
    tracer = Tracer()
    runner.tracer = tracer
    with tracer.installed():
        ran, _ = runner.run_pass(ops)
    assert runner.sampler.samples == []  # no calibration Fractions in the traced count
    done = runner.check(ran)
    metrics = worker.per_layer(tracer, done, overhead=0.0)
    assert _names(metrics) == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert metrics["sim.walker_steps"][0] == 2_000 + 5_000 + 5_000 + tracer.counts["hitting_draws"]
    assert metrics["exact.fraction_new.calls"][0] > 0
    assert metrics["sim.hitting_probability.settled_ratio"][0] == 1.0


def test_small_mix_passes_its_checks_and_flags_the_known_defects(runner):
    ops = small_ops()
    done = runner.check(runner.run_pass(ops)[0])
    assert all(v is None for op, _, v in done if op.kind != "malformed")
    # a bad interval index and a negative depth escape as tracebacks on the
    # seed tree; the other malformed requests are refused with a JSON error
    defects = [op.key for op in ops if op.kind == "malformed"][:2]
    failed = [op.key for op, _, v in done if v is not None]
    assert set(failed) <= set(defects)
    assert all(v.startswith("traceback: ") for _, _, v in done if v is not None)


def test_changed_csv_byte_is_rejected(runner):
    op = workloads.Op(3, "exact", "darn", workloads.exact_argv("darn", "ex215", 4, index=0, out=True))
    outcome = runner.call(op)
    assert checks.check_exact(op.key, outcome, runner.refs) is None
    path = os.path.join(outcome.out_dir, "darn_atoms.csv")
    data = bytearray(open(path, "rb").read())
    data[-2] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)
    assert "CSV" in checks.check_exact(op.key, outcome, runner.refs)


def test_changed_stdout_is_rejected(runner):
    op = workloads.Op(0, "exact", "validate", workloads.exact_argv("validate", "ex217", 5))
    outcome = runner.call(op)
    assert checks.check_exact(op.key, outcome, runner.refs) is None
    outcome.stdout = outcome.stdout.replace("true", "false", 1)
    assert "stdout" in checks.check_exact(op.key, outcome, runner.refs)


def _edited(outcome, **changes):
    doc = json.loads(outcome.stdout)
    doc["result"].update(changes)
    return checks.Outcome(outcome.code, json.dumps(doc), None, outcome.seconds)


def test_hitting_estimate_moved_off_target_is_rejected(runner):
    op = workloads.hitting_op(random.Random(3), "ex216", 6, (0.4, 0.6), 1.5, samples=4_000)
    outcome = runner.call(op)
    assert checks.check_walk("hitting", op.params, outcome) is None
    r = json.loads(outcome.stdout)["result"]
    p = op.params
    _, target = checks.hitting_target(p["preset"], p["depth"], p["x0"], p["left"],
                                      r["x0_used"], p["right"])
    se = math.sqrt(target * (1 - target) / r["samples"])
    off = _edited(outcome, estimate=target + 6 * se)
    assert "off the scale ratio" in checks.check_walk("hitting", p, off)
    # the tolerance is the benchmark's own: an inflated reported error does not widen it
    assert "off the scale ratio" in checks.check_walk(
        "hitting", p, _edited(outcome, estimate=target + 6 * se, std_error=1.0))
    assert "off the scale ratio" in checks.check_walk(
        "hitting", p, _edited(outcome, estimate=math.nan, std_error=math.nan))
    assert "settled" in checks.check_walk(
        "hitting", p, _edited(outcome, samples=100, excluded=p["samples"] - 100))
    assert "interval" in checks.check_walk(
        "hitting", p, _edited(outcome, interval_index=r["interval_index"] + 1))


def test_silently_substituted_step_count_is_a_failure(runner):
    argv = workloads.walks_malformed(random.Random(0))[0]
    assert "--steps" in argv and argv[argv.index("--steps") + 1] == "0"
    outcome = runner.call(workloads.Op(0, "malformed", None, argv))
    verdict = checks.check_malformed(outcome)
    # the seed tree runs 10,000 steps instead of refusing; a fixed tree refuses
    assert verdict is None or verdict == "accepted with exit code 0"


def test_span_tree_nests_and_self_times_add_up(runner):
    tracer = Tracer()
    runner.tracer = tracer
    with tracer.installed():
        runner.run_pass(small_ops())
    assert len(tracer.name) > len(small_ops())
    for i, p in enumerate(tracer.parent):
        assert tracer.self_ns(i) >= 0
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
            assert tracer.op[i] == tracer.op[p]
    roots = tracer.roots()
    assert sorted(tracer.op[i] for i in roots) == list(range(len(small_ops())))
    self_by_op = {}
    for i in range(len(tracer.name)):
        self_by_op[tracer.op[i]] = self_by_op.get(tracer.op[i], 0) + tracer.self_ns(i)
    for i in roots:
        assert self_by_op[tracer.op[i]] == tracer.end[i] - tracer.start[i]


def test_wrappers_reach_from_imports_and_are_removed():
    from bmext import cantor, cli, darning, scale, verify

    originals = (darning.darn, cli.darn, verify.darn, scale.cantor_fraction)
    tracer = Tracer()
    with tracer.installed():
        assert cli.darn is darning.darn is verify.darn
        assert cli.darn is not originals[0]
        assert scale.cantor_fraction is cantor.cantor_fraction is not originals[3]
    assert (darning.darn, cli.darn, verify.darn, scale.cantor_fraction) == originals


def test_streams_depend_only_on_the_seed():
    a = [op.argv for op in workloads.cli_exact(5, 20)]
    b = [op.argv for op in workloads.cli_exact(5, 20)]
    c = [op.argv for op in workloads.cli_exact(6, 20)]
    assert a == b and a != c
    assert [op.argv for op in workloads.cli_walks(5, 20)] == [
        op.argv for op in workloads.cli_walks(5, 20)
    ]


def test_stream_cost_does_not_depend_on_the_seed():
    def exact(seed):
        return sorted(op.key for op in workloads.cli_exact(seed, 20) if op.kind == "exact")

    def walks(seed):
        return sorted((op.group, op.params.get("samples"), op.params.get("steps"))
                      for op in workloads.cli_walks(seed, 20) if op.kind == "walk")

    assert exact(1) == exact(2)
    assert walks(1) == walks(2)
    absorbed = [[op.key for op in workloads.cli_walks(seed, 20) if "darning-sojourn" in op.key
                 and "path" in op.argv] for seed in (1, 2)]
    assert sorted(absorbed[0]) == sorted(absorbed[1])


def test_every_exact_request_has_a_reference():
    refs = checks.load_refs()
    keys = {op.key for seed in range(4) for op in workloads.cli_exact(seed, 30) if op.kind == "exact"}
    keys |= {op.key for op, _ in workloads.probe_ops().values() if op.kind == "exact"}
    assert keys <= set(refs)


def test_each_operation_is_scaled_by_the_samples_taken_while_it_ran():
    sampler = worker.calibration.Sampler()
    sampler.stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    sampler.samples = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    ref = worker.calibration.REFERENCE_S
    # an operation that spans six samples is scaled by their mean
    assert worker.calibration.scale_between(sampler, 1.5, 7.5) == pytest.approx(ref * 6 / 10)
    # a short one by the five samples nearest to it
    assert worker.calibration.scale_between(sampler, 6.9, 7.0) == pytest.approx(ref / 1.8)
    assert worker.calibration.scale_between(sampler, 0.0, 0.1) == pytest.approx(ref / 1.2)


def test_setup_time_starts_before_bmext_and_numpy_are_imported():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_time.py"), "cli-walks", "1", "20"],
        capture_output=True, text=True, check=True,
    )
    measured = json.loads(proc.stdout)
    assert measured["preloaded"] == [] and measured["setup_s"] > 0
    assert len(measured["units_s"]) == 5


def test_tail_is_the_mean_beyond_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert worker.tail(values) == (95.5, 90.0)
    assert worker.tail(list(range(5))) == (4, 100.0)
