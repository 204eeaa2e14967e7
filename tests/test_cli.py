"""Command line: scenario schema, envelopes, CSV tables, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmext.cli as cli
from bmext import verify
from bmext.cantor import WORK_BUDGET, CantorBlock
from bmext.config import preset
from bmext.forms import energy

OVERLAP = {
    "schema": 1,
    "name": "overlap",
    "config": {
        "intervals": [
            {"lo": 0.0, "hi": 2.0, "include_lo": True, "include_hi": True},
            {"lo": 1.0, "hi": 3.0, "include_lo": True, "include_hi": True},
        ]
    },
}

MIXED = {
    "schema": 1,
    "name": "mixed",
    "config": {
        "intervals": [
            {
                "lo": "-inf",
                "hi": "inf",
                "scale": {"blocks": [{"lo": 0.0, "hi": 1.0, "weight": 1}]},
            }
        ]
    },
    "functions": {
        "mixed": [
            {
                "anchor": 1.0,
                "pieces": [
                    ["-inf", -1.0, 0.0, 0.0],
                    [-1.0, 0.0, 1.0, 0.0],
                    [0.0, 1.0, -1.0, 1.0],
                    [1.0, "inf", 0.0, 0.0],
                ],
            }
        ]
    },
    "experiments": [
        {
            "command": "simulate",
            "kind": "hitting",
            "x0": 0.25,
            "left": 0.0,
            "right": 1.0,
            "samples": 500,
            "seed": 5,
        }
    ],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def usage_error(capsys, *argv):
    """The message of the JSON UsageError that argv is refused with (exit 2)."""
    assert cli.main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "UsageError"
    return error["message"]


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# -- scenario schema ----------------------------------------------------------


def test_validate_preset_ok(capsys):
    code, out = run(capsys, "validate", "--preset", "ex215", "--deterministic")
    doc = json.loads(out)
    assert code == 0
    assert doc["command"] == "validate"
    assert doc["result"]["ok"] and doc["result"]["errors"] == []
    assert doc["scenario"]["source"] == "preset"
    assert len(doc["scenario"]["sha256"]) == 16


def test_validate_reports_overlap(tmp_path, capsys):
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, OVERLAP))
    doc = json.loads(out)
    assert code == 1 and not doc["result"]["ok"]
    assert any("overlap" in e for e in doc["result"]["errors"])


def test_malformed_json_exits_2(tmp_path, capsys):
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, '{"schema": 1,'))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ScenarioError"


def test_unknown_field_exits_2(tmp_path, capsys):
    doc = {"schema": 1, "config": {"intervals": [{"lo": 0, "hi": 1, "colour": "red"}]}}
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc))
    assert code == 2
    assert "$.config.intervals[0]" in json.loads(out)["error"]["message"]


def test_wrong_schema_version_exits_2(tmp_path, capsys):
    doc = {"schema": 99, "config": {"intervals": [{"lo": 0, "hi": 1}]}}
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc))
    assert code == 2
    assert "schema" in json.loads(out)["error"]["message"]


def test_intervals_must_be_listed_in_order(tmp_path, capsys):
    doc = {
        "schema": 1,
        "config": {
            "intervals": [
                {"lo": 1.0, "hi": 2.0, "include_lo": True, "include_hi": True},
                {"lo": 0.0, "hi": 1.0, "include_lo": True, "include_hi": False},
            ]
        },
    }
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc))
    assert code == 2
    assert "increasing order" in json.loads(out)["error"]["message"]


def _dust_scenario(dust):
    # two closed rays around [0, 1], whose gap the dust must account for
    return {
        "schema": 1,
        "config": {
            "intervals": [
                {"lo": "-inf", "hi": 0.0, "include_hi": True},
                {"lo": 1.0, "hi": "inf", "include_lo": True},
            ],
            "complement": {"dust": [dust]},
        },
    }


@pytest.mark.parametrize(
    "dust, message",
    [
        ({"lo": 0, "hi": 1, "depth": -1}, "dust[0].depth: must be non-negative"),
        ({"lo": 1, "hi": 0, "depth": 3}, "dust[0]: need lo < hi"),
        ({"lo": 0.5, "hi": 0.5, "depth": 3}, "dust[0]: need lo < hi"),
    ],
)
def test_malformed_dust_exits_2(tmp_path, capsys, dust, message):
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, _dust_scenario(dust)))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ScenarioError"
    assert err["message"].startswith("$.config.complement." + message)


@pytest.mark.parametrize("segment", [[3, 2], [2, 2]])
def test_reversed_complement_segment_exits_2(tmp_path, capsys, segment):
    # a reversed segment used to count as negative length and hide a leftover
    doc = _dust_scenario({"lo": 0, "hi": 1, "depth": 0})
    doc["config"]["complement"] = {"segments": [[0, 1], segment]}
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ScenarioError"
    assert err["message"].startswith("$.config.complement.segments[1]: need lo < hi")


def test_deep_scenario_dust_is_accounted_without_its_pieces(tmp_path, capsys, monkeypatch):
    # 2**200 pieces could never be listed; the closed form reads the gap exactly
    def refuse(self, depth):
        raise AssertionError("validate enumerated the dust pieces")

    monkeypatch.setattr(CantorBlock, "remnants", refuse)
    doc = _dust_scenario({"lo": 0, "hi": 1, "depth": 200})
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc))
    assert code == 1
    assert json.loads(out)["result"]["errors"] == [
        "gap (0.0, 1.0) has length 1.0 but the complement accounts for "
        f"{float(Fraction(2, 3) ** 200)}"
    ]


# a block weight beyond the float range: a fraction string that parses
# exactly, and JSON numbers that json reads as inf
@pytest.mark.parametrize("weight", ['"1e400"', '"-1e400"', "1e400", "Infinity"])
@pytest.mark.parametrize("argv", [
    ("validate",), ("energy", "--function", "mixed"), ("decompose", "--function", "mixed"),
    ("darn",), ("trace", "--function", "mixed"), ("simulate", "hitting", "--experiment", "0"),
], ids=lambda argv: argv[1] if argv[0] == "simulate" else argv[0])
def test_a_weight_beyond_the_float_range_is_refused(tmp_path, capsys, weight, argv):
    text = json.dumps(MIXED).replace('"weight": 1', f'"weight": {weight}')
    err = refused(capsys, 2, *argv, "--scenario", write(tmp_path, text))
    assert err["type"] == "ScenarioError"
    assert err["message"].startswith("$.config.intervals[0].scale.blocks[0].weight: ")
    assert "is not a finite number in the float range" in err["message"]


def test_missing_source_exits_2(capsys):
    code, out = run(capsys, "energy", "--function", "tent")
    assert code == 2
    assert "--preset" in json.loads(out)["error"]["message"]


def test_invalid_preset_is_a_usage_error(capsys):
    assert "argument --preset: invalid choice" in usage_error(capsys, "validate", "--preset", "nope")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("validate", "--preset", "ex215", "--depth", "abc"), "argument --depth: invalid int"),
        (("simulate", "nope", "--preset", "ex215"), "argument kind: invalid choice"),
        ((), "required: command"),
    ],
    ids=["depth", "simulate-kind", "no-command"],
)
def test_argparse_refusals_are_json_usage_errors(capsys, argv, flag):
    assert flag in usage_error(capsys, *argv)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--help"])
    assert exc.value.code == 0
    assert "--preset" in capsys.readouterr().out


def test_parser_reused_after_a_usage_error(capsys):
    argv = ["validate", "--preset", "ex216", "--deterministic"]
    cli._build_parser.cache_clear()
    fresh = run(capsys, *argv)
    assert "--preset" in usage_error(capsys, "validate", "--preset", "nope")
    assert run(capsys, *argv) == fresh


def test_config_payload_round_trips(tmp_path, capsys):
    payload = cli.config_payload(preset("ex216"))
    path = write(tmp_path, {"schema": 1, "name": "rt", "config": payload})
    code, out = run(capsys, "validate", "--scenario", path, "--deterministic")
    assert code == 0
    assert json.loads(out)["scenario"]["sha256"] == cli.scenario_hash(preset("ex216"))


# -- energy and decomposition ---------------------------------------------------


def test_energy_of_builtin_tent(capsys):
    code, out = run(
        capsys, "energy", "--preset", "ex215", "--function", "tent", "--deterministic"
    )
    doc = json.loads(out)
    assert code == 0
    assert math.isclose(doc["result"]["energy"], 1.0, rel_tol=1e-12)
    assert "generated_at" not in doc

    _, out2 = run(capsys, "energy", "--preset", "ex215", "--function", "tent")
    assert "generated_at" in json.loads(out2)


def test_energy_of_cantor_function(capsys):
    code, out = run(
        capsys, "energy", "--preset", "ex215", "--function", "cantor", "--deterministic"
    )
    result = json.loads(out)["result"]
    assert code == 0
    assert result["energy"] == 0.5
    assert result["in_complement"] and result["in_extended_space"]


def test_unknown_function_exits_1(capsys):
    code, out = run(capsys, "energy", "--preset", "ex215", "--function", "nope")
    assert code == 1
    assert "available" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("command", ["energy", "decompose", "trace"])
def test_unknown_function_is_refused_before_validation(capsys, monkeypatch, command):
    def no_validation(config):
        raise AssertionError("validated before the function name was checked")

    monkeypatch.setattr(cli, "validate", no_validation)
    code, out = run(capsys, command, "--preset", "ex218", "--function", "no-such-function")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "CommandError"
    assert error["message"].startswith("unknown function 'no-such-function'; available: ")


def test_scenario_function_matches_library_energy(tmp_path, capsys):
    path = write(tmp_path, MIXED)
    code, out = run(capsys, "energy", "--scenario", path, "--function", "mixed")
    got = json.loads(out)["result"]["energy"]
    sc = cli.load_scenario(path)
    assert code == 0
    assert got == energy(sc.config, sc.functions["mixed"]) == 1.5


def test_decompose_mixed_function(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(
        capsys,
        "decompose", "--scenario", write(tmp_path, MIXED), "--function", "mixed",
        "--out", str(out_dir), "--deterministic",
    )
    doc = json.loads(out)
    assert code == 0
    r = doc["result"]
    assert r["orthogonal"] and abs(r["additivity_gap"]) <= 1e-12
    assert r["energy_smooth"] == 1.0 and r["energy_complement"] == 0.5
    lines = (out_dir / "decompose_values.csv").read_text().splitlines()
    assert lines[1] == "x,value,smooth,complement"
    assert len(lines) > 50


# -- darning and traces -----------------------------------------------------------


def test_darn_writes_exact_atom_table(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(
        capsys, "darn", "--preset", "ex215", "--out", str(out_dir), "--deterministic"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["total_mass"] == "1"
    assert doc["result"]["image"] == {"lo": 0.0, "hi": 1.0}
    text = (out_dir / "darn_atoms.csv").read_text()
    assert text.startswith("# scenario=")
    assert "0.5,1/3,atom" in text.splitlines()


DARN_PINS = json.loads((pathlib.Path(__file__).parent / "darn_pins.json").read_text())


def test_darn_outputs_match_their_pins(tmp_path, capsys, monkeypatch):
    # sha256 of stdout and of the --out CSV, recorded from the per-item
    # Fraction darn, for every preset and darnable index at depths 0-10
    monkeypatch.chdir(tmp_path)
    for key, (out_sha, csv_sha) in DARN_PINS.items():
        name, index, depth = key.split()
        code, out = run(capsys, "darn", "--preset", name, "--index", index,
                        "--depth", depth, "--out", "out", "--deterministic")
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha, key
        table = (tmp_path / "out" / "darn_atoms.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == csv_sha, key


TRACE_PINS = json.loads((pathlib.Path(__file__).parent / "trace_pins.json").read_text())


def test_trace_outputs_match_their_pins(tmp_path, capsys, monkeypatch):
    # sha256 of stdout and of the --out CSV, recorded when the trace cells came
    # from exact Fraction ends, for every preset and built-in at depths 1-8
    monkeypatch.chdir(tmp_path)
    for key, (out_sha, csv_sha) in TRACE_PINS["trace"].items():
        name, function, depth = key.split()
        code, out = run(capsys, "trace", "--preset", name, "--function", function,
                        "--depth", depth, "--out", "out", "--deterministic")
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha, key
        table = (tmp_path / "out" / "trace_jumps.csv").read_bytes()
        assert hashlib.sha256(table).hexdigest() == csv_sha, key


WALK_PINS = json.loads((pathlib.Path(__file__).parent / "walk_pins.json").read_text())
WALK_CSV = {"path": "sim_path.csv", "trace": "sim_trace.csv", "darned": "sim_darned.csv"}


def test_walk_outputs_match_their_pins(tmp_path, capsys, monkeypatch):
    # sha256 of stdout and of the --out CSV (none for hitting) of one small
    # seeded run of each simulate kind on the benchmark's walk presets, from
    # starting points on, off and halfway between sites
    monkeypatch.chdir(tmp_path)
    for key, (out_sha, csv_sha) in WALK_PINS.items():
        csv = WALK_CSV.get(key.split()[0])
        out_flag = () if csv is None else ("--out", "out")
        code, out = run(capsys, "simulate", *key.split(), *out_flag, "--deterministic")
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha, key
        if csv is None:
            assert csv_sha is None, key
        else:
            table = (tmp_path / "out" / csv).read_bytes()
            assert hashlib.sha256(table).hexdigest() == csv_sha, key


CLI_PINS = json.loads((pathlib.Path(__file__).parent / "cli_pins.json").read_text())


def test_exact_outputs_match_their_pins(tmp_path, capsys, monkeypatch):
    # exit code and sha256 of stdout (and of the decompose --out CSV) of
    # validate, energy and decompose on every preset and built-in at depths 4
    # and 6, and of the JSON error of each refusal class
    monkeypatch.chdir(tmp_path)
    for key, (code, out_sha, csv_sha) in CLI_PINS.items():
        argv = [*key.split(), "--deterministic"]
        if argv[0] == "decompose":
            argv += ["--out", "out"]
        got, out = run(capsys, *argv)
        assert got == code, key
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha, key
        if csv_sha is not None:
            table = (tmp_path / "out" / "decompose_values.csv").read_bytes()
            assert hashlib.sha256(table).hexdigest() == csv_sha, key


def test_darn_without_singular_part_exits_1(capsys):
    code, out = run(capsys, "darn", "--preset", "ex218", "--index", "1")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegenerateDarning"


def test_trace_of_identity_on_dust(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(
        capsys,
        "trace", "--preset", "ex218", "--function", "identity", "--depth", "8",
        "--out", str(out_dir), "--deterministic",
    )
    doc = json.loads(out)
    assert code == 0
    r = doc["result"]
    assert abs(r["energy_bm"] - 0.5 * (1 - (2 / 3) ** 8)) <= 1e-12
    assert r["membership"]["kind"] == "brownian-trace"
    lines = (out_dir / "trace_jumps.csv").read_text().splitlines()
    assert len(lines) - 2 == r["cell_count"] - 1


def test_trace_of_cantor_function(capsys):
    code, out = run(
        capsys, "trace", "--preset", "ex215", "--function", "cantor", "--deterministic"
    )
    r = json.loads(out)["result"]
    assert code == 0
    assert abs(r["energy_ext"] - 0.5) <= 1e-12
    assert r["membership"]["kind"] == "extension-trace-only"


# -- simulation -------------------------------------------------------------------


def test_simulate_hitting_estimate(capsys):
    argv = (
        "simulate", "hitting", "--preset", "ex215", "--x0", "0.3333333333333333",
        "--left", "0", "--right", "1", "--samples", "2000", "--seed", "3",
        "--deterministic",
    )
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0
    r = doc["result"]
    assert r["x0_used"] == pytest.approx(1 / 3, abs=1e-15)
    assert abs(r["estimate"] - 7 / 12) <= 4 * r["std_error"]
    code2, out2 = run(capsys, *argv)
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize(
    "preset_name, x0, left, right, exact",
    [
        # t(x) = x + C(x) on [0, 1]; x0_used is the float nearest 1/3, and the
        # exact ratio at it reads C off the float's own ternary digits.  That
        # float lies 1.85e-17 below 1/3, where C falls short of 1/2 by about
        # 2.5e-11 (Holder exponent log 2 / log 3), so the target is 7/12 + 1.27e-11
        ("ex215", "0.3333333333333333", "0", "1",
         lambda x: (2 - x - verify._digit_oracle(x)) / 2),
        # the middle of the first gap: C = 1/2 and t = 1 exactly
        ("ex215", "0.5", "0", "1", lambda x: Fraction(1, 2)),
        # the excluded endpoint 0 walls ex216's right half-line off: t(0) = -inf
        ("ex216", "0.5", "0", "1", lambda x: Fraction(0)),
        # a window of 4 ulps inside a gap of the stack's outer shell, where t
        # is linear: three rounded scale values gave 1.0
        ("ex216", "0.3000000000000001", "0.3", "0.3000000000000002",
         lambda x: (Fraction(0.3000000000000002) - x) / (Fraction(0.3000000000000002)
                                                         - Fraction(0.3))),
    ],
)
def test_simulate_hitting_reports_its_exact_target(capsys, preset_name, x0, left, right, exact):
    code, out = run(capsys, "simulate", "hitting", "--preset", preset_name, "--x0", x0,
                    "--left", left, "--right", right, "--samples", "500")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["target"] == float(exact(Fraction(r["x0_used"])))
    assert r["samples"] == 500 and r["excluded"] == 0


def test_simulate_hitting_target_is_null_when_the_ratio_is_not_finite(capsys):
    # ex216's left half-line excludes 0, so t(right) = +inf and the ratio is inf/inf
    code, out = run(capsys, "simulate", "hitting", "--preset", "ex216", "--x0", "-0.5",
                    "--left", "-1", "--right", "0", "--samples", "500")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["target"] is None and r["estimate"] == 1.0


def test_simulate_hitting_requires_x0(capsys):
    code, out = run(capsys, "simulate", "hitting", "--preset", "ex215")
    assert code == 1
    assert "--x0" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # each was walked from the nearest window end, with exit 0: hitting
        # from 0.0 (estimate 1.0), path from 1.0 and darned from 0.99609375
        (("hitting", "--preset", "ex215", "--x0", "-3", "--left", "0", "--right", "1"),
         "simulate hitting: --x0 -3.0 lies outside the window [0.0, 1.0]"),
        (("path", "--preset", "ex215", "--x0", "5", "--left", "0", "--right", "1"),
         "simulate path: --x0 5.0 lies outside the window [0.0, 1.0]"),
        (("darned", "--preset", "ex215", "--x0", "100"),
         "simulate darned: --x0 100.0 lies outside the darned image [0.0, 1.0]"),
    ],
    ids=["hitting", "path", "darned"],
)
def test_start_point_outside_the_window_exits_1(capsys, argv, message):
    assert refused(capsys, 1, "simulate", *argv) == {"type": "CommandError", "message": message}


@pytest.mark.parametrize(
    "argv, used",
    [
        (("hitting", "--x0", "1", "--left", "0", "--right", "1", "--samples", "10"), 1.0),
        (("path", "--x0", "-0.0", "--left", "0", "--right", "1", "--steps", "10"), 0.0),
        # the darned image's end is no site: the walk starts at the nearest one
        (("darned", "--x0", "0", "--depth", "4", "--steps", "10"), 0.0625),
    ],
    ids=["hitting", "path", "darned"],
)
def test_start_point_on_the_window_end_is_walked_from_the_nearest_site(capsys, argv, used):
    code, out = run(capsys, "simulate", *argv, "--preset", "ex215")
    assert code == 0
    assert json.loads(out)["result"]["x0_used"] == used


def test_simulate_without_kind_exits_1(capsys):
    # named for the exit 1 it had while the kind was optional; the parser now
    # requires it
    code, out = run(capsys, "simulate", "--preset", "ex215")
    assert code == 2
    assert "kind" in json.loads(out)["error"]["message"]


def _one_line_refusal(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    message = json.loads(out)["error"]["message"]
    assert "\n" not in message
    return message


def test_holding_time_beyond_the_float_range_is_refused_in_one_line(capsys):
    # the cells near 1e308 hold a walker longer than any float: the refusal
    # names the first such site, with no numpy overflow warning
    message = _one_line_refusal(capsys, "simulate", "path", "--preset", "ex216", "--x0", "1e300",
                                "--left", "0.5", "--right", "1e308", "--steps", "5")
    assert message == "holding time at site 2.0833333333333333e+306 is not finite"


def test_hitting_on_a_window_whose_holding_times_overflow_answers(capsys):
    # the path on this window is refused above; hitting reads no holding time
    code, out = run(capsys, "simulate", "hitting", "--preset", "ex216", "--x0", "1e300",
                    "--left", "0.5", "--right", "1e308", "--samples", "1000", "--deterministic")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["x0_used"] == 0.5 and result["grid_sites"] == 49
    assert (result["estimate"], result["std_error"], result["target"]) == (1.0, 0.0, 1.0)
    assert (result["samples"], result["excluded"]) == (1000, 0)


def _refuse(*args, **kwargs):
    raise AssertionError("a holding time was read")


def test_hitting_and_extension_trace_walks_build_no_holding_time(capsys, monkeypatch):
    from bmext.sim import GridChain

    # every chain forms its holding times with its step laws; a walk that
    # reads them is refused here
    monkeypatch.setattr(GridChain, "mean_holding", property(_refuse))
    code, _ = run(capsys, "simulate", "hitting", "--preset", "ex215", "--x0", "0.5",
                  "--left", "-0.5", "--right", "1.5", "--samples", "100", "--deterministic")
    assert code == 0
    # both ends of the gap reflect, so the grid's ends would hold a walker too
    code, _ = run(capsys, "simulate", "trace", "--preset", "ex218", "--depth", "4",
                  "--mode", "extension", "--x0", "0.3333333333333333", "--steps", "1000",
                  "--deterministic")
    assert code == 0
    # a path reads them, so the patched read is reached
    with pytest.raises(AssertionError, match="a holding time was read"):
        cli.main(["simulate", "path", "--preset", "ex215", "--x0", "0.5", "--left", "-0.5",
                  "--right", "1.5", "--steps", "10", "--deterministic"])


def test_window_wider_than_the_float_range_is_refused_in_one_line(capsys):
    message = _one_line_refusal(capsys, "simulate", "hitting", "--preset", "ex215", "--x0", "0.5",
                                "--left", "-1e308", "--right", "1e308", "--samples", "5")
    assert message == "the window [-1e+308, 1e+308] is wider than the float range"


@pytest.mark.parametrize("left", ["-1e-3", "-1E-3", "-.5e-2", "-1e-308"])
def test_negative_float_in_exponent_form_is_a_value(capsys, left):
    code, out = run(capsys, "simulate", "hitting", "--preset", "ex215", "--x0", "0.5",
                    "--left", left, "--right", "1", "--samples", "5", "--deterministic")
    assert code == 0
    assert json.loads(out)["result"]["window"] == [float(left), 1.0]


@pytest.mark.parametrize("value", ["-inf", "-1e309", "-nan"])
def test_negative_non_finite_float_is_refused_as_a_value(capsys, value):
    message = usage_error(capsys, "simulate", "path", "--preset", "ex215", "--x0", "0.5",
                          "--left", value, "--right", "1")
    assert message.endswith(f"argument --left: must be a finite number, got {value!r}")


def test_simulate_path_table(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(
        capsys,
        "simulate", "path", "--preset", "ex215", "--x0", "0.5", "--left", "0",
        "--right", "1", "--steps", "500", "--seed", "4", "--out", str(out_dir),
        "--deterministic",
    )
    doc = json.loads(out)
    assert code == 0
    lines = (out_dir / "sim_path.csv").read_text().splitlines()
    assert "seed=4" in lines[0] and "grid=" in lines[0]
    assert lines[1] == "step,site,time"
    assert len(lines) - 2 == doc["result"]["steps"] + 1


def test_simulate_trace_support(capsys):
    code, out = run(
        capsys,
        "simulate", "trace", "--preset", "ex218", "--depth", "4",
        "--x0", "0.3333333333333333", "--steps", "20000", "--seed", "7",
        "--deterministic",
    )
    r = json.loads(out)["result"]
    assert code == 0
    assert r["mode"] == "extension" and r["support_count"] == 2


def test_simulate_trace_refuses_an_infinite_weight(tmp_path, capsys):
    code, out = run(
        capsys,
        "simulate", "trace", "--preset", "darning-sojourn", "--depth", "4",
        "--x0", "-1.0", "--mode", "brownian", "--steps", "3000",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert "trace site -1.0" in json.loads(out)["error"]["message"]
    assert not (tmp_path / "out").exists()


BROWNIAN_CELLS = ("simulate trace: --mode brownian takes no --cells;"
                  " only the extension chain walks a grid")


def test_simulate_trace_brownian_refuses_cells(capsys):
    # the brownian chain walks the trace sites themselves: --cells was ignored
    message = usage_error(capsys, "simulate", "trace", *TINY_WALKS["trace"],
                          "--mode", "brownian", "--cells", "8")
    assert message == BROWNIAN_CELLS


@pytest.mark.parametrize("carried, argv", [
    ({"mode": "brownian", "cells": 8}, ()),
    ({"cells": 8}, ("--mode", "brownian")),
    ({"mode": "brownian"}, ("--cells", "8")),
], ids=["experiment", "experiment-cells", "experiment-mode"])
def test_simulate_trace_brownian_experiment_refuses_cells(tmp_path, capsys, carried, argv):
    doc = dict(MIXED, experiments=[
        {"command": "simulate", "kind": "trace", "x0": 0.0, "steps": 50, **carried}])
    message = usage_error(capsys, "simulate", "trace", "--scenario", write(tmp_path, doc),
                          "--depth", "3", "--experiment", "0", *argv)
    assert message == BROWNIAN_CELLS


def test_simulate_darned_occupation(tmp_path, capsys):
    # the occupation fractions sum to 1 up to the rounding of their 63
    # quotients and of the sums: within 4 machine epsilons (2 out of 3 runs
    # miss 1.0 exactly, by at most 2.5 epsilons over 240 runs);
    # occupation_tv is the total variation distance from the normalised
    # site masses that the CSV lists
    out_dir = tmp_path / "out"
    for seed in range(9, 15):
        code, out = run(
            capsys,
            "simulate", "darned", "--preset", "ex215", "--depth", "6",
            "--steps", "20000", "--seed", str(seed), "--out", str(out_dir), "--deterministic",
        )
        assert code == 0
        r = json.loads(out)["result"]
        assert abs(r["occupation_total"] - 1.0) <= 4 * sys.float_info.epsilon, seed
        lines = (out_dir / "sim_darned.csv").read_text().splitlines()
        assert len(lines) - 2 == r["site_count"]
        rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
        total = math.fsum(m for _, m, _, _ in rows)
        tv = 0.5 * math.fsum(abs(o - m / total) for _, m, _, o in rows)
        assert 0.0 < r["occupation_tv"] <= 1.0
        assert r["occupation_tv"] == pytest.approx(tv, rel=1e-12), seed


# -- experiments --------------------------------------------------------------------


def test_experiment_preloads_parameters(tmp_path, capsys):
    path = write(tmp_path, MIXED)
    code, out = run(
        capsys, "simulate", "hitting", "--scenario", path, "--experiment", "0",
        "--deterministic",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["parameters"]["samples"] == 500
    assert doc["parameters"]["seed"] == 5
    assert doc["result"]["kind"] == "hitting"


def test_experiment_flags_win_over_scenario(tmp_path, capsys):
    path = write(tmp_path, MIXED)
    code, out = run(
        capsys,
        "simulate", "hitting", "--scenario", path, "--experiment", "0",
        "--samples", "800", "--deterministic",
    )
    assert code == 0
    assert json.loads(out)["parameters"]["samples"] == 800


def test_experiment_command_mismatch_exits_1(tmp_path, capsys):
    path = write(tmp_path, MIXED)
    code, out = run(capsys, "energy", "--scenario", path, "--experiment", "0")
    assert code == 1
    assert "simulate" in json.loads(out)["error"]["message"]


def test_experiment_kind_mismatch_exits_1(tmp_path, capsys):
    err = refused(capsys, 1, "simulate", "path", "--scenario", write(tmp_path, MIXED),
                  "--experiment", "0")
    assert err == {"type": "CommandError",
                   "message": "experiment 0 is a 'simulate hitting' run, not 'simulate path'"}


def test_experiment_key_its_kind_does_not_read_exits_2(tmp_path, capsys):
    # a hitting walk reads no --steps, so a hitting experiment cannot carry one
    doc = json.loads(json.dumps(MIXED))
    doc["experiments"][0]["steps"] = 10
    err = refused(capsys, 2, "simulate", "hitting", "--scenario", write(tmp_path, doc),
                  "--experiment", "0")
    assert err == {"type": "ScenarioError",
                   "message": "$.experiments[0]: unknown field(s) steps"}


@pytest.mark.parametrize(
    "key, value",
    [
        ("kind", "nope"),  # was a KeyError traceback
        ("kind", None),  # a walk experiment names the kind whose parser reads it
        ("seed", 1.7),  # was run, and reported, as seed 1
        ("right", True),  # was used as 1.0
        ("x0", "abc"),  # was exit 1
        ("x0", math.nan),  # was walked from the first grid site
        ("left", -math.inf),  # was exit 1 with "sites must be finite"
    ],
)
def test_experiment_value_the_flag_refuses_exits_2(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(MIXED))
    doc["experiments"].append(dict(MIXED["experiments"][0], **{key: value}))
    path = write(tmp_path, doc)
    code, out = run(capsys, "simulate", "hitting", "--scenario", path, "--experiment", "1")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ScenarioError"
    assert error["message"].startswith(f"$.experiments[1].{key}: ")


# -- refused options ----------------------------------------------------------------


def refused(capsys, code, *argv):
    got, out = run(capsys, *argv)
    assert got == code
    return json.loads(out)["error"]


def test_darn_index_past_the_end_exits_1(capsys):
    err = refused(capsys, 1, "darn", "--preset", "ex215", "--index", "1")
    assert err["type"] == "CommandError" and "out of range" in err["message"]


def test_darn_negative_index_is_not_taken_from_the_end(capsys):
    err = refused(capsys, 1, "darn", "--preset", "ex216", "--index", "-1")
    assert err["type"] == "CommandError"


def test_simulate_darned_index_past_the_end_exits_1(capsys):
    err = refused(capsys, 1, "simulate", "darned", "--preset", "ex215", "--index", "2")
    assert err["type"] == "CommandError"


def test_simulate_hitting_index_past_the_end_exits_1(capsys):
    err = refused(
        capsys, 1, "simulate", "hitting", "--preset", "ex215",
        "--x0", "0.5", "--left", "0", "--right", "1", "--index", "3",
    )
    assert err["type"] == "CommandError"


def test_negative_depth_exits_2(capsys):
    err = refused(capsys, 2, "darn", "--preset", "ex215", "--depth", "-2")
    assert err["type"] == "UsageError" and "--depth" in err["message"]


@pytest.mark.parametrize(
    "argv, count",
    [
        (("validate", "--preset", "ex218", "--depth", "40"), 2**40 + 1),
        (("darn", "--preset", "ex216", "--depth", "21"), 21 * 2**22 + 3),
        (("trace", "--preset", "ex215", "--depth", str(10**12), "--function", "identity"),
         "more than 2**64"),
        (("simulate", "hitting", "--preset", "ex218", "--depth", "30",
          "--x0", "0.3", "--left", "0", "--right", "1"), 2**30 + 1),
    ],
)
def test_depth_over_the_work_budget_exits_1(capsys, argv, count):
    # refused from a closed-form count, before any item is built
    err = refused(capsys, 1, *argv)
    assert err["type"] == "ValueError"
    assert f"would build {count} support items" in err["message"]
    assert f"over the work budget of {WORK_BUDGET}" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "path", "--steps", "0"),
        ("simulate", "hitting", "--samples", "-5"),
        ("simulate", "hitting", "--cells", "0"),
        ("simulate", "hitting", "--budget", "0"),
    ],
)
def test_non_positive_count_exits_2(capsys, argv):
    window = ("--preset", "ex215", "--x0", "0.5", "--left", "0", "--right", "1")
    err = refused(capsys, 2, *argv, *window)
    assert err["type"] == "UsageError" and argv[2] in err["message"]


WINDOW = ("--preset", "ex215", "--x0", "0.3", "--left", "0", "--right", "1")
WHOLE_LINE = {"schema": 1, "config": {"intervals": [{"lo": "-inf", "hi": "inf"}]}}


def _experiment(command, **keys):
    """A one-experiment scenario on the whole line for a command (and its walk kind)."""
    run = dict(zip(("command", "kind"), command))
    return dict(WHOLE_LINE, experiments=[dict(run, **keys)])


@pytest.mark.parametrize(
    "argv, what",
    [
        # was a numpy _ArrayMemoryError traceback from the grid's linspace
        (("hitting", *WINDOW, "--cells", str(10**12)),
         f"simulate --cells would build {10**12} grid cells"),
        (("hitting", *WINDOW, "--samples", str(WORK_BUDGET + 1)),
         f"simulate --samples would build {WORK_BUDGET + 1} walkers"),
        (("path", *WINDOW, "--steps", str(10**15)),
         f"simulate --steps would build {10**15} walk steps"),
        (("path", *WINDOW, "--cells", str(WORK_BUDGET + 1)),
         f"simulate --cells would build {WORK_BUDGET + 1} grid cells"),
        (("trace", "--preset", "ex218", "--x0", "0.0", "--steps", str(WORK_BUDGET + 1)),
         f"simulate --steps would build {WORK_BUDGET + 1} walk steps"),
        (("darned", "--preset", "ex215", "--steps", str(10**18)),
         f"simulate --steps would build {10**18} walk steps"),
        # 40,001 sites of 129 table entries each
        (("hitting", *WINDOW, "--cells", "40000"),
         "simulate hitting's stride table would build 5160129 table entries"),
    ],
)
def test_walk_size_over_the_work_budget_exits_1(tmp_path, capsys, argv, what):
    # named for the exit 1 with which each was refused when the walk ran; the
    # parser now refuses a --cells, --samples or --steps over the budget with
    # exit 2, on argv and in an experiment alike, and only the stride table
    # that --cells 40000 implies is still refused when the walk runs
    kind, flag, value = argv[0], argv[-2], int(argv[-1])
    if value <= WORK_BUDGET:
        err = refused(capsys, 1, "simulate", *argv)
        assert err == {"type": "CommandError",
                       "message": f"{what}, over the work budget of {WORK_BUDGET}"}
        return
    bound = f"must be at most {WORK_BUDGET}, got {value}"
    message = usage_error(capsys, "simulate", *argv)
    assert message == f"bmext simulate {kind}: argument {flag}: {bound}"
    path = write(tmp_path, _experiment(("simulate", kind), **{flag[2:]: value}))
    err = refused(capsys, 2, "validate", "--scenario", path)
    assert err == {"type": "ScenarioError",
                   "message": f"$.experiments[0].{flag[2:]}: {flag} {bound}"}


def test_decompose_samples_over_the_work_budget_exits_2(capsys):
    # was a table of that many rows under --out
    value = WORK_BUDGET + 1
    message = usage_error(capsys, "decompose", "--preset", "ex215", "--function", "tent",
                          "--samples", str(value))
    assert message == (
        f"bmext decompose: argument --samples: must be at most {WORK_BUDGET}, got {value}")


def test_decompose_rows_over_the_work_budget_exit_1(tmp_path, capsys, monkeypatch):
    # each sample point evaluates f, f1 and f2 piece by piece: 6,000 points
    # on ex218's 3 x 258 tent pieces at depth 8 are 4,644,000 evaluations,
    # refused before a row or the --out directory is made
    monkeypatch.chdir(tmp_path)
    err = refused(capsys, 1, "decompose", "--preset", "ex218", "--depth", "8",
                  "--function", "tent", "--samples", "6000", "--out", "out")
    assert err == {"type": "ValueError",
                   "message": "decompose --samples would build 4644000 piece evaluations,"
                              f" over the work budget of {WORK_BUDGET}"}
    assert not (tmp_path / "out").exists()
    code, _ = run(capsys, "decompose", "--preset", "ex218", "--depth", "8",
                  "--function", "tent", "--samples", "5000", "--out", "out")
    assert code == 0


def test_simulate_hitting_budget_of_one_step_excludes_every_walk(capsys):
    code, out = run(capsys, "simulate", "hitting", "--preset", "ex215", "--x0", "0.3",
                    "--left", "0", "--right", "1", "--samples", "300", "--budget", "1")
    assert code == 0
    r = json.loads(out)["result"]
    assert (r["samples"], r["excluded"], r["estimate"]) == (0, 300, "nan")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "hitting", *WINDOW, "--samples", "10"),
        ("simulate", "path", *WINDOW),
        ("simulate", "darned", "--preset", "ex215"),
        ("simulate", "trace", "--preset", "ex218", "--x0", "0.0"),
        ("validate", "--preset", "ex215"),
        ("energy", "--preset", "ex215", "--function", "identity"),
        ("decompose", "--preset", "ex215", "--function", "identity"),
        ("darn", "--preset", "ex215"),
        ("trace", "--preset", "ex215", "--function", "identity"),
        ("verify",),
    ],
)
def test_negative_seed_exits_2(capsys, argv):
    # was numpy's bare "expected non-negative integer" with exit 1, and three
    # verify checks printed as FAIL; the parser refuses it, naming the command
    # and, for simulate, the walk kind
    err = refused(capsys, 2, *argv, "--seed", "-5")
    prog = " ".join(argv[:2] if argv[0] == "simulate" else argv[:1])
    assert err == {"type": "UsageError",
                   "message": f"bmext {prog}: argument --seed: must be non-negative, got -5"}


def test_negative_experiment_seed_exits_2(tmp_path, capsys):
    doc = json.loads(json.dumps(MIXED))
    doc["experiments"].append(dict(MIXED["experiments"][0], seed=-5))
    path = write(tmp_path, doc)
    # refused when the scenario is read, by every command that loads it
    for argv in (("simulate", "hitting", "--experiment", "1"), ("validate",)):
        err = refused(capsys, 2, *argv, "--scenario", path)
        assert err["type"] == "ScenarioError"
        assert err["message"].startswith("$.experiments[1].seed: --seed must be non-negative")


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--preset", "ex215", "--function", "identity"),
        ("simulate", "trace", "--preset", "ex218", "--x0", "0.0"),
    ],
)
def test_trace_depth_0_exits_2(capsys, argv):
    # was exit 1 with the library's bare "depth must be at least 1"
    err = refused(capsys, 2, *argv, "--depth", "0")
    assert err["type"] == "UsageError" and "--depth" in err["message"]


def test_verify_takes_only_seed_and_deterministic(capsys):
    assert "unrecognized arguments: --depth 3" in usage_error(capsys, "verify", "--depth", "3")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--preset", "ex215", "--samples", "3"),
        ("energy", "--preset", "ex215", "--function", "tent", "--out", "d"),
        ("darn", "--preset", "ex215", "--samples", "3"),
        ("trace", "--preset", "ex215", "--function", "tent", "--samples", "3"),
        ("validate", "--preset", "ex215", "--function", "tent"),
    ],
    ids=["validate-samples", "energy-out", "darn-samples", "trace-samples",
         "validate-function"],
)
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    # each was accepted and ignored
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in usage_error(capsys, *argv)


def test_decompose_samples_is_refused_without_out(capsys):
    # was read, and so refused, only under --out
    message = usage_error(capsys, "decompose", "--preset", "ex215", "--function", "tent",
                          "--samples", "0")
    assert message == "bmext decompose: argument --samples: must be at least 1, got 0"


def test_validate_experiment_carries_a_seed(tmp_path, capsys):
    doc = {"schema": 1, "config": {"intervals": [{"lo": "-inf", "hi": "inf"}]},
           "experiments": [{"command": "validate", "seed": 11}]}
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc), "--experiment", "0")
    assert code == 0
    assert json.loads(out)["parameters"]["seed"] == 11


# the range of each int flag of a scenario command or walk kind (None: every
# int passes the parser, and the command checks it against the configuration)
INT_FLAG_RANGE = {"seed": (0, None), "depth": (0, None), "budget": (1, None),
                  "samples": (1, WORK_BUDGET), "steps": (1, WORK_BUDGET),
                  "cells": (1, WORK_BUDGET), "index": None, "experiment": None}
WALK_KINDS = ("hitting", "path", "trace", "darned")
SCENARIO_COMMANDS = (("validate",), ("energy",), ("decompose",), ("darn",), ("trace",),
                     *(("simulate", kind) for kind in WALK_KINDS))


def _int_flags(command):
    return sorted(dest for dest, action in cli._flags(*command).items()
                  if action.type is not None and type(action.type("7")) is int)


def test_every_int_flag_has_a_stated_bound():
    assert {f for c in SCENARIO_COMMANDS for f in _int_flags(c)} == set(INT_FLAG_RANGE)
    assert _int_flags(("verify",)) == ["seed"]


def _main(argv):
    """Exit code and JSON document of one in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_argv_and_experiments_refuse_the_same_int_values(tmp_path_factory, data):
    command = data.draw(st.sampled_from(SCENARIO_COMMANDS))
    flag = data.draw(st.sampled_from(_int_flags(command)))
    low, high = INT_FLAG_RANGE[flag] or (None, None)
    if flag == "depth" and "trace" in command:
        low = 1
    near = [st.integers(-3, 3).map(lambda d, end=end: end + d) for end in (low, high)
            if end is not None]
    value = data.draw(st.one_of(*near, st.integers(-2**70, 2**70)))
    bound = None  # the parser's message when it refuses the value
    if low is not None and value < low:
        bound = f"must be {'non-negative' if low == 0 else f'at least {low}'}, got {value}"
    elif high is not None and value > high:
        bound = f"must be at most {high}, got {value}"
    # on argv the parser refuses the value, or the command runs far enough to
    # ask for a configuration
    code, doc = _main([*command, f"--{flag}", str(value)])
    assert code == 2
    if bound:
        assert doc["error"]["type"] == "UsageError"
        assert doc["error"]["message"] == (
            f"bmext {' '.join(command)}: argument --{flag}: {bound}")
    else:
        assert doc["error"] == {"type": "ScenarioError",
                                "message": "pass --preset NAME or --scenario PATH"}
    if flag in cli._RUN_FLAGS:
        return
    # in an experiment the same value is refused when the scenario is read
    path = tmp_path_factory.getbasetemp() / "int-flag-scenario.json"
    path.write_text(json.dumps(_experiment(command, **{flag: value})))
    code, doc = _main(["validate", "--scenario", str(path), "--deterministic"])
    if bound:
        assert code == 2 and doc["error"]["type"] == "ScenarioError"
        assert doc["error"]["message"] == f"$.experiments[0].{flag}: --{flag} {bound}"
    else:
        assert code == 0 and doc["result"]["ok"]


# the flags each walk kind reads beyond those every scenario command takes
WALK_FLAGS = {
    "hitting": {"index", "x0", "left", "right", "cells", "samples", "budget"},
    "path": {"index", "x0", "left", "right", "cells", "steps", "out"},
    "trace": {"x0", "mode", "cells", "steps", "out"},
    "darned": {"index", "x0", "steps", "out"},
}
RUN_DESTS = {"help", "seed", "deterministic", "scenario", "preset", "depth", "tol", "experiment"}
# one valid value of each walk flag, for a tiny walk of any kind
WALK_VALUES = {"index": "0", "x0": "0.3333333333333333", "left": "0", "right": "1", "cells": "8",
               "samples": "10", "budget": "100", "steps": "10", "mode": "brownian"}
TINY_WALKS = {
    "hitting": ("--preset", "ex215", "--depth", "4", "--x0", "0.5", "--left", "0",
                "--right", "1", "--samples", "50"),
    "path": ("--preset", "ex215", "--depth", "4", "--x0", "0.5", "--left", "0",
             "--right", "1", "--steps", "50"),
    "trace": ("--preset", "ex218", "--depth", "3", "--x0", "0.3333333333333333",
              "--steps", "50"),
    "darned": ("--preset", "ex215", "--depth", "4", "--steps", "50"),
}
READ = [(kind, flag) for kind in WALK_KINDS for flag in sorted(WALK_FLAGS[kind])]
UNREAD = [(kind, flag) for kind in WALK_KINDS
          for flag in sorted(set().union(*WALK_FLAGS.values()) - WALK_FLAGS[kind])]


def test_each_walk_kind_takes_only_the_flags_it_reads():
    for kind in WALK_KINDS:
        assert set(cli._flags("simulate", kind)) == RUN_DESTS | WALK_FLAGS[kind], kind
    assert (len(READ), len(UNREAD)) == (23, 17)


@pytest.mark.parametrize("kind, flag", READ, ids=[f"{k}-{f}" for k, f in READ])
def test_every_flag_a_walk_kind_reads_runs(tmp_path, capsys, kind, flag):
    value = WALK_VALUES.get(flag, str(tmp_path / "out"))
    code, out = run(capsys, "simulate", kind, *TINY_WALKS[kind], f"--{flag}", value)
    assert code == 0
    if flag == "out":
        assert os.listdir(tmp_path / "out") == [f"sim_{kind}.csv"]


@pytest.mark.parametrize("kind, flag", UNREAD, ids=[f"{k}-{f}" for k, f in UNREAD])
def test_a_flag_the_walk_kind_does_not_read_exits_2(capsys, kind, flag):
    # each was accepted and ignored
    value = WALK_VALUES.get(flag, "d")
    message = usage_error(capsys, "simulate", kind, *TINY_WALKS[kind], f"--{flag}", value)
    assert message == f"bmext: unrecognized arguments: --{flag} {value}"


NO_X0_WINDOW = ("--preset", "ex215", "--left", "0", "--right", "1", "--deterministic")


@pytest.mark.parametrize(
    "argv, flag",
    [
        # was exit 0 with x0_used 0.0: the first grid site stood in for NaN
        (("simulate", "path", *NO_X0_WINDOW, "--x0", "nan", "--steps", "10"), "--x0"),
        # were exit 0 with x0_used 0.0625, the first darned site
        (("simulate", "darned", "--preset", "ex215", "--depth", "4", "--x0", "nan"), "--x0"),
        (("simulate", "darned", "--preset", "ex215", "--depth", "4", "--x0", "inf"), "--x0"),
        # was the whole walk, then exit 1 with json's "Out of range float values"
        (("simulate", "hitting", *NO_X0_WINDOW, "--x0", "nan", "--samples", "100"), "--x0"),
        # was exit 1 with "need lo < hi"
        (("simulate", "hitting", "--preset", "ex215", "--x0", "0.5", "--left", "0",
          "--right", "nan"), "--right"),
        # was numpy RuntimeWarnings, then exit 1 with "sites must be finite"
        (("simulate", "path", "--preset", "ex215", "--x0", "0.5", "--left=-inf",
          "--right", "1"), "--left"),
        # was the whole command, then exit 1 with json's "Out of range float values"
        (("validate", "--preset", "ex215", "--tol", "nan"), "--tol"),
    ],
    ids=["path-x0-nan", "darned-x0-nan", "darned-x0-inf", "hitting-x0-nan",
         "hitting-right-nan", "path-left-inf", "validate-tol-nan"],
)
def test_non_finite_float_flag_exits_2(capsys, argv, flag):
    assert f"argument {flag}: must be a finite number" in usage_error(capsys, *argv)


@pytest.mark.parametrize(
    "where",
    ["FILE", "FILE/sub", "dir"],
    ids=["out-is-a-file", "out-below-a-file", "csv-name-is-a-directory"],
)
def test_out_that_cannot_be_written_exits_1(tmp_path, capsys, where):
    # was FileExistsError (or NotADirectoryError, IsADirectoryError) and a traceback
    (tmp_path / "FILE").write_text("")
    (tmp_path / "dir" / "darn_atoms.csv").mkdir(parents=True)
    err = refused(capsys, 1, "darn", "--preset", "ex215", "--depth", "4",
                  "--out", str(tmp_path / where))
    assert err["type"] == "CommandError"
    assert err["message"].startswith(f"--out {tmp_path / where}: cannot write darn_atoms.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--preset", "ex218", "--depth", "5", "--deterministic"),
        ("validate", "--preset", "nope"),
        ("darn", "--preset", "ex215", "--index", "1"),
    ],
    ids=["result", "usage-refusal", "command-refusal"],
)
def test_closed_stdout_exits_1_with_nothing_on_stderr(argv):
    # was a BrokenPipeError traceback from the print of the result or refusal
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "bmext", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")
