"""Command line: scenario schema, envelopes, CSV tables, exit codes."""

import json
import math
from fractions import Fraction

import pytest

import bmext.cli as cli
from bmext.config import DustSpec, preset
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


def test_deep_scenario_dust_is_accounted_without_its_pieces(tmp_path, capsys, monkeypatch):
    # 2**200 pieces could never be listed; the closed form reads the gap exactly
    def refuse(self):
        raise AssertionError("validate enumerated the dust pieces")

    monkeypatch.setattr(DustSpec, "pieces", refuse)
    doc = _dust_scenario({"lo": 0, "hi": 1, "depth": 200})
    code, out = run(capsys, "validate", "--scenario", write(tmp_path, doc))
    assert code == 1
    assert json.loads(out)["result"]["errors"] == [
        "gap (0.0, 1.0) has length 1.0 but the complement accounts for "
        f"{float(Fraction(2, 3) ** 200)}"
    ]


def test_missing_source_exits_2(capsys):
    code, out = run(capsys, "energy", "--function", "tent")
    assert code == 2
    assert "--preset" in json.loads(out)["error"]["message"]


def test_invalid_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--preset", "nope"])
    assert exc.value.code == 2


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


def test_simulate_hitting_requires_x0(capsys):
    code, out = run(capsys, "simulate", "hitting", "--preset", "ex215")
    assert code == 1
    assert "--x0" in json.loads(out)["error"]["message"]


def test_simulate_without_kind_exits_1(capsys):
    code, out = run(capsys, "simulate", "--preset", "ex215")
    assert code == 1
    assert "kind" in json.loads(out)["error"]["message"]


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


def test_simulate_darned_occupation(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out = run(
        capsys,
        "simulate", "darned", "--preset", "ex215", "--depth", "6",
        "--steps", "20000", "--seed", "9", "--out", str(out_dir), "--deterministic",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["occupation_total"] == 1.0
    lines = (out_dir / "sim_darned.csv").read_text().splitlines()
    assert len(lines) - 2 == doc["result"]["site_count"]


# -- experiments --------------------------------------------------------------------


def test_experiment_preloads_parameters(tmp_path, capsys):
    path = write(tmp_path, MIXED)
    code, out = run(
        capsys, "simulate", "--scenario", path, "--experiment", "0", "--deterministic"
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
        "simulate", "--scenario", path, "--experiment", "0",
        "--samples", "800", "--deterministic",
    )
    assert code == 0
    assert json.loads(out)["parameters"]["samples"] == 800


def test_experiment_command_mismatch_exits_1(tmp_path, capsys):
    path = write(tmp_path, MIXED)
    code, out = run(capsys, "energy", "--scenario", path, "--experiment", "0")
    assert code == 1
    assert "simulate" in json.loads(out)["error"]["message"]


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


def test_verify_takes_only_seed_and_deterministic():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--depth", "3"])
    assert exc.value.code == 2
