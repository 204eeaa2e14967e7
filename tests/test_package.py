"""Package surface: the exports, their lazy loading, and ``python -m bmext``."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import bmext
import bmext.cli as cli

ALL = [
    "BUILTIN_NAMES", "CantorBlock", "CheckResult", "ComplementSpec", "CompensatorResult",
    "DEFAULT_SEED", "DarnedSpec", "DegenerateDarning", "DustSpec", "ExtensionConfig",
    "GridChain", "IntervalPart", "IntervalSpec", "McEstimate", "MembershipReport",
    "OccupationStats", "PRESET_NAMES", "PathSample", "PiecewiseFn", "PointClass",
    "ScaleFunction", "TraceFn", "TraceKind", "TraceMeasure", "TraceStructure",
    "ValidationReport", "VisitTable", "bilinear", "build_chain", "build_trace_measure",
    "cantor_eval", "cantor_fraction", "classify_point", "compensator",
    "darn", "darned_energy", "darning_map", "energy", "energy_equivalence_check",
    "harmonic_extension", "hitting_probability", "in_extended_space", "is_in_complement",
    "jump_contributions", "make_scale", "named_function", "orthogonal_decompose", "preset",
    "run_all", "simulate_darned", "simulate_path", "simulate_trace_chain", "snap_grid",
    "trace_energy_bm", "trace_energy_ext", "trace_membership", "trace_restriction",
    "trace_structure", "validate",
]

# the modules that only the walks and the verification battery need
HEAVY = ("numpy", "bmext.sim", "bmext.verify")

LOADED = """
import contextlib, io, json, sys
import bmext, bmext.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = bmext.cli.main([*argv, "--preset", "ex215", "--depth", "4", "--deterministic"])
    assert code == 0, argv

for argv in (["validate"], ["energy", "--function", "tent"],
             ["decompose", "--function", "tent"], ["darn"], ["trace", "--function", "tent"]):
    run(*argv)
exact = [name in sys.modules for name in HEAVY]
run("simulate", "darned", "--steps", "100")
walk = [name in sys.modules for name in HEAVY]
bmext.run_all
print(json.dumps({"exact": exact, "walk": walk, "run_all": [name in sys.modules for name in HEAVY]}))
"""


def python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports bmext from the same place as this one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmext.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, check=True)


def test_exact_commands_load_neither_numpy_nor_the_walks():
    out = python("-c", f"HEAVY = {HEAVY!r}\n{LOADED}").stdout
    assert json.loads(out) == {
        "exact": [False, False, False],
        "walk": [True, True, False],
        "run_all": [True, True, True],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--preset", "ex215", "--deterministic"),
        ("simulate", "darned", "--preset", "ex215", "--depth", "4", "--steps", "100",
         "--deterministic"),
    ],
)
def test_python_dash_m_runs_the_cli(capsys, argv):
    assert cli.main(list(argv)) == 0
    assert python("-m", "bmext", *argv).stdout == capsys.readouterr().out


def test_all_is_unchanged():
    assert bmext.__all__ == ALL


def test_lazy_exports_are_their_modules_objects():
    assert len(bmext._LAZY) == 13
    for name, module in bmext._LAZY.items():
        assert name in ALL
        assert getattr(bmext, name) is getattr(importlib.import_module(f"bmext.{module}"), name)
    assert set(bmext._LAZY) <= set(dir(bmext))
    assert bmext.DEFAULT_SEED is importlib.import_module("bmext.verify").DEFAULT_SEED


def test_star_import_binds_every_name():
    namespace = {}
    exec("from bmext import *", namespace)
    for name in ALL:
        assert namespace[name] is getattr(bmext, name)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bmext.no_such_name  # noqa: B018


def test_every_name_the_benchmark_tracer_wraps_is_an_own_attribute():
    # perfbench/tracer.py reads each name from its module's or class's own
    # __dict__, so deleting or moving one breaks the traced benchmark runs
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, quals in tracer.WRAPPED.items():
        for qual in quals:
            *path, attr = qual.split(".")
            owner = importlib.import_module(f"bmext.{mod_name}")
            for part in path:
                owner = getattr(owner, part)
            if attr not in vars(owner):
                missing.append(f"{mod_name}.{qual}")
    assert missing == []
