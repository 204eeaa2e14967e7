"""Command line around the library: scenario files in, JSON and CSV out.

A scenario file is JSON with this layout (unknown fields are rejected):

    {
      "schema": 1,
      "name": "two-rays",
      "config": {
        "intervals": [
          {"lo": "-inf", "hi": 0.0,
           "include_lo": false, "include_hi": false,
           "scale": {"blocks": [{"lo": -3.0, "hi": -2.0, "weight": "1/2"}],
                     "stack_lo": null, "stack_hi": null}}
        ],
        "complement": {"points": [0.0], "segments": [], "dust": []}
      },
      "functions": {
        "ramp": [{"anchor": 0.0, "pieces": [["-inf", 0.0, 1.0, 0.0]]}]
      },
      "experiments": [
        {"command": "simulate", "kind": "hitting", "x0": 0.25, "seed": 3}
      ]
    }

Intervals are listed in increasing order; function definitions carry one
part per interval, in the same order, as (lo, hi, dx-rate, singular-rate)
cells.  Endpoints accept the strings "inf" and "-inf"; block weights accept
numbers or exact fraction strings.  Schema violations and out-of-range
options (a negative --depth, a count below 1) exit with code 2, semantic
failures (overlapping intervals, impossible requests) with 1.

Every command prints one JSON document that embeds the scenario hash, the
working depth, and the seed; bulk tables (atoms, paths, occupation counts,
per-gap energies) are written as CSV under --out with the same stamp in a
comment header.  --deterministic drops the wall-clock field, making reruns
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import (
    PRESET_NAMES,
    ComplementSpec,
    DustSpec,
    ExtensionConfig,
    IntervalSpec,
    build_trace_measure,
    preset,
    validate,
)
from .darning import darn
from .forms import (
    BUILTIN_NAMES,
    IntervalPart,
    PiecewiseFn,
    bilinear,
    energy,
    in_extended_space,
    is_in_complement,
    named_function,
    orthogonal_decompose,
)
from .scale import make_scale
from .sim import (
    build_chain,
    hitting_probability,
    simulate_darned,
    simulate_path,
    simulate_trace_chain,
    snap_grid,
)
from .trace import (
    jump_contributions,
    trace_energy_bm,
    trace_energy_ext,
    trace_membership,
    trace_restriction,
    trace_structure,
)
from .verify import DEFAULT_SEED, run_all

__all__ = [
    "ScenarioError",
    "UsageError",
    "CommandError",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "config_payload",
    "scenario_hash",
    "main",
]

SCHEMA_VERSION = 1
DEFAULT_DEPTH = 8  # resolution of gap/atom/grid enumeration
DEFAULT_TOL = 1e-9

_COMMANDS = ("validate", "energy", "decompose", "darn", "trace", "simulate", "verify")
_SIM_KINDS = ("hitting", "path", "trace", "darned")

# parameters an experiment entry may preload, per command
_EXPERIMENT_KEYS = {
    "validate": set(),
    "energy": {"function", "seed"},
    "decompose": {"function", "seed", "samples"},
    "darn": {"index", "seed"},
    "trace": {"function", "seed"},
    "simulate": {
        "kind", "x0", "left", "right", "samples", "steps",
        "seed", "index", "mode", "cells", "budget",
    },
}


class ScenarioError(ValueError):
    """The input cannot be parsed against the scenario schema."""


class UsageError(ValueError):
    """An option value that no command accepts."""


class CommandError(ValueError):
    """Well-formed input, but the requested computation cannot proceed."""


# -- scenario schema -----------------------------------------------------------


def _reject_unknown(obj, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise ScenarioError(f"{path}: unknown field(s) {', '.join(extra)}")


def _endpoint(v, path: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise ScenarioError(f"{path}: endpoint string must be 'inf' or '-inf'")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    return float(v)


def _finite(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ScenarioError(f"{path}: expected a finite number")
    return float(v)


def _boolean(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioError(f"{path}: expected true or false")
    return v


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}: expected an integer")
    return v


def _weight(v, path: str) -> Fraction:
    if isinstance(v, bool):
        raise ScenarioError(f"{path}: expected a number or a fraction string")
    if isinstance(v, (int, float, str)):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    raise ScenarioError(f"{path}: expected a number or a fraction string")


def _parse_interval(d, path: str) -> IntervalSpec:
    _reject_unknown(d, ("lo", "hi", "include_lo", "include_hi", "scale"), path)
    for key in ("lo", "hi"):
        if key not in d:
            raise ScenarioError(f"{path}: missing field {key!r}")
    lo = _endpoint(d["lo"], f"{path}.lo")
    hi = _endpoint(d["hi"], f"{path}.hi")
    include_lo = _boolean(d.get("include_lo", False), f"{path}.include_lo")
    include_hi = _boolean(d.get("include_hi", False), f"{path}.include_hi")
    blocks = []
    stack_lo = stack_hi = None
    sc = d.get("scale")
    if sc is not None:
        spath = f"{path}.scale"
        _reject_unknown(sc, ("blocks", "stack_lo", "stack_hi"), spath)
        for i, blk in enumerate(_listed(sc.get("blocks", []), f"{spath}.blocks")):
            bpath = f"{spath}.blocks[{i}]"
            _reject_unknown(blk, ("lo", "hi", "weight"), bpath)
            blocks.append(
                (
                    _finite(blk.get("lo"), f"{bpath}.lo"),
                    _finite(blk.get("hi"), f"{bpath}.hi"),
                    _weight(blk.get("weight", 1), f"{bpath}.weight"),
                )
            )
        if sc.get("stack_lo") is not None:
            stack_lo = _boolean(sc["stack_lo"], f"{spath}.stack_lo")
        if sc.get("stack_hi") is not None:
            stack_hi = _boolean(sc["stack_hi"], f"{spath}.stack_hi")
    try:
        scale = make_scale(lo, hi, include_lo, include_hi, blocks, stack_lo, stack_hi)
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}") from None
    return IntervalSpec(scale)


def _listed(v, path: str) -> list:
    if not isinstance(v, list):
        raise ScenarioError(f"{path}: expected a list")
    return v


def _parse_complement(d, path: str) -> ComplementSpec:
    if d is None:
        return ComplementSpec()
    _reject_unknown(d, ("points", "segments", "dust"), path)
    points = tuple(
        _finite(p, f"{path}.points[{i}]")
        for i, p in enumerate(_listed(d.get("points", []), f"{path}.points"))
    )
    segments = []
    for i, seg in enumerate(_listed(d.get("segments", []), f"{path}.segments")):
        spath = f"{path}.segments[{i}]"
        if not isinstance(seg, list) or len(seg) != 2:
            raise ScenarioError(f"{spath}: expected [lo, hi]")
        segments.append((_finite(seg[0], spath), _finite(seg[1], spath)))
    dust = []
    for i, du in enumerate(_listed(d.get("dust", []), f"{path}.dust")):
        dpath = f"{path}.dust[{i}]"
        _reject_unknown(du, ("lo", "hi", "depth"), dpath)
        lo = _finite(du.get("lo"), f"{dpath}.lo")
        hi = _finite(du.get("hi"), f"{dpath}.hi")
        depth = _integer(du.get("depth"), f"{dpath}.depth")
        if not lo < hi:
            raise ScenarioError(f"{dpath}: need lo < hi, got [{lo}, {hi}]")
        if depth < 0:
            raise ScenarioError(f"{dpath}.depth: must be non-negative, got {depth}")
        dust.append(DustSpec(lo, hi, depth))
    return ComplementSpec(points, tuple(segments), tuple(dust))


def _parse_config(d, name: str, path: str) -> ExtensionConfig:
    _reject_unknown(d, ("intervals", "complement"), path)
    raw = _listed(d.get("intervals"), f"{path}.intervals")
    if not raw:
        raise ScenarioError(f"{path}.intervals: at least one interval is required")
    intervals = [
        _parse_interval(item, f"{path}.intervals[{i}]") for i, item in enumerate(raw)
    ]
    los = [iv.lo for iv in intervals]
    if los != sorted(los):
        raise ScenarioError(
            f"{path}.intervals: list intervals in increasing order so that"
            " function parts line up"
        )
    complement = _parse_complement(d.get("complement"), f"{path}.complement")
    return ExtensionConfig(tuple(intervals), complement, name=name)


def _parse_function(config, spec, path: str) -> PiecewiseFn:
    spec = _listed(spec, path)
    if len(spec) != len(config.intervals):
        raise ScenarioError(
            f"{path}: {len(config.intervals)} part(s) required, got {len(spec)}"
        )
    parts = []
    for i, part in enumerate(spec):
        ppath = f"{path}[{i}]"
        _reject_unknown(part, ("anchor", "pieces"), ppath)
        pieces = []
        for j, cell in enumerate(_listed(part.get("pieces"), f"{ppath}.pieces")):
            cpath = f"{ppath}.pieces[{j}]"
            if not isinstance(cell, list) or len(cell) != 4:
                raise ScenarioError(f"{cpath}: expected [lo, hi, dx-rate, w-rate]")
            pieces.append(
                (
                    _endpoint(cell[0], cpath),
                    _endpoint(cell[1], cpath),
                    _finite(cell[2], cpath),
                    _finite(cell[3], cpath),
                )
            )
        parts.append(IntervalPart(_finite(part.get("anchor", 0.0), ppath), tuple(pieces)))
    try:
        return PiecewiseFn(config, tuple(parts))
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}") from None


def _parse_experiment(exp, path: str) -> dict:
    if not isinstance(exp, dict):
        raise ScenarioError(f"{path}: expected an object")
    command = exp.get("command")
    if command not in _EXPERIMENT_KEYS:
        raise ScenarioError(
            f"{path}.command: expected one of {', '.join(sorted(_EXPERIMENT_KEYS))}"
        )
    allowed = _EXPERIMENT_KEYS[command] | {"command"}
    _reject_unknown(exp, allowed, path)
    for key, value in exp.items():
        if isinstance(value, (dict, list)):
            raise ScenarioError(f"{path}.{key}: expected a scalar")
    return dict(exp)


@dataclass(frozen=True)
class Scenario:
    name: str
    config: ExtensionConfig
    functions: dict
    experiments: tuple


def parse_scenario(doc, default_name: str = "scenario") -> Scenario:
    _reject_unknown(doc, ("schema", "name", "config", "functions", "experiments"), "$")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f"$.schema: expected {SCHEMA_VERSION}")
    name = doc.get("name", default_name)
    if not isinstance(name, str):
        raise ScenarioError("$.name: expected a string")
    if "config" not in doc:
        raise ScenarioError("$.config: missing")
    config = _parse_config(doc["config"], name, "$.config")
    functions = {}
    raw_fns = doc.get("functions", {})
    if not isinstance(raw_fns, dict):
        raise ScenarioError("$.functions: expected an object")
    for fname, spec in raw_fns.items():
        functions[fname] = _parse_function(config, spec, f"$.functions.{fname}")
    experiments = tuple(
        _parse_experiment(exp, f"$.experiments[{i}]")
        for i, exp in enumerate(_listed(doc.get("experiments", []), "$.experiments"))
    )
    return Scenario(name, config, functions, experiments)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from None
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(doc, default_name=stem)


# -- canonical serialization and hashing ----------------------------------------


def _num_out(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def config_payload(config: ExtensionConfig) -> dict:
    """Schema-shaped description of a configuration; parses back identically."""
    intervals = []
    for iv in config.intervals:
        s = iv.scale
        intervals.append(
            {
                "lo": _num_out(iv.lo),
                "hi": _num_out(iv.hi),
                "include_lo": iv.include_lo,
                "include_hi": iv.include_hi,
                "scale": {
                    "blocks": [
                        {
                            "lo": float(b.lo),
                            "hi": float(b.hi),
                            "weight": str(Fraction(b.weight)),
                        }
                        for b in s.blocks
                    ],
                    "stack_lo": s.stack_lo,
                    "stack_hi": s.stack_hi,
                },
            }
        )
    comp = config.complement
    return {
        "intervals": intervals,
        "complement": {
            "points": [float(p) for p in comp.points],
            "segments": [[float(a), float(b)] for a, b in comp.segments],
            "dust": [{"lo": d.lo, "hi": d.hi, "depth": d.depth} for d in comp.dust],
        },
    }


def scenario_hash(config: ExtensionConfig) -> str:
    blob = json.dumps(config_payload(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- shared command plumbing -----------------------------------------------------


@dataclass
class _Context:
    config: ExtensionConfig
    name: str
    source: str
    sha: str
    functions: dict
    experiments: tuple


def _load_context(args) -> _Context:
    if args.depth < 0:
        raise UsageError(f"--depth must be non-negative, got {args.depth}")
    if getattr(args, "scenario", None):
        sc = load_scenario(args.scenario)
        ctx = _Context(
            sc.config, sc.name, "file", scenario_hash(sc.config),
            sc.functions, sc.experiments,
        )
    elif getattr(args, "preset", None):
        cfg = preset(args.preset, depth=args.depth)
        ctx = _Context(cfg, args.preset, "preset", scenario_hash(cfg), {}, ())
    else:
        raise ScenarioError("pass --preset NAME or --scenario PATH")
    if args.experiment is not None:
        if not 0 <= args.experiment < len(ctx.experiments):
            raise CommandError(
                f"experiment index {args.experiment} out of range"
                f" (scenario defines {len(ctx.experiments)})"
            )
        exp = ctx.experiments[args.experiment]
        if exp["command"] != args.command:
            raise CommandError(
                f"experiment {args.experiment} is a {exp['command']!r} run,"
                f" not {args.command!r}"
            )
        for key, value in exp.items():
            if key != "command" and getattr(args, key, None) is None:
                setattr(args, key, value)
    return ctx


def _require_valid(ctx: _Context) -> None:
    report = validate(ctx.config)
    if not report.ok:
        raise CommandError("invalid configuration: " + "; ".join(report.errors))


def _seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else int(args.seed)


def _count(args, name: str, default: int) -> int:
    """A positive count option, or ``default`` when it is not given."""
    value = getattr(args, name)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise UsageError(f"--{name} must be a positive integer, got {value!r}")
    return value


def _index(ctx: _Context, index) -> int:
    """An interval index of the configuration, else a CommandError."""
    count = len(ctx.config.intervals)
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < count:
        raise CommandError(f"interval index {index!r} out of range ({count} intervals)")
    return index


def _resolve_function(ctx: _Context, name) -> PiecewiseFn:
    if not name:
        raise CommandError("pass --function NAME")
    if name in ctx.functions:
        return ctx.functions[name]
    if name not in BUILTIN_NAMES:
        pool = ", ".join(list(ctx.functions) + list(BUILTIN_NAMES))
        raise CommandError(f"unknown function {name!r}; available: {pool}")
    return named_function(ctx.config, name)


def _jnum(x):
    """JSON-safe number: infinities and NaN become strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def _emit(args, ctx, command: str, parameters: dict, result: dict, files=None) -> None:
    doc = {
        "command": command,
        "scenario": {"name": ctx.name, "source": ctx.source, "sha256": ctx.sha},
        "parameters": {"depth": args.depth, "seed": _seed(args), "tol": args.tol,
                       **parameters},
        "result": result,
    }
    if files:
        doc["files"] = files
    if not args.deterministic:
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))


def _write_csv(args, ctx, fname: str, meta: dict, columns, rows) -> str:
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, fname)
    stamp = {"scenario": ctx.sha, "depth": args.depth, "seed": _seed(args), **meta}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in stamp.items()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


# -- commands ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    ctx = _load_context(args)
    report = validate(ctx.config)
    result = {
        "ok": report.ok,
        "errors": report.errors,
        "notes": report.notes,
        "intervals": [iv.describe() for iv in ctx.config.intervals],
        "complement_measure": _jnum(ctx.config.complement.materialized_measure()),
    }
    _emit(args, ctx, "validate", {}, result)
    return 0 if report.ok else 1


def cmd_energy(args) -> int:
    ctx = _load_context(args)
    f = _resolve_function(ctx, args.function)
    _require_valid(ctx)
    result = {
        "function": args.function,
        "energy": _jnum(energy(ctx.config, f)),
        "in_extended_space": in_extended_space(ctx.config, f),
        "in_complement": is_in_complement(ctx.config, f),
    }
    _emit(args, ctx, "energy", {"function": args.function}, result)
    return 0


def cmd_decompose(args) -> int:
    ctx = _load_context(args)
    f = _resolve_function(ctx, args.function)
    _require_valid(ctx)
    f1, f2 = orthogonal_decompose(ctx.config, f)
    e, e1, e2 = (energy(ctx.config, g) for g in (f, f1, f2))
    cross = bilinear(ctx.config, f1, f2)
    finite = all(map(math.isfinite, (e, e1, e2)))
    result = {
        "function": args.function,
        "energy_total": _jnum(e),
        "energy_smooth": _jnum(e1),
        "energy_complement": _jnum(e2),
        "cross_energy": _jnum(cross),
        "orthogonal": abs(cross) <= args.tol,
        "additivity_gap": _jnum(e - e1 - e2) if finite else None,
    }
    files = None
    if args.out:
        # sample over the hull of the function's finite breakpoints
        pts = [
            x
            for part in f.parts
            for piece in part.pieces
            for x in piece[:2]
            if math.isfinite(x)
        ]
        w_lo, w_hi = (min(pts), max(pts)) if pts else (0.0, 1.0)
        count = _count(args, "samples", 101)
        rows = []
        for i in range(count):
            x = w_lo + (w_hi - w_lo) * i / max(count - 1, 1)
            if ctx.config.locate(x) is None:
                continue
            rows.append((_fmt(x), _fmt(f(x)), _fmt(f1(x)), _fmt(f2(x))))
        path = _write_csv(
            args, ctx, "decompose_values.csv",
            {"command": "decompose", "function": args.function},
            ("x", "value", "smooth", "complement"), rows,
        )
        files = {"values": path}
    _emit(args, ctx, "decompose", {"function": args.function}, result, files)
    return 0


def cmd_darn(args) -> int:
    ctx = _load_context(args)
    _require_valid(ctx)
    index = _index(ctx, 0 if args.index is None else args.index)
    spec = darn(ctx.config, index, depth=args.depth)
    at_lo, at_hi = spec.slow_reflection()
    result = {
        "interval_index": spec.interval_index,
        "depth": spec.depth,
        "source": {
            "lo": _jnum(spec.source_lo),
            "hi": _jnum(spec.source_hi),
            "include_lo": spec.include_lo,
            "include_hi": spec.include_hi,
        },
        "image": {"lo": _jnum(spec.image_lo), "hi": _jnum(spec.image_hi)},
        "atom_count": len(spec.atoms),
        "residue_count": len(spec.residue),
        "total_mass": str(spec.total_mass()),
        "slow_reflection": {"lo": at_lo, "hi": at_hi},
    }
    files = None
    if args.out:
        rows = [(_fmt(loc), str(mass), "atom") for loc, mass in spec.atoms]
        rows += [(_fmt(loc), str(mass), "residue") for loc, mass in spec.residue]
        path = _write_csv(
            args, ctx, "darn_atoms.csv",
            {"command": "darn", "interval": index},
            ("location", "mass", "kind"), rows,
        )
        files = {"atoms": path}
    _emit(args, ctx, "darn", {"index": index}, result, files)
    return 0


def _singular_densities(config: ExtensionConfig, f: PiecewiseFn) -> tuple:
    dens = []
    for part, iv in zip(f.parts, config.intervals):
        rates = {w for _, _, _, w in part.pieces if w != 0.0}
        if len(rates) > 1:
            raise CommandError(
                f"interval {iv.describe()} carries a non-constant singular rate;"
                " the trace restriction needs one density per interval"
            )
        dens.append(rates.pop() if rates else 0.0)
    return tuple(dens)


def cmd_trace(args) -> int:
    ctx = _load_context(args)
    f = _resolve_function(ctx, args.function)
    _require_valid(ctx)
    tf = trace_restriction(
        ctx.config, f, depth=args.depth,
        densities=_singular_densities(ctx.config, f),
    )
    st = tf.structure
    report = trace_membership(ctx.config, tf, st.span())
    result = {
        "function": args.function,
        "cell_count": len(st.cells),
        "energy_bm": _jnum(trace_energy_bm(ctx.config, tf)),
        "energy_ext": _jnum(trace_energy_ext(ctx.config, tf)),
        "membership": {
            "kind": report.kind.value,
            "deficit": _jnum(report.deficit),
            "fine_ratio": _jnum(report.fine_ratio),
            "coarse_ratio": _jnum(report.coarse_ratio),
            "note": report.note,
        },
    }
    files = None
    if args.out:
        rows = [
            (_fmt(a), _fmt(b), _fmt(contribution))
            for a, b, contribution in jump_contributions(ctx.config, tf)
        ]
        path = _write_csv(
            args, ctx, "trace_jumps.csv",
            {"command": "trace", "function": args.function, "form": "brownian"},
            ("gap_lo", "gap_hi", "contribution"), rows,
        )
        files = {"jumps": path}
    _emit(args, ctx, "trace", {"function": args.function}, result, files)
    return 0


# -- simulate ----------------------------------------------------------------------


def _need(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise CommandError(f"simulate {args.kind}: pass --{name}")
    return value


def _hitting_grid(args, ctx):
    x0 = float(_need(args, "x0"))
    index = args.index
    if index is None:
        index = ctx.config.locate(x0)
        if index is None:
            raise CommandError(
                f"x0={x0} lies in the trap complement; pass --index to pick"
                " an interval"
            )
    else:
        index = _index(ctx, index)
    left = float(_need(args, "left"))
    right = float(_need(args, "right"))
    cells = _count(args, "cells", 48)
    grid = snap_grid(ctx.config, index, left, right, cells, depth=args.depth)
    chain = build_chain(ctx.config, index, grid)
    used = float(grid[int(np.argmin(np.abs(grid - x0)))])
    return index, left, right, grid, chain, x0, used


def _sim_hitting(args, ctx) -> int:
    seed = _seed(args)
    index, left, right, grid, chain, x0, used = _hitting_grid(args, ctx)
    samples = _count(args, "samples", 100_000)
    est = hitting_probability(
        chain, used, left, right, samples,
        seed=seed, budget=_count(args, "budget", 10_000_000),
    )
    result = {
        "kind": "hitting",
        "interval_index": index,
        "window": [left, right],
        "x0_requested": x0,
        "x0_used": used,
        "grid_sites": int(grid.size),
        "estimate": _jnum(est.estimate),
        "std_error": _jnum(est.std_error),
        "samples": est.samples,
        "excluded": est.excluded,
    }
    _emit(args, ctx, "simulate", {"samples": samples}, result)
    return 0


def _sim_path(args, ctx) -> int:
    seed = _seed(args)
    index, left, right, grid, chain, x0, used = _hitting_grid(args, ctx)
    steps = _count(args, "steps", 10_000)
    sample = simulate_path(chain, used, budget=steps, seed=seed)
    result = {
        "kind": "path",
        "interval_index": index,
        "window": [left, right],
        "x0_used": used,
        "steps": sample.steps,
        "exhausted": sample.exhausted,
        "final_site": float(sample.sites[-1]),
        "elapsed_time": float(sample.times[-1]),
    }
    files = None
    if args.out:
        rows = [
            (i, _fmt(site), _fmt(t))
            for i, (site, t) in enumerate(zip(sample.sites, sample.times))
        ]
        path = _write_csv(
            args, ctx, "sim_path.csv",
            {"command": "simulate", "kind": "path",
             "grid": f"{left}:{right}:{grid.size}"},
            ("step", "site", "time"), rows,
        )
        files = {"path": path}
    _emit(args, ctx, "simulate", {"steps": steps}, result, files)
    return 0


def _sim_trace(args, ctx) -> int:
    seed = _seed(args)
    sites = trace_structure(ctx.config, args.depth).sites()
    mu = build_trace_measure(ctx.config)
    mode = args.mode or "extension"
    x0 = float(_need(args, "x0"))
    steps = _count(args, "steps", 100_000)
    table = simulate_trace_chain(
        ctx.config, mu, sites, x0, steps,
        seed=seed, mode=mode, cells=_count(args, "cells", 16),
    )
    support = table.support()
    result = {
        "kind": "trace",
        "mode": mode,
        "site_count": len(sites),
        "support_count": int(support.size),
        "steps": steps,
    }
    files = None
    if args.out:
        rows = [
            (_fmt(s), int(v), _fmt(w), _fmt(fq))
            for s, v, w, fq in zip(
                table.sites, table.visits, table.weights, table.frequency
            )
        ]
        path = _write_csv(
            args, ctx, "sim_trace.csv",
            {"command": "simulate", "kind": "trace", "mode": mode},
            ("site", "visits", "weight", "frequency"), rows,
        )
        files = {"sites": path}
    _emit(args, ctx, "simulate", {"steps": steps, "mode": mode}, result, files)
    return 0


def _sim_darned(args, ctx) -> int:
    seed = _seed(args)
    index = _index(ctx, 0 if args.index is None else args.index)
    spec = darn(ctx.config, index, depth=args.depth)
    sites = sorted({float(loc) for loc, _ in spec.atoms})
    if not sites:
        raise CommandError("the darned image has no atoms at this depth")
    x0 = sites[len(sites) // 2] if args.x0 is None else float(args.x0)
    x0 = min(sites, key=lambda s: abs(s - x0))
    steps = _count(args, "steps", 100_000)
    occ = simulate_darned(spec, sites, x0, steps, seed=seed)
    result = {
        "kind": "darned",
        "interval_index": index,
        "site_count": len(sites),
        "window": [sites[0], sites[-1]],
        "x0_used": x0,
        "steps": steps,
        "occupation_total": _jnum(float(np.sum(occ.occupation))),
    }
    files = None
    if args.out:
        rows = [
            (_fmt(s), _fmt(m), int(v), _fmt(o))
            for s, m, v, o in zip(occ.sites, occ.site_mass, occ.visits, occ.occupation)
        ]
        path = _write_csv(
            args, ctx, "sim_darned.csv",
            {"command": "simulate", "kind": "darned", "interval": index},
            ("site", "mass", "visits", "occupation"), rows,
        )
        files = {"occupation": path}
    _emit(args, ctx, "simulate", {"steps": steps}, result, files)
    return 0


def cmd_simulate(args) -> int:
    ctx = _load_context(args)
    _require_valid(ctx)
    if args.kind is None:
        raise CommandError(
            f"pass a walk kind ({', '.join(_SIM_KINDS)}) or an experiment"
            " that names one"
        )
    runner = {
        "hitting": _sim_hitting,
        "path": _sim_path,
        "trace": _sim_trace,
        "darned": _sim_darned,
    }[args.kind]
    return runner(args, ctx)


def cmd_verify(args) -> int:
    seed = _seed(args)
    rows = run_all(seed)
    width = max(len(r.name) for r in rows)
    lines = ["bmext verification battery", f"seed={seed}"]
    if not args.deterministic:
        lines.append("ran at " + time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    lines.append("")
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        extra = "" if args.deterministic else f"  [{r.elapsed:.2f}s]"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}{extra}")
    failed = sum(1 for r in rows if not r.passed)
    lines.append("")
    lines.append(f"{len(rows) - failed} passed, {failed} failed")
    print("\n".join(lines))
    return 0 if failed == 0 else 1


# -- argument parsing ---------------------------------------------------------------


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--deterministic", action="store_true",
                   help="omit wall-clock stamps so reruns are byte-identical")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_run_options(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scenario", metavar="PATH", help="scenario file (JSON)")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in configuration")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help="enumeration depth for gaps, atoms, and grids")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance used in yes/no judgements")
    p.add_argument("--samples", type=int, default=None,
                   help="walker count / sample point count")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="directory for CSV tables")
    p.add_argument("--experiment", type=int, default=None, metavar="I",
                   help="preload parameters from the scenario's experiment I")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bmext",
        description="Brownian-motion extensions: scales, energies, darning,"
        " traces, and seeded walks.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration and report")
    _add_common(p)

    p = sub.add_parser("energy", help="energy of a named function")
    _add_common(p)
    p.add_argument("--function", help="built-in or scenario-defined name")

    p = sub.add_parser("decompose", help="split into smooth and complement parts")
    _add_common(p)
    p.add_argument("--function")

    p = sub.add_parser("darn", help="collapse an interval's singular set")
    _add_common(p)
    p.add_argument("--index", type=int, default=None, help="interval index")

    p = sub.add_parser("trace", help="restrict a function to the trace set")
    _add_common(p)
    p.add_argument("--function")

    p = sub.add_parser("simulate", help="run a seeded walk")
    _add_common(p)
    p.add_argument("kind", nargs="?", choices=_SIM_KINDS)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--left", type=float, default=None)
    p.add_argument("--right", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--mode", choices=("extension", "brownian"), default=None)
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("verify", help="run the self-check battery")
    _add_run_options(p)

    return top


_DISPATCH = {
    "validate": cmd_validate,
    "energy": cmd_energy,
    "decompose": cmd_decompose,
    "darn": cmd_darn,
    "trace": cmd_trace,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ScenarioError, UsageError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True, indent=2))
        return 2
    except ValueError as exc:
        # CommandError and every module-level rejection land here
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                         sort_keys=True, indent=2))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
