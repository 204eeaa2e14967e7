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
numbers or exact fraction strings.

The argument parser is the one record of the command surface: the commands,
the walk kinds of simulate (hitting, path, trace and darned, each a parser of
its own), the flags each takes, the values each flag accepts and the handler
that runs it; `bmext <command> [<kind>] --help` prints it.  verify takes only
--seed and --deterministic.  Every other command and kind takes --scenario or
--preset, --depth, --tol, --seed, --experiment and --deterministic, and only
the flags it reads besides.  An experiment's keys are its command's own flags
less the run flags (scenario, preset, depth, tol, out, experiment,
deterministic), each read as that flag reads it; a simulate experiment names
its kind, whose flags it carries, and runs only under that kind.

The parser refuses, with exit code 2, a flag the command or kind does not
take, a --seed or --depth below 0 (below 1 for trace and simulate trace), a
--budget below 1, a --samples, --steps or --cells outside [1, WORK_BUDGET],
and a NaN or infinite --x0, --left, --right or --tol; a scenario is refused
alike when one of its experiments carries such a value.  simulate trace
exits 2 as well on --cells under --mode brownian, set by the command line or
by the experiment it runs, since that walk has no grid.  An --index or
--experiment out of range, or a walk's --x0 outside its window, exits 1 when
the command runs, since that range depends on the configuration.  Schema
violations exit 2 too, semantic failures (overlapping intervals, impossible
requests, an --out that cannot be written) 1.  A closed stdout exits 1 with
nothing on stderr.

Every command prints one JSON document that embeds the scenario hash, the
working depth, and the seed; bulk tables (atoms, paths, occupation counts,
per-gap energies) are written as CSV under --out with the same stamp in a
comment header.  --deterministic drops the wall-clock field, making reruns
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .cantor import WORK_BUDGET, check_work
from .config import (
    DEFAULT_SEED,
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
from .trace import (
    jump_contributions,
    trace_membership,
    trace_restriction,
    trace_structure,
)

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
DEFAULT_DEPTH = 8  # resolution of gap/atom/trace-cell enumeration
DEFAULT_TOL = 1e-9

# flags that choose how a command runs, not what it computes: an experiment
# preloads any other flag of its command
_RUN_FLAGS = {"scenario", "preset", "depth", "tol", "out", "experiment", "deterministic", "help"}


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
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ScenarioError(f"{path}: expected a number or a fraction string")
    try:
        w = Fraction(v)
        float(w)  # the scale reads a block's weight as a float too
    except OverflowError:
        raise ScenarioError(f"{path}: {v!r} is not a finite number in the float range") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return w


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
        lo, hi = _finite(seg[0], spath), _finite(seg[1], spath)
        if not lo < hi:
            raise ScenarioError(f"{spath}: need lo < hi, got [{lo}, {hi}]")
        segments.append((lo, hi))
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
        anchor = _finite(part.get("anchor", 0.0), ppath)
        try:
            parts.append(IntervalPart(anchor, tuple(pieces)))
        except ValueError as exc:
            raise CommandError(f"{ppath}: {exc}") from None
    try:
        return PiecewiseFn(config, tuple(parts))
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}") from None


def _parse_experiment(exp, path: str) -> dict:
    if not isinstance(exp, dict):
        raise ScenarioError(f"{path}: expected an object")
    command = exp.get("command")
    commands = sorted(c for c in _subcommands(_build_parser()) if c != "verify")
    if command not in commands:
        raise ScenarioError(f"{path}.command: expected one of {', '.join(commands)}")
    run = {"command": command}
    flags = _flags(command)
    if "kind" in flags:  # simulate: the kind's parser reads the other keys
        run["kind"] = _flag_value(flags["kind"], exp.get("kind"), f"{path}.kind")
        flags = _flags(command, run["kind"])
    _reject_unknown(exp, flags.keys() - _RUN_FLAGS | run.keys(), path)
    return {
        key: run[key] if key in run else _flag_value(flags[key], value, f"{path}.{key}")
        for key, value in exp.items()
    }


def _flag_value(action: argparse.Action, value, path: str):
    """``value`` as the flag of ``action`` parses it on the command line.

    JSON numbers and strings are read as the flag's text would be, with the
    type and choices of the command's parser; anything the flag refuses
    there (a fractional or negative seed, true, null, an unknown kind) is
    refused here, with the type's own message where it gives one.
    """
    flag = action.option_strings[0] if action.option_strings else action.dest
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ScenarioError(f"{path}: expected a value for {flag}, got {json.dumps(value)}")
    try:
        parsed = (action.type or str)(str(value))
    except argparse.ArgumentTypeError as exc:
        raise ScenarioError(f"{path}: {flag} {exc}") from None
    except ValueError:
        raise ScenarioError(f"{path}: {value!r} is not a valid {flag} value") from None
    if action.choices is not None and parsed not in action.choices:
        raise ScenarioError(
            f"{path}: {flag} must be one of {', '.join(action.choices)}, got {value!r}"
        )
    return parsed


@dataclass(frozen=True)
class Scenario:
    name: str
    config: ExtensionConfig
    functions: dict
    experiments: tuple


def parse_scenario(doc, default_name: str = "scenario") -> Scenario:
    _reject_unknown(doc, ("schema", "name", "config", "functions", "experiments"), "$")
    if isinstance(doc.get("schema"), bool) or doc.get("schema") != SCHEMA_VERSION:
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
        ran = " ".join(filter(None, (exp["command"], exp.get("kind"))))
        asked = " ".join(filter(None, (args.command, getattr(args, "kind", None))))
        if ran != asked:
            raise CommandError(f"experiment {args.experiment} is a {ran!r} run, not {asked!r}")
        for key, value in exp.items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    # defaults apply once the experiment has filled in what it carries: the
    # seed here, each walk size where it is read, as `args.steps or 10_000`
    # (the parser refuses a size below 1)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    return ctx


def _require_valid(ctx: _Context) -> None:
    report = validate(ctx.config)
    if not report.ok:
        raise CommandError("invalid configuration: " + "; ".join(report.errors))


def _valid_context(args) -> _Context:
    """The run's context, once its configuration has passed validate."""
    ctx = _load_context(args)
    _require_valid(ctx)
    return ctx


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


def _emit(args, ctx, command: str, parameters: dict, result: dict, table=None) -> None:
    """Print the command's JSON document, after writing its CSV table under --out.

    ``table`` is (files key, file name, stamp, columns, rows), where ``rows``
    is a callable that builds the table's rows, called only under --out.
    """
    doc = {
        "command": command,
        "scenario": {"name": ctx.name, "source": ctx.source, "sha256": ctx.sha},
        "parameters": {"depth": args.depth, "seed": args.seed, "tol": args.tol,
                       **parameters},
        "result": result,
    }
    if table is not None and args.out:
        key, fname, meta, columns, build_rows = table
        rows = build_rows()
        path = os.path.join(args.out, fname)
        stamp = {"scenario": ctx.sha, "depth": args.depth, "seed": args.seed, **meta}
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write("# " + " ".join(f"{k}={v}" for k, v in stamp.items()) + "\n")
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(rows)
        except OSError as exc:
            raise CommandError(f"--out {args.out}: cannot write {fname}: {exc}") from None
        doc["files"] = {key: path}
    if not args.deterministic:
        doc["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))


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

    def rows():
        # each sample point evaluates f, f1 and f2 piece by piece
        count = args.samples or 101
        pieces = sum(len(part.pieces) for g in (f, f1, f2) for part in g.parts)
        check_work("decompose --samples", count * pieces, "piece evaluations")
        # sample over the hull of the function's finite breakpoints
        pts = [x for part in f.parts for piece in part.pieces for x in piece[:2]
               if math.isfinite(x)]
        w_lo, w_hi = (min(pts), max(pts)) if pts else (0.0, 1.0)
        xs = (w_lo + (w_hi - w_lo) * i / max(count - 1, 1) for i in range(count))
        return [(_fmt(x), _fmt(f(x)), _fmt(f1(x)), _fmt(f2(x)))
                for x in xs if ctx.config.locate(x) is not None]

    _emit(args, ctx, "decompose", {"function": args.function}, result, (
        "values", "decompose_values.csv",
        {"command": "decompose", "function": args.function},
        ("x", "value", "smooth", "complement"), rows,
    ))
    return 0


def cmd_darn(args) -> int:
    ctx = _valid_context(args)
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
    _emit(args, ctx, "darn", {"index": index}, result, (
        "atoms", "darn_atoms.csv", {"command": "darn", "interval": index},
        ("location", "mass", "kind"),
        lambda: [(_fmt(loc), str(mass), kind)
                 for kind, pairs in (("atom", spec.atoms), ("residue", spec.residue))
                 for loc, mass in pairs],
    ))
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
        "energy_bm": _jnum(report.bm_energy),
        "energy_ext": _jnum(report.ext_energy),
        "membership": {
            "kind": report.kind.value,
            "deficit": _jnum(report.deficit),
            "fine_ratio": _jnum(report.fine_ratio),
            "coarse_ratio": _jnum(report.coarse_ratio),
            "note": report.note,
        },
    }
    _emit(args, ctx, "trace", {"function": args.function}, result, (
        "jumps", "trace_jumps.csv",
        {"command": "trace", "function": args.function, "form": "brownian"},
        ("gap_lo", "gap_hi", "contribution"),
        lambda: [(_fmt(a), _fmt(b), _fmt(c)) for a, b, c in jump_contributions(ctx.config, tf)],
    ))
    return 0


# -- simulate ----------------------------------------------------------------------
# Each walk kind's runner is its parser's handler.  The walks need numpy, so
# each runner imports its sim functions when it runs: the exact commands never
# load them.  Looking them up at call time also sees any wrapper put on
# bmext.sim after this module was imported.


def _need(args, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise CommandError(f"simulate {args.kind}: pass --{name}")
    return value


def _hitting_grid(args, ctx):
    from .sim import build_chain, nearest_site, snap_grid

    x0 = _need(args, "x0")
    index = ctx.config.locate(x0) if args.index is None else _index(ctx, args.index)
    if index is None:
        raise CommandError(f"x0={x0} lies in the trap complement;"
                           " pass --index to pick an interval")
    left, right = _need(args, "left"), _need(args, "right")
    grid = snap_grid(left, right, args.cells or 48)
    if not left <= x0 <= right:
        raise CommandError(f"simulate {args.kind}: --x0 {x0} lies outside the window"
                           f" [{left}, {right}]")
    chain = build_chain(ctx.config, index, grid)
    used = float(grid[nearest_site(grid, x0)[0]])
    return index, left, right, grid, chain, x0, used


def _sim_hitting(args) -> int:
    from .sim import hitting_probability, stride_table_entries

    ctx = _valid_context(args)
    # the window's grid has at most cells + 1 sites, each a row of the table
    try:
        check_work("simulate hitting's stride table",
                   stride_table_entries((args.cells or 48) + 1), "table entries")
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    index, left, right, grid, chain, x0, used = _hitting_grid(args, ctx)
    samples = args.samples or 100_000
    est = hitting_probability(
        chain, used, left, right, samples,
        seed=args.seed, budget=args.budget or 10_000_000,
    )
    # the diffusion's exact P(hit left before right) from x0_used: the exact
    # increment of t over [x0_used, right] over that over [left, right],
    # rounded once.  A stacked right end leaves no finite ratio; a stacked
    # left end alone gives 0, or none from the end itself
    scale = ctx.config.interval(index).scale
    stacked_lo = left == scale.lo and scale.stack_lo
    if right == scale.hi and scale.stack_hi or stacked_lo and used == left:
        target = None
    elif stacked_lo:
        target = 0.0
    else:
        (_, _, ln, ld, _, _), (_, _, rn, rd, _, _) = scale.cell_ratios([left, used, right])
        target = rn * ld / (ln * rd + rn * ld)
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
        "target": target,
    }
    _emit(args, ctx, "simulate", {"samples": samples}, result)
    return 0


def _sim_path(args) -> int:
    from .sim import simulate_path

    ctx = _valid_context(args)
    index, left, right, grid, chain, x0, used = _hitting_grid(args, ctx)
    steps = args.steps or 10_000
    sample = simulate_path(chain, used, budget=steps, seed=args.seed)
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
    _emit(args, ctx, "simulate", {"steps": steps}, result, (
        "path", "sim_path.csv",
        {"command": "simulate", "kind": "path", "grid": f"{left}:{right}:{grid.size}"},
        ("step", "site", "time"),
        lambda: [(i, _fmt(site), _fmt(t))
                 for i, (site, t) in enumerate(zip(sample.sites, sample.times))],
    ))
    return 0


def _sim_trace(args) -> int:
    from .sim import simulate_trace_chain

    ctx = _load_context(args)
    mode = args.mode or "extension"
    if mode == "brownian" and args.cells is not None:
        # the brownian chain walks the trace sites themselves, on no grid
        raise UsageError("simulate trace: --mode brownian takes no --cells;"
                         " only the extension chain walks a grid")
    _require_valid(ctx)
    sites = trace_structure(ctx.config, args.depth).sites()
    mu = build_trace_measure(ctx.config)
    x0 = _need(args, "x0")
    steps = args.steps or 100_000
    table = simulate_trace_chain(
        ctx.config, mu, sites, x0, steps, seed=args.seed, mode=mode, cells=args.cells or 16,
    )
    support = table.support()
    result = {
        "kind": "trace",
        "mode": mode,
        "site_count": len(sites),
        "support_count": int(support.size),
        "steps": steps,
    }
    _emit(args, ctx, "simulate", {"steps": steps, "mode": mode}, result, (
        "sites", "sim_trace.csv", {"command": "simulate", "kind": "trace", "mode": mode},
        ("site", "visits", "weight", "frequency"),
        lambda: [(_fmt(s), int(v), _fmt(w), _fmt(fq)) for s, v, w, fq in zip(
            table.sites, table.visits, table.weights, table.frequency)],
    ))
    return 0


def _sim_darned(args) -> int:
    from .sim import nearest_site, simulate_darned

    ctx = _valid_context(args)
    index = _index(ctx, 0 if args.index is None else args.index)
    spec = darn(ctx.config, index, depth=args.depth)
    sites = sorted({float(loc) for loc, _ in spec.atoms})
    if not sites:
        raise CommandError("the darned image has no atoms at this depth")
    x0 = sites[len(sites) // 2] if args.x0 is None else args.x0
    lo, hi = float(spec.image_lo), float(spec.image_hi)
    if not lo <= x0 <= hi:
        raise CommandError(f"simulate darned: --x0 {x0} lies outside the darned image"
                           f" [{lo}, {hi}]")
    x0 = sites[int(nearest_site(sites, x0)[0])]
    steps = args.steps or 100_000
    occ = simulate_darned(spec, sites, x0, steps, seed=args.seed)
    # the walk's exact target: its occupation converges to the normalised site masses
    gap = occ.occupation - occ.site_mass / occ.site_mass.sum()
    result = {
        "kind": "darned",
        "interval_index": index,
        "site_count": len(sites),
        "window": [sites[0], sites[-1]],
        "x0_used": x0,
        "steps": steps,
        "occupation_total": _jnum(float(occ.occupation.sum())),
        "occupation_tv": _jnum(0.5 * math.fsum(abs(gap).tolist())),
    }
    _emit(args, ctx, "simulate", {"steps": steps}, result, (
        "occupation", "sim_darned.csv",
        {"command": "simulate", "kind": "darned", "interval": index},
        ("site", "mass", "visits", "occupation"),
        lambda: [(_fmt(s), _fmt(m), int(v), _fmt(o)) for s, m, v, o in zip(
            occ.sites, occ.site_mass, occ.visits, occ.occupation)],
    ))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    seed = DEFAULT_SEED if args.seed is None else args.seed
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


# a value that starts with "-" and that float() reads: -1, -0.5, -1e-3, -inf
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals raise UsageError, so that main prints them as
    JSON errors (exit 2) like every other refusal; subparsers inherit it.
    Every negative number is a flag's value, not an option: argparse alone
    reads -1e-3 as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse has no public hook for this: its private attribute holds
        # the pattern that tells a negative number from an option.  Were it
        # renamed in a later Python, this line would do nothing and
        # test_negative_float_in_exponent_form_is_a_value would fail there;
        # CI runs the newest Pythons for that.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    """A float flag's value; NaN and the infinities are refused (exit 2)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_in(low: int, high: int | None = None):
    """The type of an int flag that refuses values outside [low, high] (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            bound = "non-negative" if low == 0 else f"at least {low}"
        elif high is not None and value > high:
            bound = f"at most {high}"
        else:
            return value
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")

    parse.__name__ = "int"  # argparse refuses text that int() cannot read as "invalid int value"
    return parse


_NON_NEGATIVE = _int_in(0)
_POSITIVE = _int_in(1)
_WORK = _int_in(1, WORK_BUDGET)  # a count of work items: the walk sizes, the samples

# the flags that some commands and walk kinds take and others do not
_SHARED_FLAGS = {
    "function": {"help": "built-in or scenario-defined name"},
    "index": {"type": int, "help": "interval index"},
    "samples": {"type": _WORK, "help": "walker count / sample point count"},
    "out": {"metavar": "DIR", "help": "directory for CSV tables"},
    "x0": {"type": _finite_float, "help": "starting point"},
    "left": {"type": _finite_float, "help": "left end of the walk's window"},
    "right": {"type": _finite_float, "help": "right end of the walk's window"},
    "cells": {"type": _WORK, "help": "grid cells"},
    "steps": {"type": _WORK, "help": "walk steps"},
    "mode": {"choices": ("extension", "brownian"), "help": "the trace form walked"},
    "budget": {"type": _POSITIVE, "help": "step cap of each hitting walk"},
}


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_NON_NEGATIVE, default=None,
                   help=f"random seed (default {DEFAULT_SEED})")
    p.add_argument("--deterministic", action="store_true",
                   help="omit wall-clock stamps so reruns are byte-identical")


def _add_command(sub, name: str, handler, help: str, *shared: str, depth=_NON_NEGATIVE):
    """A scenario command's or walk kind's parser: the flags every one takes, then ``shared``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    _add_run_options(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--scenario", metavar="PATH", help="scenario file (JSON)")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in configuration")
    p.add_argument("--depth", type=depth, default=DEFAULT_DEPTH,
                   help="enumeration depth for gaps, atoms, and trace cells")
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL,
                   help="tolerance used in yes/no judgements")
    p.add_argument("--experiment", type=int, default=None, metavar="I",
                   help="preload parameters from the scenario's experiment I")
    for flag in shared:
        p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: parsing leaves the parser unchanged, so
    # later calls of main in the same process skip rebuilding the tree
    top = _Parser(
        prog="bmext",
        description="Brownian-motion extensions: scales, energies, darning,"
        " traces, and seeded walks.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    _add_command(sub, "validate", cmd_validate, "check a configuration and report")
    _add_command(sub, "energy", cmd_energy, "energy of a named function", "function")
    _add_command(sub, "decompose", cmd_decompose, "split into smooth and complement parts",
                 "function", "samples", "out")
    _add_command(sub, "darn", cmd_darn, "collapse an interval's singular set", "index", "out")
    _add_command(sub, "trace", cmd_trace, "restrict a function to the trace set",
                 "function", "out", depth=_POSITIVE)

    kinds = sub.add_parser("simulate", help="run a seeded walk").add_subparsers(
        dest="kind", required=True)
    window = ("index", "x0", "left", "right", "cells")
    _add_command(kinds, "hitting", _sim_hitting, "P(hit --left before --right) from --x0",
                 *window, "samples", "budget")
    _add_command(kinds, "path", _sim_path, "one path of the grid walk", *window, "steps", "out")
    _add_command(kinds, "trace", _sim_trace, "the time-changed walk on the trace set",
                 "x0", "mode", "cells", "steps", "out", depth=_POSITIVE)
    _add_command(kinds, "darned", _sim_darned, "the darned process of an interval",
                 "index", "x0", "steps", "out")

    p = sub.add_parser("verify", help="run the self-check battery")
    p.set_defaults(handler=cmd_verify)
    _add_run_options(p)
    return top


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The parsers of ``parser``'s commands or walk kinds, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@functools.cache
def _flags(command: str, kind: str | None = None) -> dict[str, argparse.Action]:
    """The actions of a command's parser, or of its walk kind's, by destination."""
    parser = _subcommands(_build_parser())[command]
    if kind is not None:
        parser = _subcommands(parser)[kind]
    return {action.dest: action for action in parser._actions}


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            code = args.handler(args)
        except ValueError as exc:
            # CommandError and every module-level rejection exit 1; input
            # that cannot be parsed exits 2
            code = 2 if isinstance(exc, (ScenarioError, UsageError)) else 1
            print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                             sort_keys=True, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull, so that
        # the flush at exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
