"""The command line's input contract, fuzzed from the parser and the scenario reader.

argv is drawn from ``cli._flags`` for every command and walk kind: each flag
the command reads with a valid, boundary or invalid value, and at times one
flag that only other commands or kinds read.  Whatever is drawn, a run exits
0, 1 or 2 and prints one JSON document with no NaN or Infinity in it, and
nothing on stderr; a flag the command does not read exits 2; and a run that
exits 0 reports back the values it was asked for, unchanged.

Scenario documents are drawn as one mutation of a valid document, at a place
of the reader's schema (``READS``).  Every command refuses each of them with a
JSON error, exit 1 or 2, and nothing on stderr.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import bmext.cli as cli
from bmext.cantor import WORK_BUDGET
from bmext.config import preset
from bmext.forms import named_function


def _leaves() -> list:
    """Every command, and every walk kind of a command that has them."""
    leaves = []
    for command in cli._subcommands(cli._build_parser()):
        kind = cli._flags(command).get("kind")
        leaves += [(command, k) for k in kind.choices] if kind else [(command,)]
    return leaves


LEAVES = _leaves()
# a small run of each command and kind that exits 0 on ex215 (the trace walk on
# ex218): the fuzz sets its flags over these, and the last value of a flag wins
BASES = {
    "energy": ("--function", "tent"),
    "decompose": ("--function", "tent"),
    "trace": ("--function", "tent"),
    "hitting": ("--x0", "0.5", "--left", "0", "--right", "1", "--samples", "5"),
    "path": ("--x0", "0.5", "--left", "0", "--right", "1", "--steps", "5"),
    "darned": ("--steps", "5"),
}
PRESETS = ("ex215", "ex216", "ex218", "darning-sojourn")
# negative values in exponent form and at the float limit among them
POINTS = (("0", "0.1", "0.25", "0.3", "0.3333333333333333", "0.5", "0.71", "1", "-0.0",
           "-0.5", "1.5", "-1e-3", "1e-3", "-1e308", "1e308", "1e300"),
          ("nan", "inf", "-inf", "-1e309", "abc"))
COUNTS = (("1", "2", "5"), ("0", "-1", str(WORK_BUDGET + 1)))
# values of each flag the fuzz sets: valid ones (boundaries among them), and
# ones that the parser or the command refuses
VALUES = {
    "seed": (("0", "1", "7", str(2**64)), ("-1", "1.5")),
    "depth": (("0", "1", "2", "3", "4"), ("-1", "40", str(10**12))),
    "tol": (("0", "1e-9", "-0.0", "1e300"), ("nan", "inf", "-1e-3")),
    "experiment": ((), ("0", "-1")),
    "function": (("tent", "identity", "cantor"), ("nope",)),
    "index": (("0", "1"), ("-1", "2", "7")),
    "samples": COUNTS,
    "steps": COUNTS,
    "cells": (("1", "2", "8", "64"), COUNTS[1]),
    "budget": (("1", "5", "1000"), ("0",)),
    "x0": POINTS,
    "left": POINTS,
    "right": POINTS,
    "mode": (("extension", "brownian"), ("nope",)),
    "out": (("{dir}",), ("{file}/sub",)),
}
# flags the fuzz never sets: --help exits through SystemExit, and every run
# takes its configuration from --preset
NOT_DRAWN = {"help", "scenario", "preset"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise AssertionError(f"the output holds {name}")


def _echoed(doc) -> dict:
    """The values a run's document reports for the flags it was given."""
    params, result = doc["parameters"], doc["result"]
    echo = {k: params[k] for k in ("depth", "seed", "tol", "function", "samples", "steps",
                                   "mode", "index") if k in params}
    if "interval_index" in result:
        echo["index"] = result["interval_index"]
    if "x0_requested" in result:
        echo["x0"] = result["x0_requested"]
    if result.get("kind") in ("hitting", "path"):
        echo["left"], echo["right"] = result["window"]
    return echo


def test_every_leaf_flag_has_values_to_draw():
    flags = {dest for leaf in LEAVES for dest in cli._flags(*leaf)}
    assert flags - NOT_DRAWN - {"deterministic"} == set(VALUES)
    assert len(LEAVES) == 10


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_run_keeps_the_input_contract(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    (base / "file").touch()
    slots = {"dir": str(base / "out"), "file": str(base / "file")}
    leaf = data.draw(st.sampled_from(LEAVES), label="leaf")
    # half the runs draw only valid values, so that many reach exit 0; verify
    # always gets a refusal, so that it never runs its battery, which takes seconds
    refusing = leaf == ("verify",) or data.draw(st.booleans(), label="refusing")
    flags = cli._flags(*leaf)
    own = sorted(d for d in set(flags) - NOT_DRAWN if refusing or d not in VALUES or VALUES[d][0])
    foreign = sorted(set(VALUES) - set(flags))
    argv = [*leaf, *BASES.get(leaf[-1], ())]
    if leaf != ("verify",):
        argv += ["--preset", data.draw(st.sampled_from(PRESETS), label="preset"),
                 "--depth", data.draw(st.sampled_from(VALUES["depth"][0]), label="depth")]
    requested = {}
    for dest in data.draw(st.lists(st.sampled_from(own), unique=True, max_size=4), label="own"):
        if dest == "deterministic":
            argv.append("--deterministic")
            continue
        valid, refused = VALUES[dest]
        pool = valid + refused if refusing else valid
        requested[dest] = data.draw(st.sampled_from(pool), label=dest).format(**slots)
        argv += [f"--{dest}", requested[dest]]
    unread = None
    if refusing:
        some = st.sampled_from(foreign)
        unread = data.draw(some if leaf == ("verify",) else st.none() | some, label="unread")
    if unread is not None:
        # a value the flag would accept, where it has one
        argv += [f"--{unread}", sum(VALUES[unread], ())[0].format(**slots)]

    code, out, err = _run(argv)
    event(f"{leaf[-1]} exit {code}")
    assert code in (0, 1, 2) and err == ""
    doc = json.loads(out, parse_constant=_no_constant)
    if unread is not None:
        assert code == 2 and doc["error"]["type"] == "UsageError"
    if code != 0:
        assert set(doc) == {"error"}
        return
    echo = _echoed(doc)
    for dest, text in requested.items():
        if dest in echo:
            want = (flags[dest].type or str)(text)
            assert echo[dest] == want, (dest, text)
            if isinstance(want, float):
                assert math.copysign(1, echo[dest]) == math.copysign(1, want), (dest, text)
    for path in doc.get("files", {}).values():
        assert path.startswith(requested["out"])


# -- scenario documents ----------------------------------------------------------
# A valid document on each preset, with every field the reader takes, is
# mutated at one place: a value of a JSON kind the reader does not take there,
# an unknown key, a non-finite or out-of-range number, or a hole in a
# function's pieces.  Every command refuses the document as it reads it.

# the JSON kinds the reader takes at each place of a document; [] stands for
# any list item, * for any key of an object
READS = {
    "schema": {"int"},
    "name": {"string"},
    "config": {"object"},
    "config.intervals": {"list"},
    "config.intervals[]": {"object"},
    "config.intervals[].lo": {"int", "float", "string"},
    "config.intervals[].hi": {"int", "float", "string"},
    "config.intervals[].include_lo": {"bool"},
    "config.intervals[].include_hi": {"bool"},
    "config.intervals[].scale": {"object", "null"},
    "config.intervals[].scale.blocks": {"list"},
    "config.intervals[].scale.blocks[]": {"object"},
    "config.intervals[].scale.blocks[].lo": {"int", "float"},
    "config.intervals[].scale.blocks[].hi": {"int", "float"},
    "config.intervals[].scale.blocks[].weight": {"int", "float", "string"},
    "config.intervals[].scale.stack_lo": {"bool", "null"},
    "config.intervals[].scale.stack_hi": {"bool", "null"},
    "config.complement": {"object", "null"},
    "config.complement.points": {"list"},
    "config.complement.points[]": {"int", "float"},
    "config.complement.segments": {"list"},
    "config.complement.segments[]": {"list"},
    "config.complement.segments[][]": {"int", "float"},
    "config.complement.dust": {"list"},
    "config.complement.dust[]": {"object"},
    "config.complement.dust[].lo": {"int", "float"},
    "config.complement.dust[].hi": {"int", "float"},
    "config.complement.dust[].depth": {"int"},
    "functions": {"object"},
    "functions.*": {"list"},
    "functions.*[]": {"object"},
    "functions.*[].anchor": {"int", "float"},
    "functions.*[].pieces": {"list"},
    "functions.*[].pieces[]": {"list"},
    "functions.*[].pieces[][]": {"int", "float", "string"},
    "experiments": {"list"},
    "experiments[]": {"object"},
    "experiments[].*": {"int", "float", "string"},
}
KIND_VALUES = {"bool": True, "int": 3, "float": 0.5, "string": "abc", "list": [], "object": {},
               "null": None}
# what is drawn at a place that takes finite numbers only: NaN, infinities
# and literals beyond the float range, which JSON reads as inf; and NaN at a
# place that takes an interval or piece end, where an infinity may be one
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400")
FINITE_PLACES = {p for p, kinds in READS.items() if kinds == {"int", "float"}}
PIECE_ITEM = "functions.*[].pieces[][]"  # [lo, hi, dx-rate, w-rate]
END_PLACES = {"config.intervals[].lo", "config.intervals[].hi", PIECE_ITEM}
# a block weight is also read from a fraction string
WEIGHTS = NON_FINITE + tuple(json.dumps(s) for s in ("1e400", "-1e400", "1/0", "nan", "inf"))
# a run of each command and walk kind on the document
SCENARIO_RUNS = {
    "validate": ("validate",),
    "energy": ("energy", "--function", "f"),
    "decompose": ("decompose", "--function", "f"),
    "darn": ("darn",),
    "trace": ("trace", "--function", "f"),
    "hitting": ("simulate", "hitting", *BASES["hitting"]),
    "path": ("simulate", "path", *BASES["path"]),
    "trace walk": ("simulate", "trace", "--x0", "0", "--steps", "5"),
    "darned": ("simulate", "darned", *BASES["darned"]),
}


class _Raw:
    """A JSON token written as it stands."""

    def __init__(self, text):
        self.text = text


def _scenario(name: str, depth: int) -> dict:
    config = preset(name, depth=depth)
    tent = named_function(config, "tent")
    return {
        "schema": 1,
        "name": name,
        "config": cli.config_payload(config),
        "functions": {"f": [
            {"anchor": part.anchor_value,
             "pieces": [[cli._num_out(lo), cli._num_out(hi), u, w] for lo, hi, u, w in part.pieces]}
            for part in tent.parts
        ]},
        "experiments": [{"command": "simulate", "kind": "hitting", "x0": 0.5, "left": 0.0,
                         "right": 1.0, "samples": 5, "seed": 3}],
    }


SCENARIOS = {name: _scenario(name, 2) for name in PRESETS + ("ex217",)}


def _places(value, place="", path=()):
    """(place, path) of every value below the document root."""
    if isinstance(value, dict):
        items = [(k, f"{place}.{k}" if place else k) for k in value]
        if place in ("functions", "experiments[]"):
            items = [(k, f"{place}.*") for k in value]
    elif isinstance(value, list):
        items = [(i, f"{place}[]") for i in range(len(value))]
    else:
        return
    for key, sub in items:
        yield sub, (*path, key)
        yield from _places(value[key], sub, (*path, key))


def _dumps(doc) -> str:
    raws = []

    def token(obj):
        raws.append(obj.text)
        return f"@raw{len(raws) - 1}@"

    text = json.dumps(doc, default=token)
    for i, raw in enumerate(raws):
        text = text.replace(json.dumps(f"@raw{i}@"), raw)
    return text


def _mutate(doc, data):
    """One mutation of ``doc`` in place, and a label for it."""
    places = list(_places(doc))
    # pieces that another piece follows
    cuts = [path for p, path in places if p == "functions.*[].pieces[]"
            and path[-1] + 1 < len(_at(doc, path[:-1]))]
    what = data.draw(st.sampled_from(("kind", "unknown", "non-finite", "hole")[:4 if cuts else 3]),
                     label="what")
    if what == "kind":
        place, path = _pick(data, places)
        kind = data.draw(st.sampled_from(sorted(KIND_VALUES.keys() - READS[place])), label="kind")
        value = KIND_VALUES[kind]
    elif what == "unknown":
        objects = [(p, path) for p, path in places if isinstance(_at(doc, path), dict)]
        place, path = _pick(data, [("", ())] + objects)
        path, value = (*path, "colour"), "red"
    elif what == "non-finite":
        numbers = [(p, path) for p, path in places
                   if p in FINITE_PLACES | END_PLACES or p.endswith(".weight")]
        place, path = _pick(data, numbers)
        if place.endswith(".weight"):
            pool = WEIGHTS
        elif place in END_PLACES and not (place == PIECE_ITEM and path[-1] >= 2):
            pool = ("NaN",)
        else:
            pool = NON_FINITE
        value = _Raw(data.draw(st.sampled_from(pool), label="value"))
    else:
        # cut a piece short of the next one
        place, path = PIECE_ITEM, (*data.draw(st.sampled_from(cuts)), 1)
        lo, hi = _at(doc, path[:-1])[:2]
        value = (lo + hi) / 2 if isinstance(lo, float) else hi - 1.0
    _at(doc, path[:-1])[path[-1]] = value
    return f"{what} at {place}"


def _pick(data, places):
    """One of ``places``, its kind of place drawn first, so that rare ones come up."""
    place = data.draw(st.sampled_from(sorted({p for p, _ in places})), label="place")
    return place, data.draw(st.sampled_from([path for p, path in places if p == place]))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_documents_to_fuzz_are_read(tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_text(_dumps(SCENARIOS[name]))
    code, out, err = _run(["validate", "--scenario", str(path), "--deterministic"])
    assert (code, err) == (0, "")
    assert {p for p, _ in _places(SCENARIOS[name])} <= READS.keys()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_malformed_scenario_is_refused(tmp_path_factory, data):
    doc = copy.deepcopy(SCENARIOS[data.draw(st.sampled_from(sorted(SCENARIOS)), label="preset")])
    event(_mutate(doc, data))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(_dumps(doc))
    argv = SCENARIO_RUNS[data.draw(st.sampled_from(sorted(SCENARIO_RUNS)), label="run")]
    code, out, err = _run([*argv, "--scenario", str(path)])
    assert code in (1, 2) and err == ""
    error = json.loads(out, parse_constant=_no_constant)["error"]
    assert error["type"] in ("ScenarioError", "CommandError")
