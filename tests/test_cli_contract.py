"""The command line's input contract, fuzzed from the argument parser itself.

argv is drawn from ``cli._flags`` for every command and walk kind: each flag
the command reads with a valid, boundary or invalid value, and at times one
flag that only other commands or kinds read.  Whatever is drawn, a run exits
0, 1 or 2 and prints one JSON document with no NaN or Infinity in it, and
nothing on stderr; a flag the command does not read exits 2; and a run that
exits 0 reports back the values it was asked for, unchanged.
"""

import contextlib
import io
import json
import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

import bmext.cli as cli
from bmext.cantor import WORK_BUDGET


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
