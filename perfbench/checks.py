"""Output checks: one verdict per operation, None when the output is right.

Exact commands must reproduce, byte for byte, the stdout and CSV files that
``record_refs.py`` recorded for the same argv.  Monte Carlo commands must
land within a stated tolerance of an exact target.  Malformed requests must
be refused with exit code 1 or 2 and a JSON error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs", "exact.json")

# a hitting estimate may sit this many standard errors off its exact target;
# the standard error is the benchmark's own, sqrt(t(1-t)/settled) at target t
HITTING_SIGMAS = 5.0
# at least this share of the requested walks must settle at a window end
HITTING_SETTLED = 0.99
# the start site may sit this share of the window away from the requested x0
HITTING_SNAP = 0.05
SUM_TOL = 1e-9


@dataclass
class Outcome:
    code: int | None
    stdout: str
    error: str | None  # traceback text when an exception escaped main()
    seconds: float
    out_dir: str | None = None
    start: float = 0.0  # perf_counter() when the operation began


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(outcome: Outcome) -> dict:
    """What the references record: exit code and digests of stdout and CSVs."""
    stdout = outcome.stdout
    files = {}
    if outcome.out_dir:
        stdout = stdout.replace(outcome.out_dir, "{out}")
        if os.path.isdir(outcome.out_dir):
            for name in sorted(os.listdir(outcome.out_dir)):
                with open(os.path.join(outcome.out_dir, name), "rb") as fh:
                    files[name] = digest(fh.read())
    return {"exit": outcome.code, "stdout": digest(stdout.encode("utf-8")), "files": files}


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def check_exact(key: str, outcome: Outcome, refs: dict) -> str | None:
    if outcome.error:
        return "traceback: " + outcome.error.strip().splitlines()[-1]
    ref = refs.get(key)
    if ref is None:
        return "no reference output recorded for this request"
    got = fingerprint(outcome)
    if got["exit"] != ref["exit"]:
        return f"exit code {got['exit']}, reference {ref['exit']}"
    if got["stdout"] != ref["stdout"]:
        return "stdout differs from the reference"
    if got["files"] != ref["files"]:
        return "CSV output differs from the reference"
    return None


def check_malformed(outcome: Outcome) -> str | None:
    if outcome.error:
        return "traceback: " + outcome.error.strip().splitlines()[-1]
    if outcome.code not in (1, 2):
        return f"accepted with exit code {outcome.code}"
    try:
        err = json.loads(outcome.stdout)["error"]
        if not (isinstance(err["type"], str) and isinstance(err["message"], str)):
            raise TypeError
    except (ValueError, KeyError, TypeError):
        return "refused without a JSON error"
    return None


# -- Monte Carlo --------------------------------------------------------------------


def _table(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[1:]


def hitting_target(preset: str, depth: int, x0: float, left: float, start: float,
                   right: float):
    """The interval holding x0, and the exact P(hit left before right) from start.

    The interval is the one the preset places the requested x0 in; its scale
    is evaluated at the window ends and at the grid site the walkers started
    from.  Both are None when x0 lies in no interval.
    """
    from bmext.config import preset as make_preset

    config = make_preset(preset, depth=depth)
    index = config.locate(x0)
    if index is None:
        return None, None
    scale = config.interval(index).scale
    tl, tx, tr = (scale.eval(x) for x in (left, start, right))
    return index, (tr - tx) / (tr - tl)


def _check_hitting(r: dict, p: dict, out_dir) -> str | None:
    left, right = p["left"], p["right"]
    if r["samples"] + r["excluded"] != p["samples"]:
        return f"{r['samples']} settled + {r['excluded']} excluded != {p['samples']} requested"
    if r["samples"] < HITTING_SETTLED * p["samples"]:
        return f"only {r['samples']} of {p['samples']} walks settled"
    if r["window"] != [left, right]:
        return f"window {r['window']} != requested"
    # the walkers start from the grid site next to the requested x0
    start = r["x0_used"]
    if not (left < start < right and abs(start - p["x0"]) <= HITTING_SNAP * (right - left)):
        return f"started from {start}, requested {p['x0']} in [{left}, {right}]"
    index, target = hitting_target(p["preset"], p["depth"], p["x0"], left, start, right)
    if index != r["interval_index"]:
        return f"walked interval {r['interval_index']}, but x0 lies in interval {index}"
    se = math.sqrt(target * (1 - target) / r["samples"])
    off = abs(r["estimate"] - target)
    if not off <= HITTING_SIGMAS * se + SUM_TOL:
        return f"estimate {r['estimate']} is {off:.3g} off the scale ratio {target}"
    return None


def _check_path(r: dict, p: dict, out_dir) -> str | None:
    left, right = p["left"], p["right"]
    if r["window"] != [left, right]:
        return f"window {r['window']} != requested"
    if not left <= r["final_site"] <= right:
        return f"final site {r['final_site']} left the window"
    if r["exhausted"]:
        if r["steps"] != p["steps"]:
            return f"ran {r['steps']} steps, {p['steps']} requested"
    elif not (r["steps"] < p["steps"] and r["final_site"] in (left, right)):
        return f"stopped after {r['steps']} steps away from the window ends"
    if out_dir:
        rows = _table(out_dir, "sim_path.csv")
        if len(rows) != r["steps"] + 1:
            return f"path table has {len(rows)} rows for {r['steps']} steps"
        if not all(left <= float(site) <= right for _, site, _ in rows):
            return "the path table leaves the window"
    return None


def _check_tracewalk(r: dict, p: dict, out_dir) -> str | None:
    if r["steps"] != p["steps"] or r["mode"] != p["mode"]:
        return f"ran {r['steps']} steps in {r['mode']} mode, requested {p['steps']} {p['mode']}"
    cap = 2 if p["mode"] == "extension" else r["site_count"]
    if not 1 <= r["support_count"] <= cap:
        return f"support of {r['support_count']} sites, expected 1..{cap}"
    if out_dir:
        rows = _table(out_dir, "sim_trace.csv")
        total = math.fsum(float(fq) for *_, fq in rows)
        if len(rows) != r["site_count"] or abs(total - 1.0) > SUM_TOL:
            return f"visit frequencies sum to {total} over {len(rows)} sites"
    return None


def _check_darnedwalk(r: dict, p: dict, out_dir) -> str | None:
    if r["steps"] != p["steps"]:
        return f"ran {r['steps']} steps, {p['steps']} requested"
    if abs(r["occupation_total"] - 1.0) > SUM_TOL:
        return f"occupation sums to {r['occupation_total']}"
    if out_dir:
        rows = _table(out_dir, "sim_darned.csv")
        total = math.fsum(float(o) for *_, o in rows)
        if len(rows) != r["site_count"] or abs(total - 1.0) > SUM_TOL:
            return f"occupation table sums to {total} over {len(rows)} sites"
        if any(float(m) < 0 for _, m, _, _ in rows):
            return "negative site mass"
    return None


_WALK_CHECKS = {
    "hitting": _check_hitting,
    "path": _check_path,
    "tracewalk": _check_tracewalk,
    "darnedwalk": _check_darnedwalk,
}


def check_walk(group: str, params: dict, outcome: Outcome) -> str | None:
    if outcome.error:
        return "traceback: " + outcome.error.strip().splitlines()[-1]
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.stdout.strip()[:200]}"
    result = json.loads(outcome.stdout)["result"]
    out_dir = outcome.out_dir if outcome.out_dir and os.path.isdir(outcome.out_dir) else None
    return _WALK_CHECKS[group](result, params, out_dir)
