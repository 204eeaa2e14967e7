"""Seeded operation streams for the three workloads.

Every stream is a closed loop of one client: the next operation is issued
only after the previous one returns.  CLI operations are argv lists for
``bmext.cli.main``; ``{out}`` in an argv stands for a fresh per-operation
CSV directory.

The streams have a fixed composition per run, so that their cost does not
depend on the seed.  In cli-exact every slot's function, interval index and
trace member follow from its position in the round; in cli-walks every
sample and step count is fixed.  The seed picks the order of operations,
where the malformed requests go and their parameters, and in cli-walks the
windows, starting points and walk seeds, except those of the one absorbed
path per round, whose length they would change.  Which slots write CSVs alternates
from round to round, and the run length sets the number of rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

PRESETS = ("ex215", "ex216", "ex217", "ex218", "darning-sojourn")
# presets whose validation is cheap at every depth
CHEAP_PRESETS = ("ex215", "ex216", "ex217")
EXACT_COMMANDS = ("validate", "energy", "decompose", "darn", "trace")
DEPTHS = (4, 5, 6, 7, 8)
FUNCTIONS = ("identity", "cantor", "scale", "tent", "indicator-smoothed")
# staircase functions cost ten times more to trace than the smooth ones, so
# the trace slot's function class is fixed by depth and only the member turns
STAIR = ("cantor", "scale")
SMOOTH = ("identity", "tent", "indicator-smoothed")
DARN_INDICES = {
    "ex215": (0,),
    "ex216": (0, 1),
    "ex217": (1, 2),
    "ex218": (0,),  # no singular part: the expected answer is a JSON refusal
    "darning-sojourn": (1,),
}

# seed-tree seconds per round, used to turn --seconds into a fixed amount of work
EXACT_ROUND_S = 5.0
WALKS_ROUND_S = 3.8


@dataclass
class Op:
    id: int
    kind: str  # "exact", "walk", "malformed" or "check"
    group: str | None
    argv: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def exact_argv(command, preset, depth, function=None, index=None, out=False) -> list:
    argv = [command, "--preset", preset, "--depth", str(depth)]
    if function is not None:
        argv += ["--function", function]
    if index is not None:
        argv += ["--index", str(index)]
    if out:
        argv += ["--out", "{out}"]
    return argv + ["--deterministic"]


def exact_group(command: str) -> str:
    return "forms" if command in ("energy", "decompose") else command


def trace_functions(depth: int) -> tuple:
    return STAIR if depth <= 5 else SMOOTH


def exact_catalogue() -> list:
    """Every exact argv the cli-exact stream and the probes can issue."""
    out = []
    for preset in PRESETS:
        for depth in DEPTHS:
            out.append(exact_argv("validate", preset, depth))
            for command in ("energy", "decompose"):
                out += [exact_argv(command, preset, depth, f) for f in FUNCTIONS]
            for flag in (False, True):
                out += [exact_argv("darn", preset, depth, index=i, out=flag)
                        for i in DARN_INDICES[preset]]
                out += [exact_argv("trace", preset, depth, f, out=flag)
                        for f in trace_functions(depth)]
    return out


def _exact_op(command: str, preset: str, depth: int, pick: int, out: bool) -> Op:
    """One exact request; ``pick`` selects the function, index or trace member."""
    if command == "validate":
        argv = exact_argv(command, preset, depth)
    elif command in ("energy", "decompose"):
        argv = exact_argv(command, preset, depth, FUNCTIONS[pick % len(FUNCTIONS)])
    elif command == "darn":
        indices = DARN_INDICES[preset]
        argv = exact_argv(command, preset, depth, index=indices[pick % len(indices)], out=out)
    else:
        members = trace_functions(depth)
        argv = exact_argv(command, preset, depth, members[pick % len(members)], out=out)
    return Op(0, "exact", exact_group(command), argv)


def _exact_round(r: int) -> list:
    # Latin assignment: each preset meets each depth once per round, and five
    # rounds cover every (preset, command, depth) cell once; the function,
    # index or member turns with the round, so a run's cost is seed-free
    ops = [
        _exact_op(command, preset, DEPTHS[(p + c + r) % len(DEPTHS)], p + c + r,
                  (p + r) % 2 == 0)
        for p, preset in enumerate(PRESETS)
        for c, command in enumerate(EXACT_COMMANDS)
    ]
    # A second Latin pass of the per-call-cost commands (validate, energy,
    # decompose) on the presets where they take about 5 ms.  Without it those
    # calls are 47% of the stream, so the median call sat on the edge of that
    # cluster, and op_p50_ms spread 0.12-0.23 between runs (five seeds each
    # time); with it the median is one of those calls, whose cost is per-call
    # work: argparse, preset build, validation and JSON emit.
    ops += [
        _exact_op(command, preset, DEPTHS[(p + c + r + 2) % len(DEPTHS)], p + c + r + 1, False)
        for p, preset in enumerate(CHEAP_PRESETS)
        for c, command in enumerate(EXACT_COMMANDS[:3])
    ]
    return ops


# -- Monte Carlo walks -------------------------------------------------------------

# closed gap intervals of ex218 (depth >= 2): both ends reflect, so paths run in full
GAPS = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 9), Fraction(2, 9)),
        (Fraction(7, 9), Fraction(8, 9)))
# hitting windows: preset, depth, left end range, width
HITTING_SLOTS = (
    ("ex215", 6, (-0.6, -0.4), 2.0),
    ("ex216", 6, (0.4, 0.6), 1.5),
    ("darning-sojourn", 6, (-0.6, -0.4), 2.0),
    ("ex218", 5, (0.34, 0.36), 0.28),
)


def _num(x: float) -> str:
    return repr(round(x, 4))


def remnant_sites(depth: int) -> list:
    """Trace sites of ex215 and ex218 at a depth: ends of the Cantor remnants."""
    lefts = [0]
    for _ in range(depth):
        lefts = [3 * a for a in lefts] + [3 * a + 2 for a in lefts]
    ends = {Fraction(a, 3**depth) for a in lefts} | {Fraction(a + 1, 3**depth) for a in lefts}
    return sorted(float(x) for x in ends)


def _walk(group: str, argv: list, rng: random.Random, out: bool = False, **params) -> Op:
    argv = argv + ["--seed", str(rng.randrange(2**31))]
    if out:
        argv += ["--out", "{out}"]
    return Op(0, "walk", group, argv + ["--deterministic"], params)


def hitting_op(rng: random.Random, preset: str, depth: int, left_range, width: float,
               samples: int = 18_000) -> Op:
    left = round(rng.uniform(*left_range), 4)
    right = round(left + width, 4)
    x0 = round(left + width * rng.uniform(0.4, 0.6), 4)
    argv = ["simulate", "hitting", "--preset", preset, "--depth", str(depth),
            "--x0", _num(x0), "--left", _num(left), "--right", _num(right),
            "--samples", str(samples)]
    return _walk("hitting", argv, rng, preset=preset, depth=depth,
                 left=left, right=right, x0=x0, samples=samples)


def path_op(rng: random.Random, preset: str, left: float, right: float, out: bool = False,
            depth: int = 5, n: int = 100_000) -> Op:
    x0 = left + (right - left) * rng.uniform(0.3, 0.7)
    argv = ["simulate", "path", "--preset", preset, "--depth", str(depth),
            "--x0", _num(x0), "--left", repr(left), "--right", repr(right), "--steps", str(n)]
    return _walk("path", argv, rng, out, left=left, right=right, steps=n)


def tracewalk_op(rng: random.Random, preset: str, mode: str, x0: float, out: bool = False,
                 depth: int = 5, n: int = 500_000) -> Op:
    argv = ["simulate", "trace", "--preset", preset, "--depth", str(depth), "--mode", mode,
            "--x0", repr(x0), "--steps", str(n)]
    return _walk("tracewalk", argv, rng, out, mode=mode, steps=n)


def darnedwalk_op(rng: random.Random, preset: str, index: int, depth: int, out: bool = False,
                  n: int = 3_000_000) -> Op:
    argv = ["simulate", "darned", "--preset", preset, "--depth", str(depth),
            "--index", str(index), "--steps", str(n)]
    return _walk("darnedwalk", argv, rng, out, steps=n)


def _walks_round(rng: random.Random, r: int) -> list:
    # every walk but the short absorbed path takes about a quarter second, so
    # that the median call sits inside one cluster, not on the edge between
    # two engines' clusters (op_p50_ms spread 0.19 when hitting calls took
    # 0.36 s and darned walks 0.1 s)
    even, odd = r % 2 == 0, r % 2 == 1
    ops = [hitting_op(rng, *slot) for slot in HITTING_SLOTS]
    # long paths between reflecting ends, and a short one that reflects at -1
    # and is absorbed at its right end; only the short one writes its table,
    # since formatting 1e5 rows would outweigh the per-step loop being timed
    for lo, hi in rng.sample(GAPS, 2):
        ops.append(path_op(rng, "ex218", float(lo), float(hi)))
    # an absorbed path's length is random, so its start, end and walk seed
    # follow the round, not the workload seed
    fixed = random.Random(f"absorbed/{r}")
    right = round(fixed.uniform(0.9, 1.1), 4)
    ops.append(path_op(fixed, "darning-sojourn", -1.0, right, True, depth=6))
    sites = remnant_sites(5)
    ops.append(tracewalk_op(rng, "ex218", "extension", float(rng.choice(GAPS)[0]), even))
    ops.append(tracewalk_op(rng, "ex218", "brownian", rng.choice(sites), odd))
    ops.append(tracewalk_op(rng, "ex215", "brownian", rng.choice(sites), even))
    ops.append(darnedwalk_op(rng, "ex215", 0, 6, odd))
    ops.append(darnedwalk_op(rng, "ex216", 1, 5, even))
    ops.append(darnedwalk_op(rng, "darning-sojourn", 1, 6, odd))
    return ops


# -- malformed requests ----------------------------------------------------------------
# Each must exit 1 or 2 with a JSON error; a traceback or an accepted request
# (a silently substituted value) counts as a failed operation.


def exact_malformed(rng: random.Random) -> list:
    return [
        ["darn", "--preset", "ex215", "--index", str(rng.randint(1, 3)), "--deterministic"],
        ["darn", "--preset", "ex215", "--depth", str(-rng.randint(1, 4)), "--deterministic"],
        # the seed tree validates the whole preset before it looks up the
        # function, about 3 s for ex218 at the default depth; a fixed preset
        # keeps that cost the same for every seed, and in view
        ["energy", "--preset", "ex218", "--function", "no-such-function", "--deterministic"],
        ["validate", "--depth", str(rng.choice(DEPTHS)), "--deterministic"],
    ]


def walks_malformed(rng: random.Random) -> list:
    return [
        ["simulate", "path", "--preset", "ex215", "--x0", "0.5", "--left", "0", "--right", "1",
         "--steps", "0", "--deterministic"],
        ["simulate", "darned", "--preset", "ex215", "--index", str(rng.randint(1, 3)),
         "--deterministic"],
        ["simulate", "hitting", "--preset", "ex215", "--x0", "0.5", "--left", "0",
         "--deterministic"],
        ["simulate", "hitting", "--preset", "ex216", "--x0", "0", "--left", "-1",
         "--right", "1", "--deterministic"],
    ]


# -- probes ------------------------------------------------------------------------------
# Fixed calls that time a command on workloads whose stream does not issue
# it.  They run in a process of their own after the workload's, so they add
# nothing to its time, memory or fail ratio.  Each group repeats one call,
# about a second in all, and the groups' calls are interleaved.


def probe_ops() -> dict:
    """Each command group's probe call and how many times it is made."""
    rng = random.Random(0)
    return {
        "validate": (Op(0, "exact", "validate", exact_argv("validate", "ex218", 6)), 8),
        "forms": (Op(0, "exact", "forms", exact_argv("energy", "ex217", 8, "tent")), 200),
        "darn": (Op(0, "exact", "darn", exact_argv("darn", "ex216", 5, index=1)), 10),
        "trace": (Op(0, "exact", "trace", exact_argv("trace", "ex217", 6, "tent")), 8),
        "hitting": (hitting_op(rng, "ex215", 6, (-0.5, -0.5), 2.0, samples=4_000), 8),
        "path": (path_op(rng, "ex218", 1 / 3, 2 / 3, n=50_000), 8),
        "tracewalk": (tracewalk_op(rng, "ex218", "extension", 1 / 3, n=150_000), 8),
        "darnedwalk": (darnedwalk_op(rng, "ex215", 0, 6, n=1_000_000), 14),
    }


def probe_plan(workload: str) -> list:
    """The probe calls for the commands the workload's stream does not issue.

    Each group's calls are spread evenly over the plan, so that a drift in
    the machine's speed while the probes run touches every group alike.
    """
    slots = [
        ((k + 0.5) / reps, Op(0, op.kind, group, op.argv, op.params))
        for group, (op, reps) in probe_ops().items()
        if group not in STREAM_GROUPS[workload]
        for k in range(reps)
    ]
    plan = [op for _, op in sorted(slots, key=lambda slot: slot[0])]
    for i, op in enumerate(plan):
        op.id = i
    return plan


# -- streams -----------------------------------------------------------------------------


def rounds(seconds: float, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def _stream(rng: random.Random, body: list, malformed: list) -> list:
    rng.shuffle(body)
    for argv in malformed:
        body.insert(rng.randint(0, len(body)), Op(0, "malformed", None, argv))
    for i, op in enumerate(body):
        op.id = i
    return body


def cli_exact(seed: int, seconds: float) -> list:
    rng = random.Random(f"cli-exact/{seed}")
    body = [op for r in range(rounds(seconds, EXACT_ROUND_S)) for op in _exact_round(r)]
    return _stream(rng, body, exact_malformed(rng))


def cli_walks(seed: int, seconds: float) -> list:
    rng = random.Random(f"cli-walks/{seed}")
    body = [op for r in range(rounds(seconds, WALKS_ROUND_S)) for op in _walks_round(rng, r)]
    return _stream(rng, body, walks_malformed(rng))


# verify's hitting check is a 3-sigma test; each of these battery seeds passes
# every seeded check on the seed tree, and the workload seed picks one of them
VERIFY_SEEDS = tuple(20260814 + k for k in range(16))


def verify_battery(seed: int, seconds: float) -> list:
    """The ten checks (run together by ``run_all``), then the malformed requests."""
    del seconds  # one pass of the battery is the unit of work
    from bmext.verify import CHECKS

    rng = random.Random(f"verify/{seed}")
    battery_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
    ops = [Op(0, "check", None, [], {"name": name, "seed": battery_seed}) for name, _ in CHECKS]
    ops += [Op(0, "malformed", None, argv) for argv in exact_malformed(rng) + walks_malformed(rng)]
    for i, op in enumerate(ops):
        op.id = i
    return ops


WORKLOADS = {"verify": verify_battery, "cli-exact": cli_exact, "cli-walks": cli_walks}
# the command groups (reported as <group>_ms) that each workload's stream
# issues; the figures of the others come from the probes
STREAM_GROUPS = {
    "verify": (),
    "cli-exact": ("validate", "forms", "darn", "trace"),
    "cli-walks": ("hitting", "path", "tracewalk", "darnedwalk"),
}
