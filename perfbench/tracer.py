"""Span tracer that wraps bmext's public functions from outside the package.

The package itself carries no tracing code.  ``Tracer.install`` replaces each
function named in ``WRAPPED`` with a timing wrapper: on its defining module,
on every ``bmext`` module that imported it with ``from ... import``, and on
the class for methods.  ``Tracer.uninstall`` puts the originals back.

Spans live in parallel in-memory lists (name, start, end, parent, operation
id) and are written out once, by ``Tracer.dump``, when the run ends.  A
span's self time is its duration minus the durations of its direct children;
calls are sequential, so the self times of one operation's spans add up to
the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np

# layer (bmext module) -> wrapped public functions and methods
WRAPPED = {
    "cantor": ("cantor_fraction", "CantorBlock.gaps", "CantorBlock.remnants"),
    "scale": (
        "ScaleFunction.eval",
        "ScaleFunction.inverse",
        "ScaleFunction.integral_t",
        "ScaleFunction.w_supports",
    ),
    "config": ("preset", "validate", "build_trace_measure"),
    "forms": ("energy", "orthogonal_decompose", "bilinear", "named_function"),
    "darning": ("darn", "energy_equivalence_check"),
    "trace": (
        "trace_structure",
        "trace_restriction",
        "harmonic_extension",
        "trace_membership",
    ),
    "sim": (
        "snap_grid",
        "build_chain",
        "hitting_probability",
        "simulate_path",
        "simulate_trace_chain",
        "simulate_darned",
    ),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, quals in WRAPPED.items() for qual in quals)
WALK_ENGINES = (
    "sim.hitting_probability",
    "sim.simulate_path",
    "sim.simulate_trace_chain",
    "sim.simulate_darned",
)
ROOT = "op"


class _CountingRng:
    """Generator proxy that counts the uniforms drawn through ``random``."""

    def __init__(self, rng, counts: Counter):
        self._rng = rng
        self._counts = counts

    def random(self, size=None, *args, **kwargs):
        self._counts["hitting_draws"] += 1 if size is None else int(np.prod(size))
        return self._rng.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.names = [ROOT, *SPAN_NAMES]
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.child = []  # summed durations of direct children, per span
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        name_id = self.names.index(name)
        names, start, end, parent, ops, child, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.child, self.stack,
        )
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            child.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                end[i] = t1
                p = parent[i]
                if p >= 0:
                    child[p] += t1 - start[i]
            if after is not None:
                after(result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of operation ``op_id``."""
        self.op_id = op_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.op_id = -1

    # -- installing and removing wrappers --------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _after(self, name: str):
        counts = self.counts

        def walk_steps(result):
            counts["walker_steps"] += result.steps

        hooks = {
            "sim.simulate_path": walk_steps,
            "sim.simulate_trace_chain": walk_steps,
            "sim.simulate_darned": walk_steps,
            "darning.darn": lambda r: counts.update(darn_items=len(r.atoms) + len(r.residue)),
            "trace.trace_structure": lambda r: counts.update(trace_cells=len(r.cells)),
        }
        return hooks.get(name)

    def _hitting(self, fn):
        """Hitting estimates carry no step count: count the walkers' uniforms."""
        counts = self.counts
        rngs = np.random

        def counted(*args, **kwargs):
            real = rngs.default_rng
            rngs.default_rng = lambda *a, **k: _CountingRng(real(*a, **k), counts)
            before = counts["hitting_draws"]
            try:
                est = fn(*args, **kwargs)
            finally:
                rngs.default_rng = real
            counts["walker_steps"] += counts["hitting_draws"] - before
            counts["settled"] += est.samples
            counts["excluded"] += est.excluded
            return est

        return functools.wraps(fn)(counted)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bmext" or n.startswith("bmext.")]
        for mod_name, quals in WRAPPED.items():
            mod = importlib.import_module(f"bmext.{mod_name}")
            for qual in quals:
                *path, attr = qual.split(".")
                owner = mod
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                name = f"{mod_name}.{qual}"
                inner = self._hitting(orig) if name == "sim.hitting_probability" else orig
                wrapper = self._wrap(name, inner, self._after(name))
                self._set(owner, attr, wrapper)
                if path:
                    continue  # a method: the class is the only owner
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is orig and other is not owner:
                            self._set(other, key, wrapper)
        self._count_fractions()

    def _count_fractions(self) -> None:
        counts = self.counts
        new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            counts["fraction_new"] += 1
            return new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(counting_new))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading spans ---------------------------------------------------------

    def self_ns(self, i: int) -> int:
        return self.end[i] - self.start[i] - self.child[i]

    def totals(self) -> dict:
        """Per span name: number of calls and summed self time in seconds."""
        calls = Counter()
        self_ns = Counter()
        for i, name_id in enumerate(self.name):
            calls[name_id] += 1
            self_ns[name_id] += self.self_ns(i)
        return {
            self.names[k]: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
            for k in range(len(self.names))
        }

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parent) if p < 0]

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (names table plus columns)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [self.name, self.start, self.end, self.parent, self.op],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
