"""Trace energies on the singular skeleton and harmonic interpolation.

Removing every open stretch where the process runs at Brownian rate leaves a
closed set: Cantor remnants of the blocks, boundary-stack zones, included
interval endpoints, and whatever the complement contributes.  A function on
that set carries two natural quadratic energies.  The Brownian one is a pure
jump sum across the finite gaps.  The extension one integrates the squared
singular density against the singular measure and only jumps across gaps
that lie inside an invariant interval, since the extension process never
leaves its interval.  Comparing increments across cells at two resolutions
decides whether the function extends absolutely continuously or genuinely
needs the singular coordinates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .cantor import CantorBlock, check_work, level_count
from .config import ExtensionConfig
from .forms import IntervalPart, PiecewiseFn

__all__ = [
    "TraceStructure",
    "TraceFn",
    "TraceKind",
    "MembershipReport",
    "trace_structure",
    "trace_restriction",
    "harmonic_extension",
    "trace_energy_bm",
    "trace_energy_ext",
    "jump_contributions",
    "trace_membership",
]


def _interval_cells(iv, depth):
    sc = iv.scale
    out = []
    # + 0.0 turns an endpoint -0.0 into 0.0, as the exact value would
    if sc.include_lo:
        out.append((sc.lo + 0.0, sc.lo + 0.0))
    if sc.include_hi:
        out.append((sc.hi + 0.0, sc.hi + 0.0))
    for sup in sc.w_supports(depth):
        if sup.block is None:
            out.append((float(sup.lo), float(sup.hi)))
        else:
            out.extend(sup.block.float_remnants(sup.resolution(depth)))
    return out


@dataclass(frozen=True)
class TraceStructure:
    """Closed cells of the trace set at a working depth, with the gaps between.

    Cells are disjoint closed intervals, possibly degenerate; each gap records
    the index of the invariant interval it lies in, or None when it crosses
    ground outside every interval.
    """

    depth: int
    cells: tuple[tuple[float, float], ...]
    gaps: tuple[tuple[float, float, int | None], ...]
    n_intervals: int

    def span(self) -> tuple[float, float]:
        return self.cells[0][0], self.cells[-1][1]

    def sites(self) -> list[float]:
        """The cell ends in increasing order, each once: the sites of a trace walk."""
        return sorted({x for cell in self.cells for x in cell})


def trace_structure(config: ExtensionConfig, depth: int = 8) -> TraceStructure:
    """Resolve the trace set: all singular support plus retained endpoints."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    comp = config.complement
    # a stack's shells k < depth have 2**max(2, depth - k) remnants each,
    # 2**(depth + 1) in all, and its tail is one more cell
    count = len(comp.points) + len(comp.segments) + sum(level_count(d.depth) for d in comp.dust)
    for iv in config.intervals:
        sc = iv.scale
        count += sc.include_lo + sc.include_hi + len(sc.blocks) * level_count(depth)
        count += len(sc.stacks) * (level_count(depth + 1) + 1)
    check_work(f"the trace set at depth {depth}", count)
    raw = []
    for iv in config.intervals:
        raw.extend(_interval_cells(iv, depth))
    raw.extend((float(Fraction(p)),) * 2 for p in comp.points)
    raw.extend((float(Fraction(a)), float(Fraction(b))) for a, b in comp.segments)
    for d in comp.dust:
        raw.extend(CantorBlock(d.lo, d.hi).float_remnants(d.depth))
    if not raw:
        raise ValueError("the trace set is empty: every point lies on an open Brownian stretch")
    # merge in float resolution: exact and rounded descriptions of the same
    # endpoint must not leave a phantom zero-length gap.  Rounding is
    # monotone, so the rounded ends sort and merge into the same cells as
    # the exact ones would
    raw.sort()
    merged = [list(raw[0])]
    for lo, hi in raw[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    cells = tuple(map(tuple, merged))
    gaps = []
    for (_, h1), (l2, _) in zip(cells, cells[1:]):
        gaps.append((h1, l2, config.locate((h1 + l2) / 2)))
    return TraceStructure(depth, cells, tuple(gaps), len(config.intervals))


@dataclass(frozen=True)
class TraceFn:
    """Function on the trace set: cell endpoint values plus singular densities.

    ``values[i]`` holds the function at the left and right endpoint of cell i;
    ``densities[n]`` is the derivative with respect to the singular coordinate
    of interval n, used by the extension-form energy.
    """

    structure: TraceStructure
    values: tuple[tuple[float, float], ...]
    densities: tuple[float, ...]

    def __post_init__(self):
        st = self.structure
        if len(self.values) != len(st.cells):
            raise ValueError("one value pair per cell is required")
        if len(self.densities) != st.n_intervals:
            raise ValueError("one singular density per interval is required")
        for (lo, hi), (vl, vh) in zip(st.cells, self.values):
            if not (math.isfinite(vl) and math.isfinite(vh)):
                raise ValueError("trace values must be finite")
            if lo == hi and vl != vh:
                raise ValueError(f"point cell at {lo} carries two different values")
        if any(not math.isfinite(d) for d in self.densities):
            raise ValueError("singular densities must be finite")

    def scaled(self, lam: float) -> "TraceFn":
        return TraceFn(
            self.structure,
            tuple((lam * vl, lam * vh) for vl, vh in self.values),
            tuple(lam * d for d in self.densities),
        )


def trace_restriction(config, fn, depth: int = 8, densities=None) -> TraceFn:
    """Sample a function at the cell endpoints of the depth-``depth`` trace set."""
    f = fn.eval if isinstance(fn, PiecewiseFn) else fn
    st = trace_structure(config, depth)
    values = tuple((float(f(lo)), float(f(hi))) for lo, hi in st.cells)
    if densities is None:
        densities = (0.0,) * st.n_intervals
    return TraceFn(st, values, tuple(float(d) for d in densities))


def _jump_terms(tf: TraceFn, form: str) -> list[float]:
    """The summand 0.5 * dv**2 / (gap length) of each gap, in gap order; the
    extension form drops the gaps outside every interval."""
    vals = tf.values
    return [
        0.5 * (dv := right - left) * dv / (ghi - glo)
        for (glo, ghi, inside), (_, left), (right, _) in zip(tf.structure.gaps, vals, vals[1:])
        if form == "brownian" or inside is not None
    ]


def trace_energy_bm(config: ExtensionConfig, tf: TraceFn) -> float:
    """Jump energy of the Brownian trace: half the sum of (dv)^2/gap over gaps."""
    return math.fsum(_jump_terms(tf, "brownian"))


def trace_energy_ext(config: ExtensionConfig, tf: TraceFn) -> float:
    """Extension trace energy: singular term plus in-interval jump sum.

    A nonzero density on an interval whose singular mass is infinite makes
    the singular term diverge, reported as inf.
    """
    w_terms = []
    for n, iv in enumerate(config.intervals):
        d = tf.densities[n]
        if d == 0.0:
            continue
        mass = iv.scale.singular_between(iv.lo, iv.hi)
        if math.isinf(mass):
            return math.inf
        w_terms.append(d * d * mass)
    # halving is exact in binary floating point, so this equals half the plain sums
    return 0.5 * math.fsum(w_terms) + math.fsum(_jump_terms(tf, "extension"))


def jump_contributions(config, tf: TraceFn):
    """Per-gap summands of the Brownian jump energy, as (gap lo, gap hi, contribution)."""
    gaps = tf.structure.gaps
    return [(glo, ghi, c) for (glo, ghi, _), c in zip(gaps, _jump_terms(tf, "brownian"))]


def _cell_mass(config, clo: float, chi: float) -> float:
    """W-mass of [clo, chi], summed over the intervals it meets, each clipped
    to its own closure."""
    return math.fsum(
        iv.scale.singular_between(max(clo, iv.lo), min(chi, iv.hi))
        for iv in config.intervals
        if iv.lo <= chi and clo <= iv.hi
    )


@lru_cache(maxsize=1)
def _cell_masses(config, structure: TraceStructure) -> tuple[float, ...]:
    """The W-mass of every cell of ``structure``, 0.0 for a point cell.

    The last pair is kept: extensions of many functions on one structure,
    as verify's trace check makes, evaluate W once per cell end.
    """
    return tuple(
        0.0 if clo == chi else _cell_mass(config, clo, chi) for clo, chi in structure.cells
    )


def _interp_value(config, tf: TraceFn, lows: list[float], x: float) -> float:
    """The harmonic interpolation evaluated at x: affine across gaps, flat
    beyond the extreme cells, mass-linear inside cells carrying singular mass.
    ``lows`` are the cells' low ends."""
    st = tf.structure
    cells, values = st.cells, tf.values
    if x <= cells[0][0]:
        return values[0][0]
    if x >= cells[-1][1]:
        return values[-1][1]
    # the last cell starting at or below x; x lies in it or in the gap after it
    i = bisect_right(lows, x) - 1
    clo, chi = cells[i]
    if x > chi:
        glo, ghi = chi, cells[i + 1][0]
        vl, vh = values[i][1], values[i + 1][0]
        return vl + (vh - vl) * (x - glo) / (ghi - glo)
    vl, vh = values[i]
    if x == clo or vl == vh:
        return vl
    mass = _cell_masses(config, st)[i]
    if math.isinf(mass):
        raise ValueError("no finite interpolation through an infinite singular stretch")
    if mass > 0.0:
        return vl + (vh - vl) * _cell_mass(config, clo, x) / mass
    return vl + (vh - vl) * (x - clo) / (chi - clo)


def harmonic_extension(config: ExtensionConfig, tf: TraceFn) -> PiecewiseFn:
    """Extend a trace function to the whole state space.

    Affine across every finite gap, constant beyond the extreme cells, and
    through each cell linear in the singular coordinate when the cell carries
    singular mass, linear in space otherwise.  The result agrees with the
    trace values at every resolved cell endpoint.
    """
    st = tf.structure
    cells, values = st.cells, tf.values

    # per-cell and per-gap (u, w) densities
    cell_uw = []
    for (clo, chi), (vl, vh), mass in zip(cells, values, _cell_masses(config, st)):
        dv = vh - vl
        if clo == chi:
            cell_uw.append((0.0, 0.0))
            continue
        if math.isinf(mass):
            if dv != 0.0:
                raise ValueError(
                    "increment across an infinite singular stretch has no "
                    "finite-density representation"
                )
            cell_uw.append((0.0, 0.0))
        elif mass > 0.0:
            cell_uw.append((0.0, dv / mass))
        else:
            cell_uw.append((dv / (chi - clo), 0.0))
    gap_u = []
    for i, (glo, ghi, inside) in enumerate(st.gaps):
        dv = values[i + 1][0] - values[i][1]
        if inside is None and dv != 0.0:
            raise ValueError(
                f"gap ({glo}, {ghi}) lies outside the state space but the "
                "trace values differ across it"
            )
        gap_u.append(dv / (ghi - glo))

    lows = [clo for clo, _ in cells]
    ends = [b for cell in cells for b in cell]

    def span_uw(x: float) -> tuple[float, float]:
        # cell i - 1 is the last starting at or below x
        i = bisect_right(lows, x)
        if i == 0:
            return (0.0, 0.0)
        if x <= cells[i - 1][1]:
            return cell_uw[i - 1]
        return (gap_u[i - 1], 0.0) if i < len(cells) else (0.0, 0.0)

    parts = []
    for iv in config.intervals:
        inside = ends[bisect_right(ends, iv.lo):bisect_left(ends, iv.hi)]
        edges = sorted({iv.lo, iv.hi, *inside})
        pieces = []
        for b1, b2 in zip(edges, edges[1:]):
            mid = b1 + 0.5 * (b2 - b1) if math.isfinite(b1) and math.isfinite(b2) else (
                b2 - 1.0 if math.isfinite(b2) else b1 + 1.0
            )
            u, w = span_uw(mid)
            pieces.append((b1, b2, u, w))
        anchor = _interp_value(config, tf, lows, iv.scale.e)
        parts.append(IntervalPart(anchor, tuple(pieces)))
    return PiecewiseFn(config, tuple(parts))


class TraceKind(Enum):
    BROWNIAN_TRACE = "brownian-trace"
    EXTENSION_TRACE_ONLY = "extension-trace-only"
    NEITHER = "neither"


@dataclass(frozen=True)
class MembershipReport:
    kind: TraceKind
    deficit: float
    fine_ratio: float
    coarse_ratio: float
    bm_energy: float
    ext_energy: float
    note: str


def _ratio(deficit: float, length: float) -> float:
    if deficit == 0.0:
        return 0.0
    if length == 0.0:
        return math.inf
    return deficit * deficit / length


def trace_membership(config, tf: TraceFn, window: tuple[float, float]) -> MembershipReport:
    """Classify a trace function by how its cell increments behave under refinement.

    An absolutely continuous extension gains nothing on the (ideally null)
    trace set, so the total increment picked up inside cells must vanish as
    the cells shrink.  The cheapest absolutely continuous crossing of the
    cells costs deficit^2 / (total cell length); comparing that cost at the
    working resolution against a coarsened one (merging cells across the
    narrowest half of the gaps) decides the trend without leaving this depth.
    """
    w_lo, w_hi = window
    if not (math.isfinite(w_lo) and math.isfinite(w_hi) and w_lo < w_hi):
        raise ValueError("window must be a finite nonempty interval")
    st = tf.structure
    sel = [i for i, (clo, chi) in enumerate(st.cells) if clo >= w_lo and chi <= w_hi]
    if not sel:
        raise ValueError("window contains no trace cells")
    sel = list(range(min(sel), max(sel) + 1))

    deficit = math.fsum(tf.values[i][1] - tf.values[i][0] for i in sel)
    total_len = math.fsum(st.cells[i][1] - st.cells[i][0] for i in sel)
    fine = _ratio(deficit, total_len)

    gap_lens = [st.gaps[i][1] - st.gaps[i][0] for i in sel[:-1]]
    if gap_lens:
        cut = sorted(gap_lens)[len(gap_lens) // 2]
        groups = [[sel[0]]]
        for i, gl in zip(sel[1:], gap_lens):
            if gl <= cut:
                groups[-1].append(i)
            else:
                groups.append([i])
        c_deficit = math.fsum(
            tf.values[g[-1]][1] - tf.values[g[0]][0] for g in groups
        )
        c_len = math.fsum(st.cells[g[-1]][1] - st.cells[g[0]][0] for g in groups)
        coarse = _ratio(c_deficit, c_len)
    else:
        coarse = fine

    bm_e = trace_energy_bm(config, tf)
    ext_e = trace_energy_ext(config, tf)
    absolutely_continuous = fine <= coarse
    if absolutely_continuous and math.isfinite(bm_e):
        kind = TraceKind.BROWNIAN_TRACE
        trend = "vanishes under refinement" if fine < coarse else "stays flat"
        note = (
            f"cell crossing cost {fine:.3e} at depth {st.depth} vs {coarse:.3e} "
            f"coarsened; the increment trapped on the trace set {trend}"
        )
    elif math.isfinite(ext_e):
        kind = TraceKind.EXTENSION_TRACE_ONLY
        note = (
            f"cell crossing cost grows under refinement ({coarse:.3e} -> {fine:.3e}); "
            f"the deficit {deficit:.3e} never telescopes away"
        )
    else:
        kind = TraceKind.NEITHER
        note = "both trace energies diverge or the increments never telescope"
    return MembershipReport(kind, deficit, fine, coarse, bm_e, ext_e, note)
