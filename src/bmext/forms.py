"""Energy form, membership tests, and the constructive decomposition.

Members of the form domain are stored piecewise: on each invariant interval
a function is an anchor value plus a piecewise-constant density against the
scale measure dt, split into a Lebesgue rate u (the part seen on U, where
dx/dt = 1) and a singular rate w (the part seen on W).  Every integral this
module needs then reduces to finite sums of interval lengths and W-masses,
so energies and decompositions are computed without quadrature.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .cantor import CantorBlock
from .config import ExtensionConfig
from .scale import ScaleFunction

__all__ = [
    "IntervalPart",
    "PiecewiseFn",
    "BUILTIN_NAMES",
    "named_function",
    "energy",
    "bilinear",
    "in_extended_space",
    "is_in_complement",
    "orthogonal_decompose",
    "CompensatorResult",
    "compensator",
]


@dataclass(frozen=True)
class IntervalPart:
    """Restriction of a function to one invariant interval.

    ``pieces`` are (lo, hi, u, w) cells that tile the interval in order;
    u is the density against dx, w the density against the singular part.
    """

    anchor_value: float
    pieces: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        for i, (lo, hi, _, _) in enumerate(self.pieces):
            if not lo < hi:
                raise ValueError(f"piece {i}: empty cell ({lo}, {hi})")
            if i and self.pieces[i - 1][1] != lo:
                raise ValueError(f"piece {i}: cells must tile without holes")


@dataclass(frozen=True)
class PiecewiseFn:
    """Function on the union of invariant intervals, one part per interval."""

    config: ExtensionConfig
    parts: tuple[IntervalPart, ...]

    def __post_init__(self):
        if len(self.parts) != len(self.config.intervals):
            raise ValueError("one part per configuration interval required")
        for part, iv in zip(self.parts, self.config.intervals):
            if part.pieces:
                if part.pieces[0][0] != iv.lo or part.pieces[-1][1] != iv.hi:
                    raise ValueError(f"pieces must span {iv.describe()}")

    def eval(self, x: float) -> float:
        """Value at x; raises when x lies in no invariant interval."""
        idx = self.config.locate(x)
        if idx is None:
            raise ValueError(f"{x} lies in the trap complement; no value defined")
        part = self.parts[idx]
        scale = self.config.interval(idx).scale
        e = scale.e
        if x == e:
            return part.anchor_value
        lo_q, hi_q = (e, x) if x > e else (x, e)
        acc = part.anchor_value
        sign = 1.0 if x > e else -1.0
        for lo, hi, u, w in part.pieces:
            a, b = max(lo, lo_q), min(hi, hi_q)
            if b <= a:
                continue
            step = 0.0
            if u:
                step += u * (b - a)
            if w:
                step += w * scale.singular_between(a, b)
            acc += sign * step
        return acc

    __call__ = eval

    def _zip_pieces(self, other: "PiecewiseFn"):
        """Common refinement of both tilings, per interval, as (lo, hi, ua, wa, ub, wb) cells.

        The cuts refine each part's tiling, so a cell lies in the last piece
        starting at or below its low end, found by bisection; an empty part
        reads rates 0 everywhere.
        """
        for pa, pb in zip(self.parts, other.parts):
            cuts = sorted({x for lo, hi, _, _ in pa.pieces + pb.pieces for x in (lo, hi)})
            cells = list(zip(cuts, cuts[1:]))
            for part in (pa, pb):
                lows = [lo for lo, _, _, _ in part.pieces]
                cells = [cell + (part.pieces[bisect_right(lows, cell[0]) - 1][2:] if lows
                                 else (0.0, 0.0)) for cell in cells]
            yield pa, pb, cells

    def _combine(self, other: "PiecewiseFn", cu: float, cv: float) -> "PiecewiseFn":
        if self.config is not other.config and self.config != other.config:
            raise ValueError("operands live on different configurations")
        parts = []
        for pa, pb, cells in self._zip_pieces(other):
            pieces = tuple(
                (lo, hi, cu * ua + cv * ub, cu * wa + cv * wb)
                for lo, hi, ua, wa, ub, wb in cells
            )
            parts.append(IntervalPart(cu * pa.anchor_value + cv * pb.anchor_value, pieces))
        return PiecewiseFn(self.config, tuple(parts))

    def __add__(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self._combine(other, 1.0, 1.0)

    def __sub__(self, other: "PiecewiseFn") -> "PiecewiseFn":
        return self._combine(other, 1.0, -1.0)

    def __mul__(self, scalar: float) -> "PiecewiseFn":
        parts = tuple(
            IntervalPart(
                scalar * p.anchor_value,
                tuple((lo, hi, scalar * u, scalar * w) for lo, hi, u, w in p.pieces),
            )
            for p in self.parts
        )
        return PiecewiseFn(self.config, parts)

    __rmul__ = __mul__


# -- built-in functions ------------------------------------------------------

BUILTIN_NAMES = ("identity", "cantor", "scale", "tent", "indicator-smoothed")


def _tent(x: float) -> float:
    return max(0.0, 1.0 - abs(x))


def _indicator_smoothed(x: float) -> float:
    # ramps on [-2,-1] and [1,2] around the plateau 1 on [-1,1]
    a = abs(x)
    if a <= 1.0:
        return 1.0
    if a >= 2.0:
        return 0.0
    return 2.0 - a


def _from_x_slopes(config: ExtensionConfig, slopes, value_at) -> PiecewiseFn:
    """Absolutely continuous builder: u from ``slopes`` cells, w = 0.

    ``slopes`` is a global list of (lo, hi, u); u = 0 outside.
    """
    parts = []
    for iv in config.intervals:
        cuts = {iv.lo, iv.hi}
        for lo, hi, _ in slopes:
            if iv.lo < lo < iv.hi:
                cuts.add(lo)
            if iv.lo < hi < iv.hi:
                cuts.add(hi)
        grid = sorted(cuts)
        pieces = []
        for lo, hi in zip(grid, grid[1:]):
            u = 0.0
            for slo, shi, s in slopes:
                if slo <= lo and hi <= shi:
                    u = s
                    break
            pieces.append((lo, hi, u, 0.0))
        parts.append(IntervalPart(value_at(iv.scale.e), tuple(pieces)))
    return PiecewiseFn(config, tuple(parts))


def named_function(config: ExtensionConfig, name: str) -> PiecewiseFn:
    """Built-ins accepted by the command line and used throughout the tests."""
    if name == "identity":
        parts = tuple(
            IntervalPart(iv.scale.e, ((iv.lo, iv.hi, 1.0, 0.0),)) for iv in config.intervals
        )
        return PiecewiseFn(config, parts)
    if name == "cantor":
        # accumulated singular mass: on a unit-block line this is the
        # Cantor function itself
        parts = tuple(
            IntervalPart(0.0, ((iv.lo, iv.hi, 0.0, 1.0),)) for iv in config.intervals
        )
        return PiecewiseFn(config, parts)
    if name == "scale":
        parts = tuple(
            IntervalPart(0.0, ((iv.lo, iv.hi, 1.0, 1.0),)) for iv in config.intervals
        )
        return PiecewiseFn(config, parts)
    if name == "tent":
        return _from_x_slopes(config, [(-1.0, 0.0, 1.0), (0.0, 1.0, -1.0)], _tent)
    if name == "indicator-smoothed":
        return _from_x_slopes(
            config, [(-2.0, -1.0, 1.0), (1.0, 2.0, -1.0)], _indicator_smoothed
        )
    raise ValueError(f"unknown function {name!r}; available: {', '.join(BUILTIN_NAMES)}")


# -- energy and membership ---------------------------------------------------


def _check_aligned(config: ExtensionConfig, f: PiecewiseFn) -> None:
    if f.config is not config and f.config != config:
        raise ValueError("function was built for a different configuration")


def energy(config: ExtensionConfig, f: PiecewiseFn) -> float:
    """Half the dt-integral of the squared density, summed over intervals.

    Returns math.inf when any piece has non-square-integrable density, e.g.
    a nonzero Lebesgue rate on an unbounded cell or a nonzero singular rate
    against a boundary stack.
    """
    _check_aligned(config, f)
    terms = []
    for part, iv in zip(f.parts, config.intervals):
        scale = iv.scale
        for lo, hi, u, w in part.pieces:
            if u:
                leb = hi - lo
                if not math.isfinite(leb):
                    return math.inf
                terms.append(u * u * leb)
            if w:
                m = scale.singular_between(lo, hi)
                if not math.isfinite(m):
                    return math.inf
                terms.append(w * w * m)
    return 0.5 * math.fsum(terms)


def bilinear(config: ExtensionConfig, f: PiecewiseFn, g: PiecewiseFn) -> float:
    """The energy form evaluated on a pair, over the common refinement."""
    _check_aligned(config, f)
    _check_aligned(config, g)
    terms = []
    for (pa, pb, cells), iv in zip(f._zip_pieces(g), config.intervals):
        for lo, hi, ua, wa, ub, wb in cells:
            if ua and ub:
                terms.append(ua * ub * (hi - lo))
            if wa and wb:
                terms.append(wa * wb * iv.scale.singular_between(lo, hi))
    try:
        return 0.5 * math.fsum(terms)
    except ValueError:
        # fsum meets both +inf and -inf: cells of infinite measure where
        # both functions carry a rate, so both energies are infinite
        raise ValueError(
            "bilinear: the form is undefined here: both energies are infinite,"
            " and the pair's terms reach both +inf and -inf"
        ) from None


def in_extended_space(config: ExtensionConfig, f: PiecewiseFn) -> bool:
    """Finite values and finite energy; absolute continuity is structural."""
    _check_aligned(config, f)
    if any(not math.isfinite(p.anchor_value) for p in f.parts):
        return False
    return math.isfinite(energy(config, f))


def is_in_complement(config: ExtensionConfig, f: PiecewiseFn) -> bool:
    """True when no cell carries a Lebesgue rate: f is invisible to H1."""
    _check_aligned(config, f)
    return all(u == 0.0 for p in f.parts for _, _, u, _ in p.pieces)


# -- constructive decomposition ----------------------------------------------


def orthogonal_decompose(
    config: ExtensionConfig, f: PiecewiseFn
) -> tuple[PiecewiseFn, PiecewiseFn]:
    """Split f into an absolutely continuous part and a complement part.

    f1 collects the Lebesgue rates: on each bounded interval the mean rate
    is subtracted so the local primitive vanishes at both endpoints, and the
    subtracted means are restored by one global primitive taken from 0.  f2
    is the remainder; it carries the singular rates plus per-interval
    constants and pays no energy against any absolutely continuous function.
    The additive constant is fixed by f1 = 0 at the first interval's anchor.
    """
    _check_aligned(config, f)

    # mean Lebesgue rate per bounded interval; 0 on unbounded ones
    flat: list[tuple[float, float, float]] = []
    c1: list[float] = []
    for part, iv in zip(f.parts, config.intervals):
        if iv.bounded:
            m = math.fsum(u * (hi - lo) for lo, hi, u, _ in part.pieces)
            c = m / iv.length
        else:
            c = 0.0
        c1.append(c)
        if c:
            flat.append((iv.lo, iv.hi, c))

    # the lows, and the running maximum of the highs: both non-decreasing
    lows = [lo for lo, _, _ in flat]
    reach = list(accumulate((hi for _, hi, _ in flat), max))

    def global_ramp(x: float) -> float:
        # primitive of the piecewise-constant mean-rate profile, from 0; the
        # intervals before the first whose reach passes lo_q, and those from
        # the first starting at or past hi_q on, cannot meet [lo_q, hi_q]
        lo_q, hi_q = (0.0, x) if x >= 0.0 else (x, 0.0)
        s = math.fsum(
            c * (min(hi, hi_q) - max(lo, lo_q))
            for lo, hi, c in flat[bisect_right(reach, lo_q):bisect_left(lows, hi_q)]
            if min(hi, hi_q) > max(lo, lo_q)
        )
        return s if x >= 0.0 else -s

    parts1 = []
    for part, iv, c in zip(f.parts, config.intervals, c1):
        scale = iv.scale
        # local primitive of (u - c) from the natural base point: a finite
        # endpoint when one exists, the anchor on the whole line
        base = next((end for end in (iv.lo, iv.hi) if math.isfinite(end)), scale.e)
        lo_q, hi_q = (base, scale.e) if scale.e >= base else (scale.e, base)
        local = math.fsum(
            (u - c) * (min(hi, hi_q) - max(lo, lo_q))
            for lo, hi, u, _ in part.pieces
            if min(hi, hi_q) > max(lo, lo_q)
        )
        if scale.e < base:
            local = -local
        anchor1 = local + global_ramp(scale.e)
        pieces1 = tuple((lo, hi, u, 0.0) for lo, hi, u, _ in part.pieces)
        parts1.append(IntervalPart(anchor1, pieces1))

    shift = parts1[0].anchor_value
    parts1 = [IntervalPart(p.anchor_value - shift, p.pieces) for p in parts1]
    f1 = PiecewiseFn(config, tuple(parts1))

    parts2 = tuple(
        IntervalPart(
            pf.anchor_value - p1.anchor_value,
            tuple((lo, hi, 0.0, w) for lo, hi, _, w in pf.pieces),
        )
        for pf, p1 in zip(f.parts, parts1)
    )
    return f1, PiecewiseFn(config, parts2)


# -- compensators --------------------------------------------------------------


@dataclass(frozen=True)
class CompensatorResult:
    """Boundary patch with a certified smallness bound.

    ``e1_bound`` dominates form energy plus squared L2 norm; the deep-stack
    case is parameterized in scale coordinates because its x-breakpoints can
    lie closer to the boundary than float spacing allows.
    """

    case: str
    boundary: float
    height: float
    e1_bound: float
    budget: float
    support: tuple[float, float]
    _eval: object

    def eval(self, x: float) -> float:
        return self._eval(x)

    __call__ = eval

    def certified(self) -> bool:
        return self.e1_bound < self.budget


# gap levels of the cantor-plateau staircase
_PLATEAU_DEPTH = 8


def _zero_compensator(case, c, eps, n) -> CompensatorResult:
    return CompensatorResult(case, c, 0.0, 0.0, eps / (2 * n), (c, c), lambda x: 0.0)


def _open_boundary(scale: ScaleFunction, c, h, eps, n) -> CompensatorResult:
    at_lo = c == scale.lo and scale.stack_lo
    at_hi = c == scale.hi and scale.stack_hi
    if not (at_lo or at_hi):
        raise ValueError(
            "open-boundary compensator needs an excluded stacked endpoint at c"
        )
    # footprint small enough that the L2 term costs at most eps/(8n), and a
    # scale-length run long enough that the ramp energy costs eps/(16n)
    width = eps / (8 * n * h * h)
    other = scale.hi if at_lo else scale.lo
    if math.isfinite(other):
        width = min(width, abs(other - c) / 2)
    ramp_len = 8 * h * h * n / eps
    if at_lo:
        edge = c + width
        t_edge = scale.eval(edge)
        t_full = t_edge - ramp_len

        def phi(x: float) -> float:
            if x < c or x > edge:
                return h if x == c else 0.0
            tx = scale.eval(x)
            if tx <= t_full:
                return h
            return h * (t_edge - tx) / ramp_len

        support = (c, edge)
    else:
        edge = c - width
        t_edge = scale.eval(edge)
        t_full = t_edge + ramp_len

        def phi(x: float) -> float:
            if x > c or x < edge:
                return h if x == c else 0.0
            tx = scale.eval(x)
            if tx >= t_full:
                return h
            return h * (tx - t_edge) / ramp_len

        support = (edge, c)
    form_term = 0.5 * h * h / ramp_len
    l2_term = h * h * width
    bound = form_term + l2_term
    return CompensatorResult("open-boundary", c, h, bound, eps / (2 * n), support, phi)


def _cantor_plateau(c, h, eps, n, beta) -> CompensatorResult:
    if beta is None:
        raise ValueError("cantor-plateau compensator needs beta")
    # the mirrored Cantor function 1 - C, spread over [c, c + beta]: plateau i
    # spans the unit gap between remnants i and i + 1, at value 1 - (i + 1) / 256
    unit = CantorBlock(0, 1).float_remnants(_PLATEAU_DEPTH)
    ends = [c + beta * x for pair in unit for x in pair]
    lows, highs = ends[1:-1:2], ends[2::2]
    values = [(len(lows) - i) / (len(lows) + 1) for i in range(len(lows))]
    if not all(lo < hi for lo, hi in zip(lows, highs)):
        raise ValueError(f"beta={beta} leaves no room for the plateaus at c={c}")

    def phi(x: float) -> float:
        if not c <= x <= c + beta:
            return 0.0
        # the first plateau ending at or after x holds x, or follows it
        i = bisect_left(highs, x)
        if i < len(lows) and lows[i] <= x:
            return h * values[i]
        left_x, left_v = (highs[i - 1], values[i - 1]) if i else (c, 1.0)
        right_x, right_v = (lows[i], values[i]) if i < len(lows) else (c + beta, 0.0)
        frac = (x - left_x) / (right_x - left_x)
        return h * (left_v + frac * (right_v - left_v))

    # constant on every state-space cell, so the form energy vanishes and
    # only the L2 mass over the cells remains
    l2 = math.fsum(v**2 * (hi - lo) for lo, hi, v in zip(lows, highs, values))
    bound = h * h * l2
    budget = eps / (2 * n)
    if bound >= budget:
        raise ValueError(
            f"support too wide: L2 bound {bound:.6g} is not below {budget:.6g};"
            " shrink beta"
        )
    return CompensatorResult(
        "cantor-plateau", c, h, bound, budget, (c, c + beta), phi
    )


def compensator(
    case: str,
    scale: ScaleFunction | None,
    c: float,
    h: float,
    eps: float,
    n: int,
    beta: float | None = None,
) -> CompensatorResult:
    """Patch of height h at c whose combined energy stays below eps/(2n).

    'open-boundary' rides the scale into a boundary stack, so it needs the
    scale; 'cantor-plateau' is a scaled staircase over the middle-thirds
    gaps of levels up to ``_PLATEAU_DEPTH``, spread over [c, c + beta].
    """
    if eps <= 0 or n < 1:
        raise ValueError("need eps > 0 and n >= 1")
    if h < 0:
        raise ValueError("need h >= 0")
    if case == "open-boundary":
        if h == 0.0:
            return _zero_compensator(case, c, eps, n)
        if scale is None:
            raise ValueError("open-boundary compensator needs the scale")
        return _open_boundary(scale, c, h, eps, n)
    if case == "cantor-plateau":
        if h == 0.0:
            return _zero_compensator(case, c, eps, n)
        return _cantor_plateau(c, h, eps, n, beta)
    raise ValueError("case must be 'open-boundary' or 'cantor-plateau'")
