"""Invariant-interval decompositions of the real line.

An extension configuration is a countable disjoint family of intervals
<a_n, b_n> covering the line up to a Lebesgue-null complement, together
with a scale function on each interval.  The diffusion it describes moves
like Brownian motion in the given scale inside each interval, never
crosses between intervals, and sits still on the complement.

Finite truncations (a Cantor dust or a shrinking leftover segment that a
deeper construction would fill) are carried explicitly by the complement
descriptor so that coverage accounting stays exact at every depth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cantor import iter_gaps, iter_remnants, remnant_length
from .scale import ScaleFunction, make_scale

__all__ = [
    "PointClass",
    "IntervalSpec",
    "DustSpec",
    "ComplementSpec",
    "ExtensionConfig",
    "ValidationReport",
    "validate",
    "classify_point",
    "TraceMeasure",
    "build_trace_measure",
    "preset",
    "PRESET_NAMES",
]


class PointClass(enum.Enum):
    """How the diffusion treats a point of the real line.

    REGULAR points lie inside an invariant interval.  An included left
    endpoint is a RIGHT_SHUNT (entered from the right only), an included
    right endpoint a LEFT_SHUNT.  Complement points are TRAPs: singular
    from both sides, the motion started there stays forever.  The
    one-sided singular labels are the coarser classes a shunt or trap
    belongs to; `one_sided_labels` exposes them.
    """

    REGULAR = "regular"
    RIGHT_SHUNT = "right-shunt"
    LEFT_SHUNT = "left-shunt"
    RIGHT_SINGULAR = "right-singular"
    LEFT_SINGULAR = "left-singular"
    TRAP = "trap"


@dataclass(frozen=True)
class IntervalSpec:
    """One invariant interval with its scale function."""

    scale: ScaleFunction

    @property
    def lo(self) -> float:
        return self.scale.lo

    @property
    def hi(self) -> float:
        return self.scale.hi

    @property
    def include_lo(self) -> bool:
        return self.scale.include_lo

    @property
    def include_hi(self) -> bool:
        return self.scale.include_hi

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.scale.contains(x)

    def describe(self) -> str:
        left = "[" if self.include_lo else "("
        right = "]" if self.include_hi else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class DustSpec:
    """Level-``depth`` middle-thirds remnant on [lo, hi].

    The closed pieces left after removing every gap of level <= depth; a
    deeper construction keeps splitting them, so the ideal measure is zero
    while the materialized measure is (2/3)**depth * (hi - lo).
    """

    lo: float
    hi: float
    depth: int

    def pieces(self) -> list[tuple[Fraction, Fraction]]:
        flo, fhi = Fraction(self.lo), Fraction(self.hi)
        width = fhi - flo
        return [(flo + a * width, flo + b * width) for a, b, _ in iter_remnants(self.depth)]

    def measure_in(self, u: float, v: float) -> Fraction:
        """Exact length of the pieces inside [u, v], in O(depth) digit steps."""
        flo, fhi = Fraction(self.lo), Fraction(self.hi)
        a, b = max(flo, Fraction(u)), min(fhi, Fraction(v))
        if b <= a:
            return Fraction(0)
        width = fhi - flo
        return width * (
            remnant_length((b - flo) / width, self.depth)
            - remnant_length((a - flo) / width, self.depth)
        )

    def materialized_measure(self) -> Fraction:
        return Fraction(2, 3) ** self.depth * (Fraction(self.hi) - Fraction(self.lo))


@dataclass(frozen=True)
class ComplementSpec:
    """Descriptor of the trap set (⋃ I_n)^c.

    ``points`` are isolated traps; ``segments`` are open leftover intervals
    of a depth-truncated construction; ``dust`` holds Cantor remnants.  All
    three are Lebesgue-null in the ideal (infinite-depth) object; segments
    and dust carry positive measure at finite depth, and the validator
    checks that this accounts exactly for whatever the intervals miss.
    """

    points: tuple[float, ...] = ()
    segments: tuple[tuple[float, float], ...] = ()
    dust: tuple[DustSpec, ...] = ()

    def measure_in(self, u: float, v: float) -> float:
        total = Fraction(0)
        for slo, shi in self.segments:
            a = max(Fraction(slo), Fraction(u))
            b = min(Fraction(shi), Fraction(v))
            if b > a:
                total += b - a
        for d in self.dust:
            total += d.measure_in(u, v)
        return float(total)

    def materialized_measure(self) -> float:
        total = Fraction(0)
        for slo, shi in self.segments:
            total += Fraction(shi) - Fraction(slo)
        for d in self.dust:
            total += d.materialized_measure()
        return float(total)


@dataclass(frozen=True)
class ExtensionConfig:
    """A full extension description: intervals, scales, trap complement."""

    intervals: tuple[IntervalSpec, ...]
    complement: ComplementSpec = ComplementSpec()
    name: str = ""

    def __post_init__(self):
        ordered = tuple(sorted(self.intervals, key=lambda iv: (iv.lo, iv.hi)))
        object.__setattr__(self, "intervals", ordered)

    def locate(self, x: float) -> int | None:
        """Index of the interval containing x, or None for complement points."""
        for idx, iv in enumerate(self.intervals):
            if iv.contains(x):
                return idx
        return None

    def interval(self, idx: int) -> IntervalSpec:
        return self.intervals[idx]


@dataclass
class ValidationReport:
    ok: bool
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


_COVER_TOL = 1e-12


def validate(config: ExtensionConfig) -> ValidationReport:
    """Check disjointness, scale divergence rules, and complement accounting.

    The complement must account exactly (up to float tolerance) for every
    stretch of the line the intervals miss; shared endpoints may be
    included by at most one neighbor.
    """
    errors: list[str] = []
    notes: list[str] = []
    ivs = config.intervals
    if not ivs:
        return ValidationReport(False, ["no intervals given"])

    # scale validity is enforced at construction; re-run for safety
    for idx, iv in enumerate(ivs):
        try:
            iv.scale._validate()
        except ValueError as exc:
            errors.append(f"interval {idx} {iv.describe()}: {exc}")

    if not math.isinf(ivs[0].lo):
        errors.append(
            f"line not covered below {ivs[0].lo}: an unbounded leftover cannot be Lebesgue-null"
        )
    if not math.isinf(ivs[-1].hi):
        errors.append(
            f"line not covered above {ivs[-1].hi}: an unbounded leftover cannot be Lebesgue-null"
        )

    comp_points = set(config.complement.points)
    for left, right in zip(ivs, ivs[1:]):
        if right.lo < left.hi or (right.lo == left.hi and left.include_hi and right.include_lo):
            errors.append(f"intervals {left.describe()} and {right.describe()} overlap")
            continue
        if right.lo == left.hi:
            shared = left.hi
            if not left.include_hi and not right.include_lo and shared not in comp_points:
                errors.append(
                    f"shared endpoint {shared} excluded by both neighbors "
                    "but absent from the complement points"
                )
            continue
        gap_lo, gap_hi = left.hi, right.lo
        gap_len = gap_hi - gap_lo
        claimed = config.complement.measure_in(gap_lo, gap_hi)
        if abs(claimed - gap_len) > _COVER_TOL * (1.0 + gap_len):
            errors.append(
                f"gap ({gap_lo}, {gap_hi}) has length {gap_len} "
                f"but the complement accounts for {claimed}"
            )

    # included endpoints cannot collide across intervals
    right_shunts = {iv.lo for iv in ivs if iv.include_lo}
    left_shunts = {iv.hi for iv in ivs if iv.include_hi}
    clash = right_shunts & left_shunts
    if clash:
        errors.append(f"points {sorted(clash)} are included endpoints on both sides")

    residual = config.complement.materialized_measure()
    if residual > 0:
        notes.append(
            f"complement holds measure {residual:.6g} at this truncation depth; "
            "the ideal (fully refined) complement is null"
        )
    for idx, iv in enumerate(ivs):
        if not iv.scale.blocks and not iv.scale.stack_lo and not iv.scale.stack_hi:
            if not iv.include_lo and not iv.include_hi:
                notes.append(f"interval {idx} {iv.describe()} contributes no trace support")

    return ValidationReport(not errors, errors, notes)


def classify_point(config: ExtensionConfig, x: float) -> PointClass:
    """Classify x as regular, shunt, or trap for this configuration."""
    if not math.isfinite(x):
        raise ValueError("classify_point: x must be finite")
    for iv in config.intervals:
        if x == iv.lo and iv.include_lo:
            return PointClass.RIGHT_SHUNT
        if x == iv.hi and iv.include_hi:
            return PointClass.LEFT_SHUNT
        if iv.lo < x < iv.hi:
            return PointClass.REGULAR
    return PointClass.TRAP


def one_sided_labels(config: ExtensionConfig, x: float) -> tuple[bool, bool]:
    """(right_singular, left_singular) for a point not interior to any interval.

    A right-singular point cannot be crossed from the left and vice versa;
    traps are singular on both sides, shunts on exactly one.
    """
    cls = classify_point(config, x)
    if cls is PointClass.REGULAR:
        return False, False
    if cls is PointClass.RIGHT_SHUNT:
        return False, True
    if cls is PointClass.LEFT_SHUNT:
        return True, False
    return True, True


# -- trace measure ---------------------------------------------------------


@dataclass(frozen=True)
class _WPart:
    """Singular trace-measure component on one interval: a sum of windows.

    Each ``(coef, win_lo, win_hi)`` term is dt|_W on the window scaled by
    coef.  An unbounded interval has one window, the whole interval, with
    coef 1; a bounded one with finite W-mass one whole-interval window
    rescaled to total b_n - a_n; a bounded one with boundary stacks a
    dyadic series of windows retreating from the stacked endpoints.
    """

    interval_index: int
    windows: tuple[tuple[float, float, float], ...]

    def mass(self, scale: ScaleFunction, u: float, v: float) -> float:
        """Measure of [u, v], u <= v."""
        total = 0.0
        for coef, wlo, whi in self.windows:
            a, b = max(u, wlo), min(v, whi)
            if b > a:
                total += coef * scale.singular_between(a, b)
        return total


@dataclass(frozen=True)
class TraceMeasure:
    """Radon measure carried by the singular set: W-parts plus endpoint atoms."""

    config: ExtensionConfig
    atoms: tuple[tuple[float, float, int], ...]  # (location, mass, interval index)
    w_parts: tuple[_WPart, ...]
    notes: tuple[str, ...] = ()

    def atom_mass(self, x: float) -> float:
        return sum(m for loc, m, _ in self.atoms if loc == x)

    def mass(self, u: float, v: float) -> float:
        """Total measure of [u, v]."""
        if u > v:
            u, v = v, u
        total = sum(m for loc, m, _ in self.atoms if u <= loc <= v)
        for part in self.w_parts:
            scale = self.config.interval(part.interval_index).scale
            total += part.mass(scale, u, v)
        return total

    def is_purely_atomic(self) -> bool:
        return not self.w_parts


_WINDOW_TERMS = 48


def build_trace_measure(config: ExtensionConfig) -> TraceMeasure:
    """Measure on the singular set: renormalized W-restrictions plus atoms.

    Included endpoints carry an atom of mass b_n - a_n, capped at 1 when
    the interval is unbounded.  On bounded intervals the W-restriction of
    dt is rescaled to total b_n - a_n; when a boundary stack makes that
    mass infinite, a dyadic-window series replaces the flat rescaling.
    """
    atoms: list[tuple[float, float, int]] = []
    w_parts: list[_WPart] = []
    notes: list[str] = []
    for idx, iv in enumerate(config.intervals):
        scale = iv.scale
        atom_mass = iv.length if iv.bounded else 1.0
        if iv.include_lo:
            atoms.append((iv.lo, atom_mass, idx))
        if iv.include_hi:
            atoms.append((iv.hi, atom_mass, idx))

        has_stack = scale.stack_lo or scale.stack_hi
        if not scale.blocks and not has_stack:
            if not iv.include_lo and not iv.include_hi:
                notes.append(f"interval {idx} {iv.describe()}: empty trace support")
            continue
        if not iv.bounded:
            w_parts.append(_WPart(idx, ((1.0, iv.lo, iv.hi),)))
            continue
        if not has_stack:
            total = scale.singular_between(iv.lo, iv.hi)
            if total == 0.0:
                continue
            w_parts.append(_WPart(idx, ((iv.length / total, iv.lo, iv.hi),)))
            continue
        # bounded interval with infinite W-mass: dyadic-window series.  Each
        # window retreats from the stacked endpoints; weights 2**-k keep the
        # series summable and a single constant sets the total to b_n - a_n.
        length = iv.length
        terms = []
        for k in range(1, _WINDOW_TERMS + 1):
            margin = length / 2 ** (k + 1)
            wlo = iv.lo + margin if scale.stack_lo else iv.lo
            whi = iv.hi - margin if scale.stack_hi else iv.hi
            wmass = scale.singular_between(wlo, whi)
            tmass = scale.stieltjes_mass(wlo, whi)
            if wmass <= 0.0 or not math.isfinite(tmass) or tmass <= 0.0:
                continue
            terms.append((k, wlo, whi, wmass, tmass))
        series = sum(2.0**-k * wm / tm for k, _, _, wm, tm in terms)
        if series <= 0.0:
            notes.append(f"interval {idx} {iv.describe()}: window series degenerate")
            continue
        const = length / series
        w_parts.append(
            _WPart(idx, tuple((const * 2.0**-k / tm, wlo, whi) for k, wlo, whi, _, tm in terms))
        )
    return TraceMeasure(config, tuple(atoms), tuple(w_parts), tuple(notes))


# -- presets -----------------------------------------------------------------

PRESET_NAMES = ("ex215", "ex216", "ex217", "ex218", "darning-sojourn")


def _ex215() -> ExtensionConfig:
    # whole line, scale x + C(x): one unit block, no traps, irreducible
    scale = make_scale(-math.inf, math.inf, blocks=[(0, 1, 1)])
    return ExtensionConfig((IntervalSpec(scale),), name="ex215")


def _ex216() -> ExtensionConfig:
    # two half-lines split by a single trap at 0; stacks make 0 unreachable
    left = make_scale(-math.inf, 0.0, include_hi=False)
    right = make_scale(0.0, math.inf, include_lo=False)
    comp = ComplementSpec(points=(0.0,))
    return ExtensionConfig((IntervalSpec(left), IntervalSpec(right)), comp, name="ex216")


def _ex217(depth: int) -> ExtensionConfig:
    # half-open shells accumulating at the single trap 0 from both sides
    ivs = [
        IntervalSpec(make_scale(-math.inf, -1.0, include_hi=True)),
        IntervalSpec(make_scale(1.0, math.inf, include_lo=True)),
    ]
    for k in range(1, depth + 1):
        ivs.append(IntervalSpec(make_scale(-1.0 / k, -1.0 / (k + 1), include_hi=True)))
        ivs.append(IntervalSpec(make_scale(1.0 / (k + 1), 1.0 / k, include_lo=True)))
    edge = 1.0 / (depth + 1)
    comp = ComplementSpec(points=(0.0,), segments=((-edge, 0.0), (0.0, edge)))
    return ExtensionConfig(tuple(ivs), comp, name="ex217")


def _ex218(depth: int) -> ExtensionConfig:
    # closures of the middle-thirds gaps, natural scale everywhere; the
    # leftover dust is a trap set of measure (2/3)**depth
    ivs = [
        IntervalSpec(make_scale(-math.inf, 0.0, include_hi=True)),
        IntervalSpec(make_scale(1.0, math.inf, include_lo=True)),
    ]
    for _, glo, ghi, _ in iter_gaps(depth):
        ivs.append(
            IntervalSpec(make_scale(float(glo), float(ghi), include_lo=True, include_hi=True))
        )
    comp = ComplementSpec(dust=(DustSpec(0.0, 1.0, depth),))
    return ExtensionConfig(tuple(ivs), comp, name="ex218")


def _darning_sojourn() -> ExtensionConfig:
    # a stacked half-line pressed against [-1, inf) carrying a Cantor block;
    # darning the block collapses [-1, 0] to a sticky boundary point
    left = IntervalSpec(make_scale(-math.inf, -1.0, include_hi=False))
    right = IntervalSpec(make_scale(-1.0, math.inf, include_lo=True, blocks=[(0, 1, 1)]))
    return ExtensionConfig((left, right), name="darning-sojourn")


def preset(name: str, depth: int = 8) -> ExtensionConfig:
    """Catalog of ready-made configurations used in tests and demos.

    ``depth`` controls how many shells (ex217) or gap levels (ex218) are
    materialized; the other presets ignore it.
    """
    if name == "ex215":
        return _ex215()
    if name == "ex216":
        return _ex216()
    if name == "ex217":
        return _ex217(depth)
    if name == "ex218":
        return _ex218(depth)
    if name == "darning-sojourn":
        return _darning_sojourn()
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
