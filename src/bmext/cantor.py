"""Middle-thirds Cantor machinery with exact rational arithmetic.

The standard Cantor function ``C`` on [0, 1] is evaluated by consuming
ternary digits: digits 0 and 2 emit binary digits 0 and 1; the first
digit 1 emits a final binary 1 and stops.  Inputs are converted to
`fractions.Fraction`, so every float is handled exactly (floats are
dyadic rationals), and the digits are read off the integer numerator of
the remainder.  Rational inputs whose ternary expansion cycles are
resolved in closed form by remainder-cycle detection, which makes values
such as C(1/4) = 1/3 exact rather than truncated.

A :class:`CantorBlock` places a scaled copy of ``C`` on an interval
[lo, hi] with total singular mass ``weight``.  Blocks are the only
singular component used by scale functions; their plateau structure
(the middle-thirds gaps) is enumerable level by level, which keeps gap
bookkeeping exact at every truncation depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

__all__ = [
    "cantor_fraction",
    "cantor_eval",
    "cantor_integral",
    "iter_gaps",
    "iter_remnants",
    "remnant_length",
    "CantorBlock",
]

# Digit budget when a rational's ternary expansion neither terminates nor
# cycles within reach (huge denominators).  Truncation error is 2**-_DIGIT_CAP.
_DIGIT_CAP = 256

# Denominators up to this bound get full cycle detection, hence exact values.
_CYCLE_DENOM_LIMIT = 10**6

# Levels of self-similar recursion in the Cantor integral; the truncation
# error 6**-48 / 4 lies far below float resolution.
_INTEGRAL_LEVELS = 48


def cantor_fraction(x, depth: int | None = None) -> Fraction:
    """Standard Cantor function C(x) on [0, 1] as an exact Fraction.

    Parameters
    ----------
    x : real
        Point in [0, 1]; floats are converted exactly.
    depth : int, optional
        If given, consume at most ``depth`` ternary digits and return the
        truncated (lower) value, accurate to 2**-depth.  If omitted the
        expansion is resolved exactly whenever it terminates, hits a
        digit 1, or cycles within the denominator budget.

    Raises
    ------
    ValueError
        If x lies outside [0, 1].
    """
    fx = Fraction(x)
    if fx < 0 or fx > 1:
        raise ValueError(f"cantor_fraction: x={x} outside [0, 1]")
    if fx == 1:
        return Fraction(1)

    # the remainder after k digits is num/den; the binary digits emitted so
    # far are the k low bits of ``bits``, most significant first
    num, den = fx.numerator, fx.denominator
    exact = depth is None
    if exact:
        limit = den + 2 if den <= _CYCLE_DENOM_LIMIT else _DIGIT_CAP
    else:
        limit = depth

    bits = 0
    seen: dict[int, int] = {}
    k = 0
    while num and k < limit:
        if exact:
            j = seen.setdefault(num, k)
            if j < k:
                # the bits after the first j repeat forever with period p
                p = k - j
                return Fraction(bits - (bits >> p), ((1 << p) - 1) << j)
        digit, num = divmod(3 * num, den)
        bits = 2 * bits + (digit > 0)
        k += 1
        if digit == 1:
            break
    return Fraction(bits, 1 << k)


def cantor_eval(x, depth: int | None = None) -> float:
    """Standard Cantor function C(x) on [0, 1] as a float."""
    return float(cantor_fraction(x, depth))


def cantor_integral(x: float) -> float:
    """Integral of the Cantor function, ∫_0^x C(y) dy, for x in [0, 1].

    Uses the self-similar splitting S(x) = S(3x)/6 on the left third,
    the exact plateau formula on the middle, and S(x) = 1/4 + (x-2/3)/2
    + S(3x-2)/6 on the right.  Recurses ``_INTEGRAL_LEVELS`` levels.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 0.5
    acc = 0.0
    mult = 1.0
    for _ in range(_INTEGRAL_LEVELS):
        if x <= 1.0 / 3.0:
            mult /= 6.0
            x *= 3.0
        elif x < 2.0 / 3.0:
            return acc + mult * (1.0 / 12.0 + (x - 1.0 / 3.0) / 2.0)
        else:
            acc += mult * (0.25 + (x - 2.0 / 3.0) / 2.0)
            mult /= 6.0
            x = 3.0 * x - 2.0
        if x <= 0.0:
            return acc
        if x >= 1.0:
            return acc + mult * 0.5
    return acc + mult * 0.25


def _lefts(depth: int) -> list[int]:
    """Integers a, left to right, with the level-``depth`` remnants at 2a/3**depth.

    The ternary digits of a are the binary digits of the remnant's index i,
    so the Cantor function equals i/2**depth at the remnant's left end.
    """
    lefts = [0]
    for _ in range(depth):
        lefts = [3 * a + b for a in lefts for b in (0, 1)]
    return lefts


def _gap_numerators(depth: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(level, k, j)`` for each gap, in :func:`iter_gaps` order: the gap
    is [k, k + 1] / 3**level and the Cantor function equals j / 2**level on it."""
    for level in range(1, depth + 1):
        # the middle third of each remnant one level up
        for i, a in enumerate(_lefts(level - 1)):
            yield level, 6 * a + 1, 2 * i + 1


def iter_gaps(depth: int) -> Iterator[tuple[int, Fraction, Fraction, Fraction]]:
    """Yield middle-thirds gaps of [0, 1] at levels 1..depth.

    Each item is ``(level, lo, hi, value)`` in unit-interval coordinates,
    where ``value`` is the constant the Cantor function takes on the gap.
    Gaps appear level by level, left to right within a level; across all
    levels up to d the values are exactly {j/2^d : 1 <= j < 2^d}.
    """
    for level, k, j in _gap_numerators(depth):
        den = 3**level
        yield level, Fraction(k, den), Fraction(k + 1, den), Fraction(j, 2**level)


def iter_remnants(depth: int) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Yield the 2**depth closed level-``depth`` pieces left after removing
    all gaps of level <= depth, as ``(lo, hi, value_lo)`` with ``value_lo``
    the Cantor value at the left edge.  Pieces have length 3**-depth."""
    den = 3**depth
    for i, a in enumerate(_lefts(depth)):
        yield Fraction(2 * a, den), Fraction(2 * a + 1, den), Fraction(i, 2**depth)


def remnant_length(x, depth: int) -> Fraction:
    """Lebesgue measure of [0, x] inside the level-``depth`` remnant, exactly.

    Reads the ternary digits of x off its integer numerator, as
    :func:`cantor_fraction` does.  Digits 0 and 2 pick the left or right
    sub-piece, and a 2 passes every level-``depth`` piece of the left one;
    a digit 1 (in a gap) or a zero remainder (on a piece end) ends the
    count.  After ``depth`` digits the remainder is the covered part of the
    piece x lies in.
    """
    fx = Fraction(x)
    if fx <= 0:
        return Fraction(0)
    den3 = 3**depth
    if fx >= 1:
        return Fraction(2**depth, den3)
    num, den = fx.numerator, fx.denominator
    bits = 0
    for k in range(depth):
        digit, num = divmod(3 * num, den)
        bits = 2 * bits + (digit > 0)
        if digit == 1 or not num:
            return Fraction(bits << (depth - k - 1), den3)
    return Fraction(bits * den + num, den3 * den)


@dataclass(frozen=True)
class CantorBlock:
    """A scaled Cantor staircase on [lo, hi] carrying singular mass ``weight``.

    The associated Stieltjes mass of [lo, x] is ``weight * C((x-lo)/(hi-lo))``;
    it is non-atomic, lives on the middle-thirds Cantor set of the block, and
    vanishes on every removed gap.
    """

    lo: Fraction
    hi: Fraction
    weight: Fraction

    def __init__(self, lo, hi, weight=1):
        lo = Fraction(lo)
        hi = Fraction(hi)
        weight = Fraction(weight)
        if not lo < hi:
            raise ValueError(f"CantorBlock: need lo < hi, got [{lo}, {hi}]")
        if weight <= 0:
            raise ValueError(f"CantorBlock: weight must be positive, got {weight}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "weight", weight)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def value_exact(self, x) -> Fraction:
        """Mass of [lo, x]: weight * C((x-lo)/width), clipped outside."""
        fx = Fraction(x)
        if fx <= self.lo:
            return Fraction(0)
        if fx >= self.hi:
            return self.weight
        return self.weight * cantor_fraction((fx - self.lo) / self.width)

    def value(self, x) -> float:
        return float(self.value_exact(x))

    def mass_exact(self, u, v) -> Fraction:
        """Singular mass of (u, v] under this block (order-normalized)."""
        if u > v:
            u, v = v, u
        return self.value_exact(v) - self.value_exact(u)

    def mass(self, u, v) -> float:
        return float(self.mass_exact(u, v))

    def integral(self, u: float, v: float) -> float:
        """∫_u^v weight * C((y-lo)/width) dy, clipped to the block."""
        lo = float(self.lo)
        hi = float(self.hi)
        w = float(self.weight)
        width = float(self.width)
        if v < u:
            raise ValueError("CantorBlock.integral: need u <= v")
        above = max(0.0, v - max(u, hi))  # portion right of the block: C = 1 there
        a = min(max(u, lo), hi)
        b = min(max(v, lo), hi)
        inner = 0.0
        if b > a:
            sa = cantor_integral((a - lo) / width)
            sb = cantor_integral((b - lo) / width)
            inner = width * (sb - sa)
        return w * (inner + above)

    def _frame(self) -> tuple[int, int, int]:
        # integers with lo + (k / 3**L) * width == (off * 3**L + k * step) / (den * 3**L)
        width = self.hi - self.lo
        ln, ld = self.lo.numerator, self.lo.denominator
        wn, wd = width.numerator, width.denominator
        return ln * wd, wn * ld, ld * wd

    def gaps(self, depth: int) -> list[tuple[int, Fraction, Fraction, Fraction]]:
        """Materialized gaps up to ``depth`` in absolute coordinates.

        Returns ``(level, lo, hi, mass_value)`` where ``mass_value`` is the
        block mass of [block.lo, gap] (constant across the gap).  Items come
        in the order of :func:`iter_gaps`; each end is built as one Fraction
        from integers."""
        off, step, den = self._frame()
        mn, md = self.weight.numerator, self.weight.denominator
        out = []
        for level, k, j in _gap_numerators(depth):
            o, d = off * 3**level, den * 3**level
            out.append(
                (
                    level,
                    Fraction(o + k * step, d),
                    Fraction(o + (k + 1) * step, d),
                    Fraction(mn * j, md << level),
                )
            )
        return out

    def remnants(self, depth: int) -> list[tuple[Fraction, Fraction, Fraction]]:
        """Closed level-``depth`` pieces in absolute coordinates, with the
        block mass value at each piece's left edge, in the order of
        :func:`iter_remnants`."""
        off, step, den = self._frame()
        scale = 3**depth
        o, d = off * scale, den * scale
        mn, md = self.weight.numerator, self.weight.denominator
        return [
            (
                Fraction(o + 2 * a * step, d),
                Fraction(o + (2 * a + 1) * step, d),
                Fraction(mn * i, md << depth),
            )
            for i, a in enumerate(_lefts(depth))
        ]
