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

__all__ = [
    "cantor_fraction",
    "cantor_eval",
    "level_count",
    "check_work",
    "WORK_BUDGET",
    "CantorBlock",
]

# The most support items (intervals, gaps, remnants, atoms, trace cells) one
# call may build.  The deepest use in the verify battery, the demos and the
# benchmark builds about 2**15 of them.
WORK_BUDGET = 1 << 22

# Digit budget when a rational's ternary expansion neither terminates nor
# cycles within reach (huge denominators).  Truncation error is 2**-_DIGIT_CAP.
# Values keep the order of their arguments whenever the two expansions part
# within the budget, and p/q < p'/q' part within log_3(q q') digits.  The unit
# coordinate of a float in a block whose ends and width have numerators and
# denominators below 2**13 has a denominator below 2**1100, so two of them
# part within 1,388 digits.
_DIGIT_CAP = 1400

# Denominators up to this bound get full cycle detection, hence exact values.
_CYCLE_DENOM_LIMIT = 10**6


def cantor_fraction(x) -> Fraction:
    """Standard Cantor function C(x) on [0, 1] as an exact Fraction.

    The expansion is resolved exactly whenever it terminates, hits a digit 1,
    or cycles within the denominator budget; past that budget it is cut
    after ``_DIGIT_CAP`` digits.

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
    cn, cd, _, _ = _cantor_ratios(fx.numerator, fx.denominator)
    return Fraction(cn, cd)


def _cantor_ratios(num: int, den: int) -> tuple[int, int, int, int]:
    """C(x) and S(x) = ∫_0^x C of x = num/den in [0, 1), den > 0, as integer
    ratios cn/cd and sn/sd, read off one pass over the ternary digits.

    The remainder after k digits is num/den.  Digits 0 and 2 emit the binary
    digits of C, the k low bits of ``bits``.  As S(y) = S(3y)/6 on the left
    third and y/2 - 1/12 + S(3y - 2)/6 beyond it (less the last term on the
    middle third), each digit 1 or 2 read at remainder y adds
    6**-k * (6y - 1)/12, summed in ``s`` over 2 * den * 6**k.  A digit 1 or a
    zero remainder ends both sums exactly, a cycle closes both as geometric
    series, and past the budget both are cut.  The budget depends on den:
    pass x in lowest terms.
    """
    limit = den + 2 if den <= _CYCLE_DENOM_LIMIT else _DIGIT_CAP
    bits = s = k = 0
    seen: dict[int, tuple[int, int]] = {}
    while num and k < limit:
        j, head = seen.setdefault(num, (k, s))
        if j < k:
            # the digits after the first j repeat forever with period p
            p = k - j
            return bits - (bits >> p), ((1 << p) - 1) << j, s - head, 2 * den * 6**j * (6**p - 1)
        digit, rem = divmod(3 * num, den)
        bits = 2 * bits + (digit > 0)
        s = 6 * s + (6 * num - den if digit else 0)
        num = rem
        k += 1
        if digit == 1:
            break
    return bits, 1 << k, s, 2 * den * 6**k


def cantor_eval(x) -> float:
    """Standard Cantor function C(x) on [0, 1] as a float."""
    return float(cantor_fraction(x))


def _lefts(depth: int) -> list[int]:
    """Integers a, left to right, with the level-``depth`` remnants at 2a/3**depth.

    The ternary digits of a are the binary digits of the remnant's index i,
    so the Cantor function equals i/2**depth at the remnant's left end.
    """
    lefts = [0]
    for _ in range(depth):
        lefts = [3 * a + b for a in lefts for b in (0, 1)]
    return lefts


def _remnant_numerator(num: int, den: int, depth: int) -> int:
    """Lebesgue measure of [0, num/den] (den > 0) inside the level-``depth``
    remnant, exactly, as a numerator over 3**depth * den.

    Reads the ternary digits of num/den off the integer numerator, as
    :func:`cantor_fraction` does.  Digits 0 and 2 pick the left or right
    sub-piece, and a 2 passes every level-``depth`` piece of the left one;
    a digit 1 (in a gap) or a zero remainder (on a piece end) ends the
    count.  After ``depth`` digits the remainder is the covered part of the
    piece num/den lies in.  The digits depend only on the value, so num/den
    need not be in lowest terms.
    """
    if num <= 0:
        return 0
    if num >= den:
        return den << depth
    bits = 0
    for k in range(depth):
        digit, num = divmod(3 * num, den)
        bits = 2 * bits + (digit > 0)
        if digit == 1 or not num:
            return (bits << (depth - k - 1)) * den
    return bits * den + num


def level_count(depth: int) -> int:
    """2**depth, the number of level-``depth`` remnants, for work counts.

    Capped at 2**65, since a depth given on the command line may be far too
    large to raise 2 to; a count that reaches the cap is over budget anyway.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    return 1 << min(depth, 65)


def check_work(what: str, count: int, unit: str = "support items") -> None:
    """Refuse, before anything is built, a request for more than WORK_BUDGET items.

    Callers work ``count`` out from the depth with :func:`level_count`, or
    from a requested size, so nothing is listed to get it, and below 2**64
    it is not capped.  ``unit`` names what is counted.
    """
    if count > WORK_BUDGET:
        shown = count if count < 1 << 64 else "more than 2**64"
        raise ValueError(
            f"{what} would build {shown} {unit},"
            f" over the work budget of {WORK_BUDGET}"
        )


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

    def _frame(self) -> tuple[int, int, int]:
        # integers with lo + (k / 3**L) * width == (off * 3**L + k * step) / (den * 3**L)
        width = self.hi - self.lo
        ln, ld = self.lo.numerator, self.lo.denominator
        wn, wd = width.numerator, width.denominator
        return ln * wd, wn * ld, ld * wd

    def gaps(self, depth: int) -> list[tuple[int, Fraction, Fraction, Fraction]]:
        """Materialized gaps of levels 1..depth in absolute coordinates.

        Returns ``(level, lo, hi, mass_value)`` where ``mass_value`` is the
        block mass of [block.lo, gap] (constant across the gap).  Gaps come
        level by level, left to right within a level; across all levels up
        to d the unit block's values are exactly {j/2^d : 1 <= j < 2^d}.
        Each end is built as one Fraction from integers."""
        off, step, den = self._frame()
        mn, md = self.weight.numerator, self.weight.denominator
        out = []
        for level in range(1, depth + 1):
            o, d = off * 3**level, den * 3**level
            # the middle third [k, k + 1] / 3**level of each remnant one level
            # up; the Cantor function equals (2i + 1) / 2**level on it
            for i, a in enumerate(_lefts(level - 1)):
                k = 6 * a + 1
                out.append(
                    (
                        level,
                        Fraction(o + k * step, d),
                        Fraction(o + (k + 1) * step, d),
                        Fraction(mn * (2 * i + 1), md << level),
                    )
                )
        return out

    def remnants(self, depth: int) -> list[tuple[Fraction, Fraction, Fraction]]:
        """Closed level-``depth`` pieces in absolute coordinates, left to
        right, with the block mass value at each piece's left edge."""
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

    def float_remnants(self, depth: int) -> list[tuple[float, float]]:
        """The pieces of :meth:`remnants` as float pairs, without the mass values.

        Each end is one integer division, which rounds as converting the exact
        Fraction would; no Fraction is built.
        """
        off, step, den = self._frame()
        o, d = off * 3**depth, den * 3**depth
        return [((p := o + 2 * a * step) / d, (p + step) / d) for a in _lefts(depth)]
