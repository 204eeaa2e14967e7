"""Singular scale functions on an interval.

A scale function here is strictly increasing and continuous on an interval
I = <lo, hi> with

    t(x) = (x - e) + (signed singular mass between e and x),

where the singular part is carried by middle-thirds Cantor blocks.  By
construction Lebesgue measure is absolutely continuous with respect to dt
with density 1 off the blocks' Cantor sets and 0 on them, t(e) = 0, and t
diverges exactly at the endpoints that do not belong to I:

* an infinite endpoint diverges through the identity part;
* a finite excluded endpoint carries a boundary stack, an infinite family
  of unit-weight blocks piled on dyadic shells accumulating at the
  endpoint, so the mass between the endpoint and any interior point is
  infinite;
* a finite included endpoint carries no stack and gets a finite value.

The anchor e is fixed by the interval shape: the midpoint when both
endpoints are finite, lo + 1 or hi - 1 when exactly one is, and 0 on the
whole line.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from typing import Iterator, NamedTuple

from .cantor import CantorBlock, _cantor_ratios

__all__ = ["ScaleFunction", "WSupport", "make_scale", "anchor_point"]


def anchor_point(lo: float, hi: float) -> float:
    """Anchor e for the interval <lo, hi>: midpoint, lo+1, hi-1, or 0."""
    lo_fin = math.isfinite(lo)
    hi_fin = math.isfinite(hi)
    if lo_fin and hi_fin:
        return (lo + hi) / 2.0
    if lo_fin:
        return lo + 1.0
    if hi_fin:
        return hi - 1.0
    return 0.0


class WSupport(NamedTuple):
    """One piece of the singular support, as :meth:`ScaleFunction.w_supports` yields it.

    ``block`` is an explicit block, or stack shell number ``shell``; it is
    None on a stack's unresolved tail zone, whose mass is infinite.
    """

    lo: Fraction
    hi: Fraction
    block: CantorBlock | None
    shell: int | None = None

    def resolution(self, depth: int) -> int:
        """Depth of the trace cells on this support; deep, small shells get coarser ones."""
        return depth if self.shell is None else max(2, depth - self.shell)


@dataclass(frozen=True)
class _Stack:
    """Boundary stack of unit blocks on dyadic shells at a finite endpoint.

    For a left stack at ``a`` with width ``delta`` the k-th shell is
    [a + delta/2**(k+1), a + delta/2**k], k >= 0; a right stack mirrors
    this at ``b``.  Every shell carries a unit-weight Cantor block, so the
    mass trapped between the endpoint and any interior point is infinite.
    """

    side: str  # "lo" or "hi"
    at: Fraction
    delta: Fraction

    def shell(self, k: int) -> CantorBlock:
        if self.side == "lo":
            lo = self.at + self.delta / 2 ** (k + 1)
            return CantorBlock(lo, self.at + self.delta / 2**k, 1)
        hi = self.at - self.delta / 2 ** (k + 1)
        return CantorBlock(self.at - self.delta / 2**k, hi, 1)

    def supports(self, depth: int) -> list[WSupport]:
        """Shells k < depth, then the tail zone they leave, in increasing position."""
        blocks = [self.shell(k) for k in range(depth)]
        shells = [WSupport(b.lo, b.hi, b, k) for k, b in enumerate(blocks)]
        tail = self.delta / 2**depth
        if self.side == "lo":
            return [WSupport(self.at, self.at + tail, None)] + shells[::-1]
        return shells + [WSupport(self.at - tail, self.at, None)]

    def mass_ratio(self, xn: int, xd: int) -> tuple[int, int, int] | None:
        """Stack mass M between xn/xd and the interior edge of the stack zone,
        and the integral of M over the same stretch, as two integer numerators
        over one denominator; None, for infinite, at the stacked endpoint."""
        an, ad = self.at.as_integer_ratio()
        dn, dd = self.delta.as_integer_ratio()
        # r = rn / rd = (distance from the endpoint) / delta
        rn = (xn * ad - an * xd) * dd
        if self.side == "hi":
            rn = -rn
        if rn <= 0:
            return None
        rd = xd * ad * dn
        if rn >= rd:
            return 0, 0, 1
        # shell k spans 1/2**(k+1) < r <= 1/2**k; its block sees x at
        # u = 2**(k+1) r - 1 on a left stack and 2 - 2**(k+1) r on a right one
        k = (rd // rn).bit_length() - 1
        un = (rn << (k + 1)) - rd if self.side == "lo" else 2 * rd - (rn << (k + 1))
        g = math.gcd(un, rd)
        un, ud = un // g, rd // g
        cn, cd, sn, sd = _cantor_ratios(un, ud) if un < ud else (1, 1, 1, 2)
        # M is k + 1 - C(u) on a left stack and k + C(u) on a right one.  Over
        # each shell j < k between x's shell and the edge, M averages j + 1/2
        # on a width delta/2**(j+1), delta (3/2 - (2k+3)/2**(k+1)) in all, and
        # x's own shell adds h ((k+1)(1-u) - 1/2 + S(u)) or h (k u + S(u)),
        # h = delta/2**(k+1).  So ∫M = h bn / sd, where ud and 2 divide sd.
        if self.side == "lo":
            mn = (k + 1) * cd - cn
            bn = sd * ((3 << k) - k) - 5 * (sd >> 1) - (k + 1) * un * (sd // ud) + sn
        else:
            mn = k * cd + cn
            bn = sd * ((3 << k) - 2 * k - 3) + k * un * (sd // ud) + sn
        q = (dd * sd) << (k + 1)
        return mn * q, dn * bn * cd, cd * q


@dataclass(frozen=True)
class ScaleFunction:
    """Scale function on <lo, hi> built from Cantor blocks and stacks.

    Use :func:`make_scale` to construct one; it normalizes arguments and
    enforces the divergence rules at the endpoints.
    """

    lo: float
    hi: float
    include_lo: bool
    include_hi: bool
    blocks: tuple[CantorBlock, ...]
    stack_lo: bool
    stack_hi: bool
    e: float = field(init=False)
    stacks: tuple[_Stack, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "e", anchor_point(self.lo, self.hi))
        self._check_endpoints()
        # each stack reaches halfway to the anchor, at most one unit
        fe = Fraction(self.e)
        stacks = []
        if self.stack_lo:
            lo = Fraction(self.lo)
            stacks.append(_Stack("lo", lo, min(Fraction(1), (fe - lo) / 2)))
        if self.stack_hi:
            hi = Fraction(self.hi)
            stacks.append(_Stack("hi", hi, min(Fraction(1), (hi - fe) / 2)))
        object.__setattr__(self, "stacks", tuple(stacks))
        self._check_blocks()

    def _check_endpoints(self):
        lo, hi = self.lo, self.hi
        if not lo < hi:
            raise ValueError(f"scale interval: need lo < hi, got <{lo}, {hi}>")
        ends = ((lo, self.include_lo, self.stack_lo), (hi, self.include_hi, self.stack_hi))
        if any(include and not math.isfinite(x) for x, include, _ in ends):
            raise ValueError("scale interval: cannot include an infinite endpoint")
        # divergence at an endpoint iff the endpoint is excluded
        for x, include, stack in ends:
            if not math.isfinite(x):
                if stack:
                    raise ValueError("boundary stack is meaningless at an infinite endpoint")
            elif include and stack:
                raise ValueError("included endpoint must keep a finite scale value; drop the stack")
            elif not include and not stack:
                raise ValueError(
                    "excluded finite endpoint needs a boundary stack so the scale diverges there"
                )

    def _check_blocks(self):
        zones = [
            (self.lo, float(s.at + s.delta)) if s.side == "lo"
            else (float(s.at - s.delta), self.hi)
            for s in self.stacks
        ]
        prev_hi = None
        for blk in self.blocks:
            blo, bhi = float(blk.lo), float(blk.hi)
            if blo < self.lo or bhi > self.hi:
                raise ValueError(f"block [{blo}, {bhi}] leaves the interval <{self.lo}, {self.hi}>")
            if prev_hi is not None and blo < prev_hi:
                raise ValueError("blocks must be sorted with disjoint interiors")
            prev_hi = bhi
            for zlo, zhi in zones:
                if blo < zhi and bhi > zlo:
                    raise ValueError(
                        f"block [{blo}, {bhi}] overlaps the boundary-stack zone [{zlo}, {zhi}]"
                    )

    # -- membership -----------------------------------------------------

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:  # NaN included
            return False
        if x == self.lo:
            return self.include_lo
        if x == self.hi:
            return self.include_hi
        return True

    def _check_in_closure(self, x: float):
        if x < self.lo or x > self.hi or not math.isfinite(x):
            raise ValueError(f"x={x} outside the interval <{self.lo}, {self.hi}>")

    # -- singular mass and evaluation ------------------------------------

    @cached_property
    def _block_ratios(self) -> tuple:
        """Per block: its ends and width as integer ratios; over one denominator,
        the weight and weight times midpoint summed over the blocks before it,
        its weight and its weight times width.  Then those sums over all."""
        out, pn, qn, den = [], 0, 0, 1
        for b in self.blocks:
            (ln, ld), (hn, hd), (dn, dd), (wn, wd) = (
                f.as_integer_ratio() for f in (b.lo, b.hi, b.width, b.weight))
            # the common denominator grows to hold w D and w (lo + hi) / 2
            grown = math.lcm(den, wd * dd, 2 * wd * ld * hd)
            pn, qn, den = pn * (grown // den), qn * (grown // den), grown
            out.append((ln, ld, hn, hd, dn, dd, den, pn, qn, wn * (den // wd),
                        wn * dn * (den // (wd * dd))))
            pn += wn * (den // wd)
            qn += wn * (ln * hd + hn * ld) * (den // (2 * wd * ld * hd))
        return tuple(out), (den, pn, qn)

    @cached_property
    def _mass_ends(self) -> list[float]:
        """The block and stack zone ends as floats, in order.  Rounding keeps
        order, so a float strictly between two zones' float ends is clear of both."""
        ends = [e for b in self.blocks for e in (b.lo, b.hi)]
        for s in self.stacks:
            ends += [s.at, s.at + s.delta if s.side == "lo" else s.at - s.delta]
        return sorted(map(float, ends))

    def _w_ratio(self, x) -> tuple | float:
        """x, W(x) and ∫W from one read of x's integer ratio: (xn, xd, wn, jn,
        den) with x = xn/xd, W(x) = wn/den and ∫W = jn/den, den a multiple of
        xd; -inf / +inf at a stacked end.

        The one sum over the blocks' and stacks' masses.  A block left of x adds
        its weight w to W and w (x - mid) to ∫W, summed ahead in
        ``_block_ratios``; the block holding x adds w C(a) and w D S(a) at its
        unit coordinate a, read in lowest terms; a stack adds its mass M
        between the zone's inner edge and x, negated on a left stack, and ∫M.
        An infinite x reads as ±1/0 and gets W alone (jn None): no cell
        reaches it, and no stack holds mass there.
        """
        try:
            xn, xd = x.as_integer_ratio()
        except OverflowError:  # x is -inf or +inf
            xn, xd = (1 if x > 0 else -1), 0
        blocks, (den, pn, qn) = self._block_ratios
        inside = None
        # the blocks are sorted and disjoint: those before the first one that
        # ends right of x lie left of it, and only that one can hold x
        for ln, ld, hn, hd, dn, dd, bden, bpn, bqn, wn, vn in blocks:
            if xn * hd < hn * xd:
                den, pn, qn = bden, bpn, bqn
                if ln * xd < xn * ld:
                    un, ud = (xn * ld - ln * xd) * dd, xd * ld * dn
                    g = math.gcd(un, ud)
                    inside = _cantor_ratios(un // g, ud // g)
                break
        if not xd:
            return xn, xd, pn, None, den
        num, jn, den = pn * xd, pn * xn - qn * xd, den * xd
        if inside:
            cn, cd, sn, sd = inside
            num, jn = (num * cd + wn * cn * xd) * sd, (jn * sd + vn * sn * xd) * cd
            den *= cd * sd
        for s in self.stacks:
            ratio = s.mass_ratio(xn, xd)
            if ratio is None:
                return -math.inf if s.side == "lo" else math.inf
            mn, mj, md = ratio
            if mn:  # x lies in the stack zone
                mn = mn if s.side == "hi" else -mn
                num, jn, den = num * md + mn * den, jn * md + mj * den, den * md
        return xn, xd, num, jn, den

    @cached_property
    def _anchor_ratio(self) -> tuple:
        """The :meth:`_w_ratio` reading at the anchor e, where t is measured from."""
        return self._w_ratio(self.e)

    @cached_property
    def _eval_offset(self) -> tuple[int, int]:
        """e plus its cumulative W-mass, the ratio :meth:`eval` subtracts from x."""
        _, _, wn, _, den = self._anchor_ratio
        return (Fraction(self.e) + Fraction(wn, den)).as_integer_ratio()

    def cumulative_mass(self, x) -> Fraction | float:
        """Exact W-mass accumulated up to x, up to a constant: the :meth:`_w_ratio`
        sum as a Fraction; -inf / +inf at a stacked end, and 0 or the total
        block weight at an infinite end."""
        w = self._w_ratio(x)
        return w if isinstance(w, float) else Fraction(w[2], w[4])

    def singular_between(self, u, v) -> float:
        """Total W-mass (blocks plus stacks) strictly between u and v.

        u and v may be any points of the closure, infinite ends included.  The
        two cumulative masses are cross-multiplied and rounded once.
        """
        for x in (u, v):
            if not self.lo <= float(x) <= self.hi:  # NaN included
                raise ValueError(f"x={x} outside the interval <{self.lo}, {self.hi}>")
        if u == v or not (self.blocks or self.stacks):
            return 0.0
        a, b = (self._anchor_ratio if x == self.e else self._w_ratio(x) for x in (u, v))
        if isinstance(a, float) or isinstance(b, float):
            return math.inf
        return abs(b[2] * a[4] - a[2] * b[4]) / (a[4] * b[4])

    def signed_mass(self, x) -> Fraction | float:
        """Exact W-mass from the anchor to x, signed: the darning image of x."""
        _, _, wn, _, den = self._anchor_ratio
        return self.cumulative_mass(x) - Fraction(wn, den)

    def eval(self, x) -> float:
        """Scale value t(x); signed infinity at excluded finite endpoints.

        Accepts floats or Fractions.  The exact value x - e + signed_mass(x)
        is kept as one integer numerator over one integer denominator: x and
        W(x) from one :meth:`_w_ratio` reading, less e and the anchor's
        cumulative mass.  One integer division rounds it, correctly, as
        float() of the same Fraction does, so rational breakpoints evaluate
        to correctly rounded values.
        """
        if x == self.lo and not self.include_lo:
            return -math.inf
        if x == self.hi and not self.include_hi:
            return math.inf
        self._check_in_closure(float(x))
        xn, xd, wn, _, den = self._w_ratio(x)
        cn, cd = self._eval_offset
        return ((xn * (den // xd) + wn) * cd - cn * den) / (den * cd)

    __call__ = eval

    # -- inversion --------------------------------------------------------

    def inverse(self, y: float, tol: float = 1e-9) -> float:
        """Solve t(x) = y by monotone bisection to |t(x) - y| <= tol*(1+|y|).

        Because dt dominates Lebesgue measure, t(e + y) >= y >= t(e) for
        y >= 0 (and the mirror for y < 0), so the root lies between e and
        e + y, clipped to the interval, and the returned x is within the
        same tolerance of the true preimage.  A y outside the range of t, or
        one that no float x meets within the tolerance, raises ValueError.
        """
        if not math.isfinite(y):
            raise ValueError("inverse: y must be finite")
        target_tol = tol * (1.0 + abs(y))
        x_lo, x_hi = sorted((self.e, min(max(self.e + y, self.lo), self.hi)))
        t_lo, t_hi = self.eval(x_lo), self.eval(x_hi)
        if y < t_lo - target_tol or y > t_hi + target_tol:
            raise ValueError(f"inverse: y={y} outside the scale range [{t_lo}, {t_hi}]")
        # each pass halves the bracket, so the loop ends at adjacent floats
        while x_lo < (mid := 0.5 * (x_lo + x_hi)) < x_hi:
            tm = self.eval(mid)
            if abs(tm - y) <= target_tol:
                return mid
            if tm < y:
                x_lo, t_lo = mid, tm
            else:
                x_hi, t_hi = mid, tm
        for x, tx in ((x_lo, t_lo), (x_hi, t_hi)):
            if abs(tx - y) <= target_tol:
                return x
        raise ValueError(f"inverse: no float x has t(x) within {target_tol} of y={y}")

    # -- cell integrals for holding times ----------------------------------

    def cell_ratios(self, sites: list[float]) -> Iterator[tuple[int, ...] | None]:
        """E(u, v) = ∫_u^v (t - t(u)), t(v) - t(u) and v - u on each cell [u, v]
        between neighbouring sites, yielded in order as integer ratios
        (en, ed, tn, td, ln, ld); None on a cell that ends on a stacked end.
        ``sites`` increase in the closure.

        Each is a difference of the :meth:`_w_ratio` readings at the cell's
        ends, so each site's digits are read once: t(v) - t(u) is
        v - u + W(v) - W(u), and E is (v - u)**2 / 2 + ∫W(v) - ∫W(u) - W(u) (v - u).
        A cell that meets no mass, W(u) = W(v), gets Lebesgue measure's terms
        alone, unread when it lies clear of every block and stack zone; the
        others are put in lowest terms."""
        ends, b = self._mass_ends, None
        for x, y in pairwise(sites):
            a, b = b, None
            g = bisect_left(ends, x)
            if not g % 2 and g == bisect_left(ends, y) and (g == len(ends) or ends[g] != y):
                (un, ud), (vn, vd), dw = x.as_integer_ratio(), y.as_integer_ratio(), 0
            else:
                a, b = a or self._w_ratio(x), self._w_ratio(y)
                if isinstance(a, float) or isinstance(b, float):
                    yield None
                    continue
                (un, ud, wu, ju, du), (vn, vd, wv, jv, dv) = a, b
                dw = wv * du - wu * dv
            ld = math.lcm(ud, vd)
            ln = vn * (ld // vd) - un * (ld // ud)
            if not dw:
                yield ln * ln, 2 * ld * ld, ln, ld, ln, ld
                continue
            dd = du * dv
            en = ln * ln * dd + 2 * ld * ((jv * du - ju * dv) * ld - wu * dv * ln)
            ed = 2 * ld * ld * dd
            tn, td = ln * dd + dw * ld, ld * dd
            g, h = math.gcd(en, ed), math.gcd(tn, td)
            yield en // g, ed // g, tn // h, td // h, ln, ld

    def integral_t(self, u: float, v: float) -> float:
        """∫_u^v t(y) dy on a cell with u <= v strictly inside the interval:
        (v**2 - u**2) / 2 less (e + W(e)) (v - u), plus ∫W(v) - ∫W(u) from the
        two :meth:`_w_ratio` readings, rounded once."""
        if u > v:
            raise ValueError("integral_t: need u <= v")
        self._check_in_closure(u)
        self._check_in_closure(v)
        if u == v:
            return 0.0
        a, b = self._w_ratio(u), self._w_ratio(v)
        if isinstance(a, float) or isinstance(b, float):
            raise ValueError("integral_t: the cell touches a stacked end")
        xu, xv = Fraction(a[0], a[1]), Fraction(b[0], b[1])
        return float((xv * xv - xu * xu) / 2 - Fraction(*self._eval_offset) * (xv - xu)
                     + Fraction(b[3], b[4]) - Fraction(a[3], a[4]))

    # -- W-support enumeration --------------------------------------------

    def w_supports(self, depth: int) -> list[WSupport]:
        """The singular support resolved at ``depth``, in increasing position.

        Every explicit block comes whole.  Each boundary stack gives its
        shells k < depth and then its unresolved tail zone, within
        delta/2**depth of the stacked endpoint; at depth 0 the tails are the
        whole stack zones.  Darning and trace cells walk the support through
        this one enumerator.
        """
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        out = [WSupport(b.lo, b.hi, b) for b in self.blocks]
        for s in self.stacks:
            out = s.supports(depth) + out if s.side == "lo" else out + s.supports(depth)
        return out

    def block_count(self, depth: int) -> int:
        """How many Cantor blocks ``w_supports(depth)`` lists, without listing them:
        the explicit blocks and each stack's ``depth`` shells."""
        return len(self.blocks) + len(self.stacks) * depth


def make_scale(
    lo: float,
    hi: float,
    include_lo: bool = False,
    include_hi: bool = False,
    blocks=(),
    stack_lo: bool | None = None,
    stack_hi: bool | None = None,
) -> ScaleFunction:
    """Build a valid scale function on <lo, hi>.

    Stacks default to exactly where the divergence rules require them:
    present at a finite excluded endpoint, absent otherwise.  Pass
    ``stack_lo``/``stack_hi`` explicitly only to provoke validation errors.
    ``blocks`` may be CantorBlock instances or (lo, hi, weight) triples.
    """
    norm = []
    for blk in blocks:
        if not isinstance(blk, CantorBlock):
            blk = CantorBlock(*blk)
        norm.append(blk)
    norm.sort(key=lambda b: b.lo)
    if stack_lo is None:
        stack_lo = math.isfinite(lo) and not include_lo
    if stack_hi is None:
        stack_hi = math.isfinite(hi) and not include_hi
    return ScaleFunction(
        lo=float(lo),
        hi=float(hi),
        include_lo=bool(include_lo),
        include_hi=bool(include_hi),
        blocks=tuple(norm),
        stack_lo=stack_lo,
        stack_hi=stack_hi,
    )
