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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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


def _shell_index(num: int, den: int) -> int:
    """Index k with 1/2**(k+1) < num/den <= 1/2**k, for 0 < num <= den."""
    return (den // num).bit_length() - 1


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

    def mass_ratio(self, xn: int, xd: int) -> tuple[int, int] | None:
        """Stack mass between xn/xd and the interior edge of the stack zone, as
        an integer ratio; None, for infinite, at the stacked endpoint.  With
        xd = 0, ±1/0 is a point beyond the zone's far side."""
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
            return 0, 1
        # shell k spans 1/2**(k+1) < r <= 1/2**k; its block sees x at
        # 2**(k+1) r - 1 on a left stack and 2 - 2**(k+1) r on a right one
        k = _shell_index(rn, rd)
        un = (rn << (k + 1)) - rd if self.side == "lo" else 2 * rd - (rn << (k + 1))
        g = math.gcd(un, rd)
        cn, cd, _, _ = _cantor_ratios(un // g, rd // g) if un < rd else (1, 1, 0, 0)
        return ((k + 1) * cd - cn, cd) if self.side == "lo" else (k * cd + cn, cd)


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
        if self.include_lo and not math.isfinite(lo):
            raise ValueError("scale interval: cannot include an infinite endpoint")
        if self.include_hi and not math.isfinite(hi):
            raise ValueError("scale interval: cannot include an infinite endpoint")
        # divergence at an endpoint iff the endpoint is excluded
        if math.isfinite(lo):
            if self.include_lo and self.stack_lo:
                raise ValueError("included endpoint must keep a finite scale value; drop the stack")
            if not self.include_lo and not self.stack_lo:
                raise ValueError(
                    "excluded finite endpoint needs a boundary stack so the scale diverges there"
                )
        elif self.stack_lo:
            raise ValueError("boundary stack is meaningless at an infinite endpoint")
        if math.isfinite(hi):
            if self.include_hi and self.stack_hi:
                raise ValueError("included endpoint must keep a finite scale value; drop the stack")
            if not self.include_hi and not self.stack_hi:
                raise ValueError(
                    "excluded finite endpoint needs a boundary stack so the scale diverges there"
                )
        elif self.stack_hi:
            raise ValueError("boundary stack is meaningless at an infinite endpoint")

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
        """Integer ratios of each block's low end, high end, width and weight."""
        return tuple(
            (*b.lo.as_integer_ratio(), *b.hi.as_integer_ratio(),
             *b.width.as_integer_ratio(), *b.weight.as_integer_ratio())
            for b in self.blocks
        )

    def _w_ratio(self, x, num: int = 0, den: int = 1) -> tuple[int, int] | float:
        """num/den plus the cumulative W-mass at x, as one integer numerator over
        one positive denominator; -inf / +inf at a stacked end.

        The one sum over the blocks' and stacks' masses: each block left of x
        adds its weight, the block holding x weight * C((x - lo)/width) with C
        read in lowest terms, a right stack its mass between x and the zone's
        inner edge, and a left stack that mass negated.  ±inf reads as ±1/0.
        """
        try:
            xn, xd = x.as_integer_ratio()
        except OverflowError:  # x is -inf or +inf
            xn, xd = (1 if x > 0 else -1), 0
        # the blocks are sorted and disjoint: those past the first one that
        # starts at or right of x add nothing
        for ln, ld, hn, hd, sn, sd, wn, wd in self._block_ratios:
            if xn * ld <= ln * xd:
                break
            if xn * hd < hn * xd:
                un, ud = (xn * ld - ln * xd) * sd, xd * ld * sn
                g = math.gcd(un, ud)
                cn, cd, _, _ = _cantor_ratios(un // g, ud // g)
                wn, wd = wn * cn, wd * cd
            num, den = num * wd + wn * den, den * wd
        for s in self.stacks:
            ratio = s.mass_ratio(xn, xd)
            if ratio is None:
                return -math.inf if s.side == "lo" else math.inf
            mn, md = ratio
            num, den = num * md + (mn if s.side == "hi" else -mn) * den, den * md
        return num, den

    @cached_property
    def _anchor_ratio(self) -> tuple[int, int]:
        """The cumulative W-mass at the anchor e, where every value of t and
        every function on this interval is measured from."""
        return self._w_ratio(self.e)

    @cached_property
    def _eval_offset(self) -> tuple[int, int]:
        """e plus its cumulative W-mass, the ratio :meth:`eval` subtracts from x."""
        return (Fraction(self.e) + Fraction(*self._anchor_ratio)).as_integer_ratio()

    def cumulative_mass(self, x) -> Fraction | float:
        """Exact W-mass accumulated up to x, up to a constant: every W-mass is
        a difference of two of these.  It is the :meth:`_w_ratio` sum as a
        Fraction: -inf / +inf at a stacked end, and 0 or the total block
        weight at an infinite end."""
        w = self._w_ratio(x)
        return w if isinstance(w, float) else Fraction(*w)

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
        return abs(b[0] * a[1] - a[0] * b[1]) / (a[1] * b[1])

    def signed_mass(self, x) -> Fraction | float:
        """Exact W-mass from the anchor to x, signed: the darning image of x."""
        return self.cumulative_mass(x) - Fraction(*self._anchor_ratio)

    def eval(self, x) -> float:
        """Scale value t(x); signed infinity at excluded finite endpoints.

        Accepts floats or Fractions.  The exact value x - e + signed_mass(x)
        is kept as one integer numerator over one integer denominator: the
        :meth:`_w_ratio` sum started from x less e and less the anchor's
        cumulative mass.  One integer division rounds it, correctly, as
        float() of the same Fraction does, so rational breakpoints evaluate
        to correctly rounded values.
        """
        if x == self.lo and not self.include_lo:
            return -math.inf
        if x == self.hi and not self.include_hi:
            return math.inf
        self._check_in_closure(float(x))
        cn, cd = self._eval_offset
        xn, xd = x.as_integer_ratio()
        num, den = self._w_ratio(x, xn * cd - cn * xd, xd * cd)
        return num / den

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

        All are cell-local, so nothing of the size of t cancels.  Lebesgue measure
        gives (v - u)**2 / 2 and v - u.  A block or stack shell (a unit-weight
        block) of weight w and width D that meets the cell, from unit coordinate
        a to b, adds w * D * (S(b) - S(a) - C(a) * (b - a)) and w * (C(b) - C(a)),
        with S the integral of C, b - 1/2 past the block.  Each site's C and S
        are read once."""
        m = len(sites)
        first = 1 if self.stack_lo and sites[0] == self.lo else 0
        last = m - 2 if self.stack_hi and sites[-1] == self.hi else m - 1
        yield from [None] * min(first, m - 1)
        if last <= first:
            yield from [None] * (m - 1 - first)
            return
        u, v = Fraction(sites[first]), Fraction(sites[last])
        # each stack's shells down to the one that holds its nearest site
        depth = max((_shell_index(*r.as_integer_ratio()) + 1 for s in self.stacks
                     if (r := abs((u if s.side == "lo" else v) - s.at) / s.delta) < 1), default=0)
        sups = [(*b.lo.as_integer_ratio(), *b.hi.as_integer_ratio(), *b.width.as_integer_ratio(),
                 *b.weight.as_integer_ratio(), *(b.weight * b.width).as_integer_ratio())
                for w in self.w_supports(depth) if (b := w.block) and b.lo < v and b.hi > u]
        n = len(sups)
        vn = vd = rb = None
        at = j = 0
        for c in range(first, last + 1):
            un, ud, ra = vn, vd, rb
            vn, vd = sites[c].as_integer_ratio()
            # the site's unit coordinate, C and S in the support holding it
            while at < n and sups[at][2] * vd <= vn * sups[at][3]:
                at += 1
            rb = None
            if at < n and sups[at][0] * vd < vn * sups[at][1]:
                lon, lod, _, _, dn, dd = sups[at][:6]
                bn, bd = (vn * lod - lon * vd) * dd, vd * lod * dn
                g = math.gcd(bn, bd)
                rb = (at, bn // g, bd // g, *_cantor_ratios(bn // g, bd // g))
            if c == first:
                continue
            ld = math.lcm(ud, vd)
            ln = vn * (ld // vd) - un * (ld // ud)
            en, ed, tn, td = ln * ln, 2 * ld * ld, ln, ld
            while j < n and sups[j][2] * ud <= un * sups[j][3]:
                j += 1
            k = j
            while k < n and sups[k][0] * vd < vn * sups[k][1]:
                lon, lod, hn, hd, dn, dd, wn, wd, on, od = sups[k]
                _, an, ad, can, cad, san, sad = ra if ra and ra[0] == k else (k, 0, 1, 0, 1, 0, 1)
                if rb and rb[0] == k:
                    _, bn, bd, cbn, cbd, sbn, sbd = rb
                else:
                    bn, bd = (vn * lod - lon * vd) * dd, vd * lod * dn
                    cbn, cbd, sbn, sbd = 1, 1, 2 * bn - bd, 2 * bd
                # w * D * (S(b) - S(a) - C(a) (b - a)), and w * (C(b) - C(a))
                pn = (sbn * sad - san * sbd) * cad * ad * bd - can * (bn * ad - an * bd) * sbd * sad
                pd = sbd * sad * cad * ad * bd
                en, ed = en * pd * od + pn * on * ed, ed * pd * od
                tn, td = tn * wd * cbd * cad + wn * (cbn * cad - can * cbd) * td, td * wd * cbd * cad
                k += 1
            if k > j:
                # the terms multiply the denominators; one gcd each shrinks them
                g, h = math.gcd(en, ed), math.gcd(tn, td)
                en, ed, tn, td = en // g, ed // g, tn // h, td // h
            yield en, ed, tn, td, ln, ld
        yield from [None] * (m - 1 - last)

    def integral_t(self, u: float, v: float) -> float:
        """∫_u^v t(y) dy on a cell with u <= v strictly inside the interval:
        E(u, v) of :meth:`cell_ratios` plus (v - u) * t(u), rounded once."""
        if u > v:
            raise ValueError("integral_t: need u <= v")
        self._check_in_closure(u)
        self._check_in_closure(v)
        if u == v:
            return 0.0
        cell = next(self.cell_ratios([u, v]))
        if cell is None:
            raise ValueError("integral_t: the cell touches a stacked end")
        cn, cd = self._eval_offset
        un, ud = u.as_integer_ratio()
        t_u = Fraction(*self._w_ratio(u, un * cd - cn * ud, ud * cd))
        return float(Fraction(*cell[:2]) + Fraction(*cell[4:]) * t_u)

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
