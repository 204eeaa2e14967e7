"""Collapse the Lebesgue components of an interval onto its singular set.

The darning transform sends x to the W-mass accumulated between the anchor
and x, so every maximal stretch without singular mass lands on a single
image point.  Pushing Lebesgue measure through the transform yields a purely
atomic measure: one atom per collapsed stretch, of mass equal to its length.
The image process is a Brownian motion time-changed by that measure, with
reflection at included image endpoints and absorption at finite excluded
ones; an included endpoint carrying a positive atom reflects slowly.

Everything here enumerates at a working depth.  Gap atoms are exact; the
not-yet-resolved remainder of each Cantor block (and the unenumerated tail
of a boundary stack) is carried as aggregate pseudo-atoms so that the total
image mass matches the source length exactly at every depth.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .cantor import CantorBlock, check_work, level_count
from .config import ExtensionConfig
from .forms import PiecewiseFn

__all__ = [
    "DegenerateDarning",
    "DarnedSpec",
    "common_denominator",
    "darning_map",
    "darn",
    "darned_energy",
    "energy_equivalence_check",
]


class DegenerateDarning(ValueError):
    """The interval carries no singular mass, so there is nothing to darn."""


def _supports(config: ExtensionConfig, n: int, depth: int):
    """Interval n, its singular support at depth, and the closed span darned.

    The span runs from each included endpoint, or else from the outermost
    support, which at an excluded finite endpoint is the stack's tail.
    """
    iv = config.intervals[n]
    sups = iv.scale.w_supports(depth)
    if not sups:
        raise DegenerateDarning(f"interval {n} {iv.describe()} has no singular part")
    r_lo = Fraction(iv.lo) if iv.include_lo else sups[0].lo
    r_hi = Fraction(iv.hi) if iv.include_hi else sups[-1].hi
    return iv, sups, r_lo, r_hi


def _images(scale, sups) -> tuple[Fraction, list[Fraction]]:
    """Where the image walk starts, the image where each support starts, and the end.

    Supports are entered at their left end, a left stack's tail at its right
    end, as its image is infinite at the endpoint.  Only the walk's start
    needs an exact mass evaluation; each later image adds the weight passed.
    """
    start = sups[0].hi if scale.stack_lo else sups[0].lo
    j = scale.signed_mass(start)
    images = [j]
    for sup in sups:
        if sup.block is not None:
            j += sup.block.weight
        images.append(j)
    return start, images


def darning_map(config: ExtensionConfig, n: int, x) -> float:
    """Image coordinate of x under the collapse of interval n.

    Non-decreasing, zero at the anchor, constant on each stretch without
    singular mass.  x must lie in the span of the singular support (with
    the interval's own endpoints when they are part of the state space).
    """
    iv, _, r_lo, r_hi = _supports(config, n, 0)
    fx = Fraction(x)
    # the closure is allowed: j extends continuously, with an infinite
    # image at a stacked endpoint
    if not r_lo <= fx <= r_hi:
        raise ValueError(f"{x} outside the darning domain of interval {n}")
    return float(iv.scale.signed_mass(fx))


def common_denominator(denominators) -> tuple[int, dict[int, int]]:
    """The least common multiple of the denominators, and each one's cofactor.

    A spec's masses share a few denominators, so sums of their numerators
    times these cofactors are exact sums of the masses over one denominator,
    without one ``Fraction`` add (and its gcd) per mass.
    """
    den = math.lcm(*denominators)
    return den, {d: den // d for d in denominators}


@dataclass(frozen=True)
class DarnedSpec:
    """Image interval, boundary behavior, and the atomic image measure.

    ``atoms`` are the collapsed Lebesgue stretches resolved at this depth;
    ``residue`` aggregates everything deeper (unresolved Cantor remnants,
    stack tails) so that masses always add up to the source length.  Masses
    stay exact rationals.
    """

    interval_index: int
    depth: int
    source_lo: float
    source_hi: float
    include_lo: bool
    include_hi: bool
    image_lo: float
    image_hi: float
    atoms: tuple[tuple[float, Fraction], ...]
    residue: tuple[tuple[float, Fraction], ...]

    def total_mass(self) -> Fraction:
        sums: defaultdict[int, int] = defaultdict(int)
        for _, m in self.atoms + self.residue:
            sums[m.denominator] += m.numerator
        den, cofactor = common_denominator(sums)
        return Fraction(sum(n * cofactor[d] for d, n in sums.items()), den)

    def atom_mass(self, y: float) -> Fraction:
        return sum((m for loc, m in self.atoms if loc == y), Fraction(0))

    def slow_reflection(self) -> tuple[bool, bool]:
        """(at image_lo, at image_hi): included endpoint with a positive atom."""
        lo = self.include_lo and self.atom_mass(self.image_lo) > 0
        hi = self.include_hi and self.atom_mass(self.image_hi) > 0
        return lo, hi


def _block_items(blk: CantorBlock, j: Fraction, depth: int):
    """Gap atoms and remnant residue of one block whose image starts at ``j``.

    Every position is ``j + weight * m / 2**(depth+1)`` with m odd: the
    gaps of level L take the odd multiples of 2**(depth+1-L), and each
    remnant's aggregate sits mid-span, clear of the gap positions.  Each
    position is one int / int over the block's shared denominator, which
    rounds correctly, as float(Fraction) does.  All gaps of a level share
    one exact length, and so do all remnants.  Items come in the order of
    :meth:`CantorBlock.gaps` and :meth:`CantorBlock.remnants`.
    """
    top = depth + 1
    wn, wd = blk.weight.numerator, blk.weight.denominator
    den = j.denominator * wd << top
    base = j.numerator * wd << top
    step = j.denominator * wn
    width = blk.width
    atoms = []
    for level in range(1, top):
        stride = step << (top - level)
        length = width / 3**level
        stop = base + (stride << level)
        atoms.extend((m / den, length) for m in range(base + stride, stop, 2 * stride))
    length = width / 3**depth
    residue = [(m / den, length) for m in range(base + step, base + (step << top), 2 * step)]
    return atoms, residue


def darn(config: ExtensionConfig, n: int, depth: int = 8) -> DarnedSpec:
    """Collapse interval n at the given enumeration depth."""
    # 2**(depth+1) items per block, plus a tail and a collapsed stretch per
    # stack and one stretch more
    sc = config.intervals[n].scale
    check_work(
        f"darn of interval {n} at depth {depth}",
        2 * sc.block_count(depth) * level_count(depth) + 2 * len(sc.stacks) + 1,
    )
    iv, sups, r_lo, r_hi = _supports(config, n, depth)
    _, images = _images(iv.scale, sups)
    atoms: list[tuple[float, Fraction]] = []
    residue: list[tuple[float, Fraction]] = []
    # a stretch without singular mass collapses to one image point
    prev_hi = r_lo if iv.include_lo else None
    for sup, j in zip(sups, images):
        if prev_hi is not None and sup.lo > prev_hi:
            atoms.append((float(j), sup.lo - prev_hi))
        prev_hi = sup.hi
        blk = sup.block
        if blk is None:
            # the unresolved stack tail sits at the image of its interior edge
            residue.append((float(j), sup.hi - sup.lo))
            continue
        gap_atoms, remnant_residue = _block_items(blk, j, depth)
        atoms.extend(gap_atoms)
        residue.extend(remnant_residue)
    if iv.include_hi and r_hi > prev_hi:
        atoms.append((float(images[-1]), r_hi - prev_hi))

    atoms.sort(key=lambda a: a[0])
    residue.sort(key=lambda a: a[0])
    return DarnedSpec(
        interval_index=n,
        depth=depth,
        source_lo=float(r_lo),
        source_hi=float(r_hi),
        include_lo=iv.include_lo,
        include_hi=iv.include_hi,
        image_lo=-math.inf if iv.scale.stack_lo else float(images[0]),
        image_hi=math.inf if iv.scale.stack_hi else float(images[-1]),
        atoms=tuple(atoms),
        residue=tuple(residue),
    )


def _check_nodes(nodes):
    if len(nodes) < 2:
        raise ValueError("need at least two nodes")
    xs = [x for x, _ in nodes]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("node positions must be strictly increasing")
    if any(not math.isfinite(x) or not math.isfinite(v) for x, v in nodes):
        raise ValueError("nodes must be finite")


def darned_energy(spec: DarnedSpec, nodes) -> float:
    """Dirichlet energy of a piecewise-linear function on the image interval.

    ``nodes`` is a sorted list of (position, value); the function continues
    constantly beyond the outer nodes.  A finite excluded image endpoint is
    absorbing, so the boundary limit there must vanish.
    """
    nodes = [(float(x), float(v)) for x, v in nodes]
    _check_nodes(nodes)
    lo_x, lo_v = nodes[0]
    hi_x, hi_v = nodes[-1]
    if lo_x < spec.image_lo or hi_x > spec.image_hi:
        raise ValueError("nodes must lie inside the image interval")
    if math.isfinite(spec.image_lo) and not spec.include_lo and lo_v != 0.0:
        raise ValueError(
            f"boundary limit {lo_v} at absorbing endpoint {spec.image_lo} must be 0"
        )
    if math.isfinite(spec.image_hi) and not spec.include_hi and hi_v != 0.0:
        raise ValueError(
            f"boundary limit {hi_v} at absorbing endpoint {spec.image_hi} must be 0"
        )
    return _polyline_energy(nodes)


def _polyline_energy(nodes) -> float:
    # the broken line through sorted (position, value) nodes; 0.0 below two nodes
    steps = zip(nodes, nodes[1:])
    return 0.5 * math.fsum((v2 - v1) ** 2 / (x2 - x1) for (x1, v1), (x2, v2) in steps)


def energy_equivalence_check(
    config: ExtensionConfig, n: int, f: PiecewiseFn, depth: int = 20
) -> tuple[float, float, float]:
    """Source-side vs image-side energy of a complement member on interval n.

    The image function interpolates f at the image end of each support
    resolved at the given depth and at the images of f's breakpoints;
    between those nodes the true image is linear, so the two energies agree
    up to rounding.  ``depth`` sets how many stack shells are resolved.
    Returns (source, image, relative gap).
    """
    part = f.parts[n]
    if any(u != 0.0 for _, _, u, _ in part.pieces):
        raise ValueError("interval part carries a Lebesgue rate; not in the complement")

    iv, sups, r_lo, r_hi = _supports(config, n, depth)
    scale = iv.scale
    source = 0.5 * math.fsum(
        w * w * scale.singular_between(lo, hi) for lo, hi, _, w in part.pieces if w
    )
    if not math.isfinite(source):
        raise ValueError("source energy diverges; not in the L2 complement domain")

    # walk the singular support left to right in image coordinates: each
    # support adds its weight, so only the walk start and the piece
    # breakpoints need a mass evaluation; the density switches at the images
    # of the interior breakpoints
    i0 = next(i for i, p in enumerate(part.pieces) if p[1] > r_lo)
    dens = Fraction(part.pieces[i0][3])
    switches = [
        (scale.signed_mass(Fraction(p[0])), Fraction(p[3]))
        for p in part.pieces[i0 + 1 :]
        if Fraction(p[0]) <= r_hi
    ]

    start, images = _images(scale, sups)
    j_prev = images[0]
    v = f.eval(float(start if scale.stack_lo else r_lo))
    nodes = [(float(j_prev), v)]

    def advance(j_next):
        nonlocal j_prev, dens, v
        while switches and switches[0][0] <= j_next:
            bj, bdens = switches.pop(0)
            v += float(dens * (bj - j_prev))
            nodes.append((float(bj), v))
            j_prev, dens = bj, bdens
        v += float(dens * (j_next - j_prev))
        nodes.append((float(j_next), v))
        j_prev = j_next

    for sup, j in zip(sups, images):
        if sup.block is not None:
            advance(j + sup.block.weight)
    if not scale.stack_hi:
        advance(j_prev)  # the trailing stretch collapses onto the last image

    # collapsed stretches give repeated image positions; keep the first
    dedup = []
    for x, val in nodes:
        if dedup and x <= dedup[-1][0]:
            continue
        dedup.append((x, val))
    image_energy = _polyline_energy(dedup)

    if source == 0.0 and image_energy == 0.0:
        return 0.0, 0.0, 0.0
    gap = abs(source - image_energy) / max(source, image_energy)
    return source, image_energy, gap
