"""Darning transform, image measure, and the energy-preserving representation."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmext.cantor import CantorBlock
from bmext.config import ExtensionConfig, IntervalSpec, preset
from bmext.darning import (
    DegenerateDarning,
    _images,
    _supports,
    darn,
    darned_energy,
    darning_map,
    energy_equivalence_check,
)
from bmext.forms import IntervalPart, PiecewiseFn, named_function
from bmext.scale import make_scale
from strategies import random_scales

EX215 = preset("ex215")
SOJOURN = preset("darning-sojourn")


def test_darning_map_is_cantor_function_on_unit_block():
    assert darning_map(EX215, 0, Fraction(1, 3)) == 0.5
    assert darning_map(EX215, 0, Fraction(2, 3)) == 0.5
    assert darning_map(EX215, 0, Fraction(1, 9)) == 0.25
    assert darning_map(EX215, 0, 0) == 0.0
    assert darning_map(EX215, 0, 1) == 1.0


def test_darning_map_monotone_and_collapsing():
    xs = [Fraction(k, 64) for k in range(65)]
    ys = [darning_map(EX215, 0, x) for x in xs]
    assert all(a <= b for a, b in zip(ys, ys[1:]))
    # constant across a gap closure
    assert darning_map(EX215, 0, Fraction(7, 9)) == darning_map(EX215, 0, Fraction(8, 9))


def test_darning_map_domain():
    with pytest.raises(ValueError):
        darning_map(EX215, 0, 2.0)
    with pytest.raises(ValueError):
        darning_map(EX215, 0, -0.5)
    # stacked endpoint maps to infinity
    assert darning_map(preset("ex216"), 0, 0.0) == math.inf


def test_darn_ex215_shape_and_atoms():
    spec = darn(EX215, 0, depth=4)
    assert (spec.source_lo, spec.source_hi) == (0.0, 1.0)
    assert (spec.image_lo, spec.image_hi) == (0.0, 1.0)
    assert not spec.include_lo and not spec.include_hi
    assert len(spec.atoms) == 2**4 - 1
    assert len(spec.residue) == 2**4
    assert spec.atom_mass(0.5) == Fraction(1, 3)
    assert spec.atom_mass(0.25) == Fraction(1, 9)
    assert spec.slow_reflection() == (False, False)
    locs = [y for y, _ in spec.atoms]
    assert locs == sorted(locs)


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
def test_darn_conserves_mass_exactly(depth):
    spec = darn(EX215, 0, depth=depth)
    assert spec.total_mass() == 1
    s2 = darn(SOJOURN, 1, depth=depth)
    assert s2.total_mass() == 2
    s3 = darn(preset("ex216"), 0, depth=depth)
    assert s3.total_mass() == Fraction(1, 2)


def test_darn_sojourn_boundary():
    spec = darn(SOJOURN, 1, depth=4)
    assert (spec.image_lo, spec.image_hi) == (0.0, 1.0)
    assert spec.include_lo and not spec.include_hi
    assert spec.atom_mass(0.0) == 1
    assert spec.slow_reflection() == (True, False)


def test_darn_stacked_interval_unbounded_image():
    spec = darn(preset("ex216"), 0, depth=5)
    assert (spec.source_lo, spec.source_hi) == (-0.5, 0.0)
    assert spec.image_lo == 0.0
    assert spec.image_hi == math.inf
    assert not spec.include_lo and not spec.include_hi


def test_darn_requires_singular_mass():
    with pytest.raises(DegenerateDarning):
        darn(preset("ex218", depth=3), 0)
    with pytest.raises(DegenerateDarning):
        darning_map(preset("ex217", depth=3), 0, -2.0)


def test_darned_energy_peak():
    spec = darn(EX215, 0, depth=3)
    assert darned_energy(spec, [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]) == 2.0


def test_darned_energy_constant_with_included_endpoints():
    cfg = ExtensionConfig(
        (IntervalSpec(make_scale(0.0, 1.0, include_lo=True, include_hi=True, blocks=[(0, 1, 1)])),)
    )
    spec = darn(cfg, 0, depth=3)
    assert spec.include_lo and spec.include_hi
    # anchor sits at the interval midpoint, so the image is centered
    assert (spec.image_lo, spec.image_hi) == (-0.5, 0.5)
    assert darned_energy(spec, [(-0.5, 1.0), (0.5, 1.0)]) == 0.0


def test_darned_energy_boundary_conditions():
    spec = darn(EX215, 0, depth=3)
    with pytest.raises(ValueError):
        darned_energy(spec, [(0.0, 0.3), (1.0, 0.0)])
    with pytest.raises(ValueError):
        darned_energy(spec, [(0.0, 0.0), (1.0, 0.2)])
    with pytest.raises(ValueError):
        darned_energy(spec, [(0.0, 0.0), (1.5, 0.0)])
    with pytest.raises(ValueError):
        darned_energy(spec, [(0.5, 1.0)])
    # sojourn side is reflecting, no constraint there
    s2 = darn(SOJOURN, 1, depth=3)
    e = darned_energy(s2, [(0.0, 1.0), (0.5, 0.0)])
    assert e == pytest.approx(1.0)


def test_energy_equivalence_cantor():
    c = named_function(EX215, "cantor")
    src, img, gap = energy_equivalence_check(EX215, 0, c, depth=20)
    assert src == 0.5
    assert gap <= 1e-6


def test_energy_equivalence_sub_block_density():
    pieces = (
        (-math.inf, 0.0, 0.0, 0.0),
        (0.0, 1.0 / 3.0, 0.0, 2.0),
        (1.0 / 3.0, math.inf, 0.0, 0.0),
    )
    f = PiecewiseFn(EX215, (IntervalPart(0.0, pieces),))
    src, img, gap = energy_equivalence_check(EX215, 0, f, depth=12)
    assert src == pytest.approx(1.0, rel=1e-9)
    assert gap <= 2**-12


def test_energy_equivalence_zero_and_rejection():
    z = 0.0 * named_function(EX215, "cantor")
    assert energy_equivalence_check(EX215, 0, z, depth=5) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        energy_equivalence_check(EX215, 0, named_function(EX215, "tent"))


def test_darn_deterministic():
    a = darn(EX215, 0, depth=6)
    b = darn(EX215, 0, depth=6)
    assert a == b


# -- the singular-support walk on random scales ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(scale=random_scales(), depth=st.integers(0, 5))
def test_w_supports_ordered_with_tails_on_stacked_ends(scale, depth):
    sups = scale.w_supports(depth)
    assert all(s.lo < s.hi for s in sups)
    assert all(p.hi <= q.lo for p, q in zip(sups, sups[1:]))
    tails = [s for s in sups if s.block is None]
    assert len(tails) == scale.stack_lo + scale.stack_hi
    if scale.stack_lo:
        assert sups[0] in tails and sups[0].lo == Fraction(scale.lo)
    if scale.stack_hi:
        assert sups[-1] in tails and sups[-1].hi == Fraction(scale.hi)
    shells = sorted(s.shell for s in sups if s.shell is not None)
    assert shells == sorted(list(range(depth)) * (scale.stack_lo + scale.stack_hi))


@settings(max_examples=60, deadline=None)
@given(scale=random_scales(), depth=st.integers(0, 5))
def test_darn_walk_matches_direct_images(scale, depth):
    sups = scale.w_supports(depth)
    assume(sups)
    spec = darn(ExtensionConfig((IntervalSpec(scale),)), 0, depth)
    assert spec.total_mass() == Fraction(spec.source_hi) - Fraction(spec.source_lo)
    # every gap atom sits at the exact image of its gap, evaluated directly
    atoms = Counter(spec.atoms)
    for sup in sups:
        if sup.block is not None:
            for _, glo, ghi, _ in sup.block.gaps(depth):
                assert atoms[(float(scale.signed_mass(glo)), ghi - glo)] > 0


# -- the closed-form darn against the per-item Fraction loop ---------------------------


def _darn_items_by_fraction(config, n, depth):
    """The atoms and residue of ``darn``, one Fraction add and subtract per item.

    This is the former body of ``darn``, kept as the oracle for its closed form.
    """
    iv, sups, r_lo, r_hi = _supports(config, n, depth)
    _, images = _images(iv.scale, sups)
    atoms, residue = [], []
    prev_hi = r_lo if iv.include_lo else None
    for sup, j in zip(sups, images):
        if prev_hi is not None and sup.lo > prev_hi:
            atoms.append((float(j), sup.lo - prev_hi))
        prev_hi = sup.hi
        blk = sup.block
        if blk is None:
            residue.append((float(j), sup.hi - sup.lo))
            continue
        atoms.extend((float(j + val), ghi - glo) for _, glo, ghi, val in blk.gaps(depth))
        half = blk.weight / 2 ** (depth + 1)
        residue.extend((float(j + val + half), rhi - rlo) for rlo, rhi, val in blk.remnants(depth))
    if iv.include_hi and r_hi > prev_hi:
        atoms.append((float(images[-1]), r_hi - prev_hi))
    atoms.sort(key=lambda a: a[0])
    residue.sort(key=lambda a: a[0])
    return atoms, residue


def _exactly(items):
    return [(loc.hex(), mass) for loc, mass in items]


@pytest.mark.parametrize("depth", range(10))
@settings(max_examples=8, deadline=None)
@given(scale=random_scales())
def test_closed_form_darn_matches_the_fraction_loop(scale, depth):
    assume(scale.w_supports(0))
    cfg = ExtensionConfig((IntervalSpec(scale),))
    spec = darn(cfg, 0, depth)
    atoms, residue = _darn_items_by_fraction(cfg, 0, depth)
    # same floats bit for bit, same exact masses, in the same order
    assert _exactly(spec.atoms) == _exactly(atoms)
    assert _exactly(spec.residue) == _exactly(residue)
    assert spec.total_mass() == sum((m for _, m in atoms + residue), Fraction(0))


def test_darn_builds_no_gap_or_remnant_list(monkeypatch):
    def refuse(self, depth):
        raise AssertionError("darn listed a block's gaps or remnants")

    expected = [darn(cfg, n, 6) for cfg, n in ((EX215, 0), (SOJOURN, 0), (SOJOURN, 1))]
    monkeypatch.setattr(CantorBlock, "gaps", refuse)
    monkeypatch.setattr(CantorBlock, "remnants", refuse)
    assert [darn(cfg, n, 6) for cfg, n in ((EX215, 0), (SOJOURN, 0), (SOJOURN, 1))] == expected
