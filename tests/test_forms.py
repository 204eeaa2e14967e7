"""Energy form, membership, decomposition, interpolant, compensators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmext.cantor import cantor_fraction, iter_gaps
from bmext.config import preset
from bmext.forms import (
    BUILTIN_NAMES,
    IntervalPart,
    PiecewiseFn,
    bilinear,
    cantor_interpolant,
    compensator,
    energy,
    in_extended_space,
    is_in_complement,
    named_function,
    orthogonal_decompose,
)
from bmext.scale import make_scale

EX215 = preset("ex215")
EX216 = preset("ex216")


# -- builders ---------------------------------------------------------------


def test_builtin_names_all_construct():
    for name in BUILTIN_NAMES:
        f = named_function(EX215, name)
        assert math.isfinite(f(0.5))
    with pytest.raises(ValueError):
        named_function(EX215, "sombrero")


def test_tent_values():
    tent = named_function(EX215, "tent")
    assert tent(0.0) == 1.0
    assert tent(0.5) == 0.5
    assert tent(-0.25) == 0.75
    assert tent(3.0) == 0.0


def test_cantor_builtin_is_cantor_function_on_unit_block_line():
    c = named_function(EX215, "cantor")
    assert c(Fraction(1, 3)) == 0.5
    assert c(Fraction(1, 4)) == float(Fraction(1, 3))
    assert c(1.0) == 1.0
    assert c(-2.0) == 0.0
    assert c(5.0) == 1.0


def test_identity_and_scale_builtins():
    ident = named_function(EX215, "identity")
    sc = named_function(EX215, "scale")
    t = EX215.intervals[0].scale
    for x in (Fraction(-2), Fraction(1, 3), Fraction(3, 4), Fraction(2)):
        assert ident(x) == float(x)
        # piecewise evaluation accumulates in floats, one ulp of slack
        assert sc(x) == pytest.approx(t.eval(x), rel=1e-15)


# -- energy and membership ----------------------------------------------------


def test_energy_frozen_values():
    assert energy(EX215, named_function(EX215, "tent")) == 1.0
    assert energy(EX215, named_function(EX215, "cantor")) == 0.5
    assert energy(EX215, named_function(EX215, "indicator-smoothed")) == 1.0
    zero = 0.0 * named_function(EX215, "tent")
    assert energy(EX215, zero) == 0.0


def test_energy_scaling_is_quadratic():
    tent = named_function(EX215, "tent")
    assert energy(EX215, 2.0 * tent) == 4.0
    assert energy(EX215, tent + named_function(EX215, "cantor")) == 1.5


def test_energy_divergences():
    # constant Lebesgue rate over an unbounded cell
    assert energy(EX215, named_function(EX215, "identity")) == math.inf
    # singular rate against a boundary stack
    f = named_function(EX216, "cantor")
    assert energy(EX216, f) == math.inf
    assert not in_extended_space(EX216, f)


def test_extended_space_membership():
    assert in_extended_space(EX215, named_function(EX215, "tent"))
    assert in_extended_space(EX215, named_function(EX215, "cantor"))
    assert not in_extended_space(EX215, named_function(EX215, "identity"))


def test_complement_membership():
    assert is_in_complement(EX215, named_function(EX215, "cantor"))
    assert not is_in_complement(EX215, named_function(EX215, "scale"))
    assert is_in_complement(EX215, 0.0 * named_function(EX215, "tent"))


def test_bilinear_polarization():
    tent = named_function(EX215, "tent")
    ind = named_function(EX215, "indicator-smoothed")
    e_sum = energy(EX215, tent + ind)
    assert e_sum == pytest.approx(
        energy(EX215, tent) + 2 * bilinear(EX215, tent, ind) + energy(EX215, ind)
    )


def test_pieces_must_tile():
    with pytest.raises(ValueError):
        IntervalPart(0.0, ((0.0, 1.0, 1.0, 0.0), (2.0, 3.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        IntervalPart(0.0, ((1.0, 1.0, 0.0, 0.0),))


# -- decomposition -------------------------------------------------------------


def test_decompose_scale_splits_into_identity_plus_cantor():
    f1, f2 = orthogonal_decompose(EX215, named_function(EX215, "scale"))
    for x in (Fraction(-3, 2), Fraction(1, 3), Fraction(3, 4), Fraction(5, 2)):
        assert f1(x) == float(x)
        assert f2(x) == named_function(EX215, "cantor")(x)
    assert is_in_complement(EX215, f2)
    assert not is_in_complement(EX215, f1)


def test_decompose_complement_member_is_untouched():
    c = named_function(EX215, "cantor")
    f1, f2 = orthogonal_decompose(EX215, c)
    assert energy(EX215, f1) == 0.0
    for x in (0.25, 0.5, 0.75):
        assert f1(x) == 0.0
        assert f2(x) == c(x)


def test_decompose_h1_member_absorbs_constant_only():
    # the trap at 0 is Lebesgue-null, so the split of an absolutely
    # continuous function is exact
    tent = named_function(EX216, "tent")
    f1, f2 = orthogonal_decompose(EX216, tent)
    for x in (-1.5, -0.5, 0.5, 1.5):
        assert f1(x) == tent(x)
        assert f2(x) == 0.0


def test_decompose_is_pinned_at_first_anchor():
    tent = named_function(EX215, "tent")
    f1, f2 = orthogonal_decompose(EX215, tent)
    e1 = EX215.intervals[0].scale.e
    assert f1(e1) == 0.0
    assert f2(5.0) == 1.0  # constant remainder carries tent's value offset


def test_decompose_idempotent():
    f = named_function(EX215, "scale") + 0.5 * named_function(EX215, "tent")
    f1, f2 = orthogonal_decompose(EX215, f)
    g1, g2 = orthogonal_decompose(EX215, f1)
    for x in (-1.0, 0.2, 0.9):
        assert g1(x) == pytest.approx(f1(x), abs=1e-12)
        assert g2(x) == pytest.approx(0.0, abs=1e-12)
    h1, h2 = orthogonal_decompose(EX215, f2)
    assert energy(EX215, h1) == 0.0


def test_decompose_pythagoras_and_orthogonality():
    f = named_function(EX215, "tent") + named_function(EX215, "cantor")
    f1, f2 = orthogonal_decompose(EX215, f)
    assert bilinear(EX215, f1, f2) == 0.0
    assert energy(EX215, f) == pytest.approx(energy(EX215, f1) + energy(EX215, f2))
    # f2 pays nothing against a suite of compactly supported C1 members
    for name in ("tent", "indicator-smoothed"):
        g = named_function(EX215, name)
        assert abs(bilinear(EX215, f2, g)) <= 1e-8 * (1 + energy(EX215, f))


def test_decompose_bounded_intervals_mean_rate():
    # tent over gap closures: each bounded interval has mean rate -1, so
    # the local primitives vanish and f1 is carried by the global ramp
    cfg = preset("ex218", depth=3)
    tent = named_function(cfg, "tent")
    f1, f2 = orthogonal_decompose(cfg, tent)
    assert is_in_complement(cfg, f2)
    assert energy(cfg, f1) == pytest.approx(energy(cfg, tent))
    for x in (0.4, 0.5, 0.55):
        assert f1(x) + f2(x) == pytest.approx(tent(x), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    u=st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
    w=st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
    anchor=st.floats(-5, 5, allow_nan=False),
)
def test_decompose_properties_random_densities(u, w, anchor):
    pieces = (
        (-math.inf, -1.0, 0.0, 0.0),
        (-1.0, 0.25, u[0], w[0]),
        (0.25, 0.5, u[1], w[1]),
        (0.5, math.inf, 0.0, w[2]),
    )
    f = PiecewiseFn(EX215, (IntervalPart(anchor, pieces),))
    f1, f2 = orthogonal_decompose(EX215, f)
    assert is_in_complement(EX215, f2)
    assert bilinear(EX215, f1, f2) == 0.0
    total = energy(EX215, f)
    assert energy(EX215, f1) + energy(EX215, f2) == pytest.approx(total, rel=1e-12, abs=1e-12)
    for x in (-0.5, 0.3, 0.7):
        assert f1(x) + f2(x) == pytest.approx(f(x), rel=1e-9, abs=1e-9)


# -- interpolant ---------------------------------------------------------------


def middle_thirds(depth):
    return [(float(lo), float(hi)) for _, lo, hi, _ in iter_gaps(depth)]


def test_interpolant_level_values():
    phi = cantor_interpolant(0.0, 1.0, middle_thirds(3))
    assert phi.plateau_value(1 / 3, 2 / 3) == Fraction(1, 2)
    assert phi.plateau_value(1 / 9, 2 / 9) == Fraction(3, 4)
    assert phi.plateau_value(7 / 9, 8 / 9) == Fraction(1, 4)


def test_interpolant_reproduces_mirrored_cantor_function():
    phi = cantor_interpolant(0.0, 1.0, middle_thirds(5))
    for _, lo, hi, _ in iter_gaps(5):
        assert Fraction(phi.plateau_value(float(lo), float(hi))) == 1 - cantor_fraction(lo)


def test_interpolant_monotone_and_pinned():
    phi = cantor_interpolant(0.0, 1.0, middle_thirds(6))
    values = [v for _, _, v in phi.plateaus]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert phi(0.0) == 1.0
    assert phi(1.0) == 0.0
    xs = [i / 200 for i in range(201)]
    ys = [phi(x) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))


def test_interpolant_scaled_support():
    # same staircase on [2, 2.5]
    fam = [(2 + 0.5 * lo, 2 + 0.5 * hi) for lo, hi in middle_thirds(3)]
    phi = cantor_interpolant(2.0, 2.5, fam)
    assert phi.plateau_value(2 + 0.5 / 3, 2 + 1.0 / 3) == Fraction(1, 2)


def test_interpolant_rejects_overlap():
    with pytest.raises(ValueError):
        cantor_interpolant(0.0, 1.0, [(0.1, 0.4), (0.3, 0.6)])
    with pytest.raises(ValueError):
        cantor_interpolant(0.0, 1.0, [(0.5, 1.5)])


# -- compensators ----------------------------------------------------------------


def test_open_boundary_compensator_bound_grid():
    scale = make_scale(0.0, math.inf)
    for h in (0.5, 1.0, 2.0):
        for eps in (0.1, 0.01):
            for n in (1, 4):
                r = compensator("open-boundary", scale, 0.0, h, eps, n)
                assert r.e1_bound < eps / (2 * n)
                assert r.certified()
                assert r(0.0) == h


def test_open_boundary_compensator_shape():
    scale = make_scale(0.0, math.inf)
    r = compensator("open-boundary", scale, 0.0, 1.0, 0.1, 1)
    lo, hi = r.support
    assert lo == 0.0 and hi <= 0.1 / 8
    assert r(hi) == pytest.approx(0.0, abs=1e-12)
    assert r(2 * hi) == 0.0
    mid = r(hi / 2)
    assert 0.0 <= mid <= 1.0


def test_open_boundary_compensator_right_side():
    scale = make_scale(-math.inf, 0.0)
    r = compensator("open-boundary", scale, 0.0, 1.0, 0.1, 2)
    assert r(0.0) == 1.0
    assert r(-1.0) == 0.0
    assert r.e1_bound < 0.1 / 4


def test_open_boundary_requires_stacked_endpoint():
    closed = make_scale(0.0, math.inf, include_lo=True)
    with pytest.raises(ValueError):
        compensator("open-boundary", closed, 0.0, 1.0, 0.1, 1)


def test_zero_height_compensator():
    r = compensator("open-boundary", make_scale(0.0, math.inf), 0.0, 0.0, 0.1, 1)
    assert r.e1_bound == 0.0 and r.certified()
    assert r(0.0) == 0.0


def test_cantor_plateau_compensator():
    r = compensator("cantor-plateau", None, 0.0, 1.0, 0.1, 1, beta=0.04)
    assert r.e1_bound <= 0.04
    assert r.e1_bound < 0.05
    assert r(0.0) == 1.0
    assert r(0.04) == 0.0
    assert r(1.0) == 0.0


def test_cantor_plateau_bound_pinned():
    # recorded values: the plateau family is the middle-thirds gaps to depth 8
    assert compensator("cantor-plateau", None, 0.0, 1.0, 0.1, 1, beta=0.04).e1_bound == (
        0.01147975489635726
    )
    assert compensator("cantor-plateau", None, 0.5, 0.3, 0.05, 3, beta=0.01).e1_bound == (
        0.0002582944851680058
    )


def test_cantor_plateau_rejects_wide_support():
    with pytest.raises(ValueError):
        compensator("cantor-plateau", None, 0.0, 1.0, 0.1, 1, beta=0.2)
    with pytest.raises(ValueError):
        compensator("cantor-plateau", None, 0.0, 1.0, 0.1, 1)


def test_compensator_validates_arguments():
    with pytest.raises(ValueError):
        compensator("open-boundary", make_scale(0.0, math.inf), 0.0, 1.0, -0.1, 1)
    with pytest.raises(ValueError):
        compensator("sideways", None, 0.0, 1.0, 0.1, 1)
