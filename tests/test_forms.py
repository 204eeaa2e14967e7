"""Energy form, membership, decomposition, interpolant, compensators."""

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmext.cantor import CantorBlock, cantor_fraction
from bmext.config import ExtensionConfig, IntervalSpec, preset
from bmext.forms import (
    BUILTIN_NAMES,
    IntervalPart,
    PiecewiseFn,
    bilinear,
    compensator,
    energy,
    in_extended_space,
    is_in_complement,
    named_function,
    orthogonal_decompose,
)
from bmext.scale import make_scale
from strategies import random_configs

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


def _rays(right: float) -> PiecewiseFn:
    # rate 1 on the left ray and ``right`` on the right one, across ex215's block
    return PiecewiseFn(EX215, (IntervalPart(0.0, (
        (-math.inf, 0.0, 1.0, 0.0), (0.0, math.inf, right, 0.0))),))


def test_bilinear_of_opposite_infinite_terms_is_refused():
    f, g = _rays(1.0), _rays(-1.0)
    assert energy(EX215, f) == energy(EX215, g) == math.inf
    with pytest.raises(ValueError, match="undefined here: both energies are infinite"):
        bilinear(EX215, f, g)
    # one sign on both rays, or one ray alone, keeps its infinite value
    assert bilinear(EX215, f, f) == bilinear(EX215, g, g) == math.inf
    assert bilinear(EX215, f, _rays(0.0)) == math.inf
    assert bilinear(EX215, g, _rays(0.0)) == math.inf


def test_pieces_must_tile():
    with pytest.raises(ValueError):
        IntervalPart(0.0, ((0.0, 1.0, 1.0, 0.0), (2.0, 3.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        IntervalPart(0.0, ((1.0, 1.0, 0.0, 0.0),))


def _scanned_zip(f, g):
    """The common refinement, each cell's pieces found by a scan of both tilings
    from the start: the reference for ``PiecewiseFn._zip_pieces``."""
    for pa, pb in zip(f.parts, g.parts):
        cells = []
        cuts = sorted({x for lo, hi, _, _ in pa.pieces + pb.pieces for x in (lo, hi)})
        for lo, hi in zip(cuts, cuts[1:]):
            ua = wa = ub = wb = 0.0
            for plo, phi, u, w in pa.pieces:
                if plo <= lo and hi <= phi:
                    ua, wa = u, w
                    break
            for plo, phi, u, w in pb.pieces:
                if plo <= lo and hi <= phi:
                    ub, wb = u, w
                    break
            cells.append((lo, hi, ua, wa, ub, wb))
        yield pa, pb, cells


# two rays and a staircase block between them, each interval with the points
# its random tilings may cut at
TILED = ExtensionConfig((
    IntervalSpec(make_scale(-math.inf, -1.0, include_hi=True)),
    IntervalSpec(make_scale(0.0, 1.0, True, True, [(0.0, 1.0, 1)])),
    IntervalSpec(make_scale(2.0, math.inf, include_lo=True)),
))
TILE_CUTS = ((-4.0, -3.0, -2.5, -2.0, -1.5), tuple(k / 12 for k in range(1, 12)),
             (2.5, 3.0, 4.0, 6.0))
RATES = st.sampled_from([0.0, 0.0, 1.0, -0.5, 0.1, 3.0, -7.25])


@st.composite
def tiled_functions(draw):
    """Functions on TILED: random tilings with infinite ends, some parts empty."""
    parts = []
    for iv, points in zip(TILED.intervals, TILE_CUTS):
        if draw(st.booleans()) and draw(st.booleans()):
            parts.append(IntervalPart(0.0, ()))
            continue
        ends = [iv.lo, *sorted(draw(st.sets(st.sampled_from(points)))), iv.hi]
        parts.append(IntervalPart(draw(RATES), tuple(
            (lo, hi, draw(RATES), draw(RATES)) for lo, hi in zip(ends, ends[1:]))))
    return PiecewiseFn(TILED, tuple(parts))


def _combined(f, g):
    # opposite infinite Lebesgue terms leave the form undefined
    try:
        form = bilinear(TILED, f, g)
    except ValueError as exc:
        form = str(exc)
    return form, (f + g).parts, (f - g).parts


@settings(max_examples=300, deadline=None)
@given(f=tiled_functions(), g=tiled_functions())
def test_bisected_refinement_matches_the_scan(f, g):
    assert list(f._zip_pieces(g)) == list(_scanned_zip(f, g))
    got = _combined(f, g)
    with mock.patch.object(PiecewiseFn, "_zip_pieces", _scanned_zip):
        assert got == _combined(f, g)


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


def _scanned_anchors(config, f):
    """f1's anchors, the mean-rate ramp scanning every interval for each
    anchor: the reference for ``orthogonal_decompose``."""
    flat, c1 = [], []
    for part, iv in zip(f.parts, config.intervals):
        c = math.fsum(u * (hi - lo) for lo, hi, u, _ in part.pieces) / iv.length \
            if iv.bounded else 0.0
        c1.append(c)
        if c:
            flat.append((iv.lo, iv.hi, c))

    def global_ramp(x):
        lo_q, hi_q = (0.0, x) if x >= 0.0 else (x, 0.0)
        s = math.fsum(c * (min(hi, hi_q) - max(lo, lo_q))
                      for lo, hi, c in flat if min(hi, hi_q) > max(lo, lo_q))
        return s if x >= 0.0 else -s

    anchors = []
    for part, iv, c in zip(f.parts, config.intervals, c1):
        e = iv.scale.e
        base = iv.lo if math.isfinite(iv.lo) else iv.hi if math.isfinite(iv.hi) else e
        lo_q, hi_q = sorted((base, e))
        local = math.fsum((u - c) * (min(hi, hi_q) - max(lo, lo_q))
                          for lo, hi, u, _ in part.pieces if min(hi, hi_q) > max(lo, lo_q))
        anchors.append((-local if e < base else local) + global_ramp(e))
    return [a - anchors[0] for a in anchors]


@settings(max_examples=300, deadline=None)
@given(config=random_configs(), name=st.sampled_from(BUILTIN_NAMES))
def test_decompose_anchors_match_the_full_scan(config, name):
    # overlapping and nested intervals included: the bisection over the lows
    # and the running maximum of the highs keeps every term, in order
    assume(config.intervals)
    f = named_function(config, name)
    f1, _ = orthogonal_decompose(config, f)
    assert [p.anchor_value for p in f1.parts] == _scanned_anchors(config, f)


# -- interpolant ---------------------------------------------------------------


def staircase(c=0.0, beta=1.0):
    # the cantor-plateau compensator of unit height is the interpolant itself
    return compensator("cantor-plateau", None, c, 1.0, 10.0, 1, beta=beta)


def test_interpolant_level_values():
    phi = staircase()
    assert phi(1 / 2) == 1 / 2
    assert phi(1.5 / 9) == 3 / 4
    assert phi(7.5 / 9) == 1 / 4
    assert phi(1 / 3) == phi(2 / 3) == 1 / 2


def test_interpolant_reproduces_mirrored_cantor_function():
    phi = staircase()
    for _, lo, hi, _ in CantorBlock(0, 1).gaps(8):
        mid = (float(lo) + float(hi)) / 2
        assert Fraction(phi(mid)) == 1 - cantor_fraction(lo)


def test_interpolant_monotone_and_pinned():
    phi = staircase()
    mids = sorted((float(lo) + float(hi)) / 2 for _, lo, hi, _ in CantorBlock(0, 1).gaps(8))
    values = [phi(x) for x in mids]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert phi(0.0) == 1.0
    assert phi(1.0) == 0.0
    xs = [i / 200 for i in range(201)]
    ys = [phi(x) for x in xs]
    assert all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))


@dataclass(frozen=True)
class CantorInterpolant:
    """The staircase the cantor-plateau compensator once evaluated, kept as a
    reference: 1 at lo, 0 at hi, constant on each plateau, found by a scan."""

    lo: float
    hi: float
    plateaus: tuple[tuple[float, float, Fraction], ...]

    def eval(self, x: float) -> float:
        if not self.lo <= x <= self.hi:
            raise ValueError(f"{x} outside [{self.lo}, {self.hi}]")
        left_v, left_x = Fraction(1), self.lo
        right_v, right_x = Fraction(0), self.hi
        for plo, phi, v in self.plateaus:
            if plo <= x <= phi:
                return float(v)
            if phi < x and phi >= left_x:
                left_v, left_x = v, phi
            if plo > x and plo <= right_x:
                right_v, right_x = v, plo
        if right_x == left_x:
            return float(left_v)
        frac = (x - left_x) / (right_x - left_x)
        return float(left_v) + frac * (float(right_v) - float(left_v))


def reference_staircase(c, beta):
    """The former plateau layout: the unit gaps of levels <= 8, at 1 - their value."""
    plateaus = sorted(
        (c + beta * float(glo), c + beta * float(ghi), 1 - value)
        for _, glo, ghi, value in CantorBlock(0, 1).gaps(8)
    )
    return CantorInterpolant(c, c + beta, tuple(plateaus))


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(min_value=-1e3, max_value=1e3),
    log_beta=st.floats(min_value=-60.0, max_value=0.0),
    h=st.floats(min_value=0.01, max_value=4.0),
    data=st.data(),
)
def test_cantor_plateau_equals_the_scanned_staircase(c, log_beta, h, data):
    # beta from 1 down to the refusal, where two plateau ends round together
    beta = 10.0**log_beta
    try:
        r = compensator("cantor-plateau", None, c, h, 1e9, 1, beta=beta)
    except ValueError:
        ref = reference_staircase(c, beta)
        assert not all(lo < hi for lo, hi, _ in ref.plateaus)
        return
    ref = reference_staircase(c, beta)
    assert _plateaus(r) == ref.plateaus
    ends = [x for lo, hi, _ in ref.plateaus for x in (lo, hi)]
    xs = [c, c + beta, *data.draw(st.lists(st.sampled_from(ends), max_size=20))]
    xs += data.draw(st.lists(st.floats(min_value=c, max_value=c + beta), max_size=40))
    for x in xs:
        assert r(x) == h * ref.eval(x)


def test_interpolant_scaled_support():
    # same staircase on [2, 2.5]
    phi = staircase(2.0, 0.5)
    assert phi(2 + 0.5 / 2) == 1 / 2
    assert phi(2 + 0.5 * 1.5 / 9) == 3 / 4
    assert phi(1.9) == phi(2.6) == 0.0


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
    # no room for distinct float plateaus
    for c, beta in ((0.0, 0.0), (0.0, -0.01), (1e16, 1.0)):
        with pytest.raises(ValueError):
            compensator("cantor-plateau", None, c, 1.0, 0.1, 1, beta=beta)


# sha256 of repr((e1_bound, plateaus, phi on 998 points)), recorded when the
# plateau values were still found by a refinement over an arbitrary interval
# family: the 24 parameter sets of verify's compensator check and demo 03's
COMPENSATOR_PINS = {
    "open-boundary 0.5 0.1 1": "ab3f876d2952d771a6de0c2d0cf19f7728aa1cc594913e65a8469af0272dd7a8",
    "cantor-plateau 0.5 0.1 1": "5d44db9da995bab01f2f85ebb048ffd3f08a1b97ed4f21d708797df6ca45aff1",
    "open-boundary 0.5 0.1 4": "62d79cd50b234825c633a94eccb68b7acbd91d739166761c0d67c47c965cd62b",
    "cantor-plateau 0.5 0.1 4": "3d43e7485d8873c3fca5fc0145b62f7c992cda2b7a3595e9c0fd1596f57d7064",
    "open-boundary 0.5 0.01 1": "c4ed8306758ce847da8e4f693344eb698eaa4145917b5ac09fef7f8151cf6cbe",
    "cantor-plateau 0.5 0.01 1": "0c77362835b811ab4ff38c1ba7dda52ed8130eaaa9f2086dece3e8533a11ac3b",
    "open-boundary 0.5 0.01 4": "81f22b80e837b1ccca387008f979fd5d19d03ff41d950af1244391d24bf53608",
    "cantor-plateau 0.5 0.01 4": "0dab6432457bcd9a03bfcbd3e4a178a086b3c8e54d12dd16e291ded6b32d3bfb",
    "open-boundary 1.0 0.1 1": "42220f70015efb970cf76bc6f15b79a7f25811c5a9ad54c5fe9126917fea40c7",
    "cantor-plateau 1.0 0.1 1": "40534d7c12b2732611ee661299a915cf3b6b03983675f38e4d3b80873cfddaad",
    "open-boundary 1.0 0.1 4": "7794cbe2ae450e8b92d8c3c4ce2efad9dc245d75d8f26180c13ef8b89c8145ee",
    "cantor-plateau 1.0 0.1 4": "3b550a5c17acd3640f297f3eca18ce4347b73bc4e6b2aa1bfb6924e650b48d46",
    "open-boundary 1.0 0.01 1": "0759a9cd3496fd8e6051cefae45734a3ab98a81383bb835ac39f5745bb2ba008",
    "cantor-plateau 1.0 0.01 1": "673b9041399c1b2d7a135ebd9ba41639f1533ece00b95d5b72ddf3001fc12012",
    "open-boundary 1.0 0.01 4": "c3e1ce744c7b5f04aac90b4e19348a31054bb0a478f1ac01b91fe6ca0b01e0ae",
    "cantor-plateau 1.0 0.01 4": "a5ac14ebb2a5f12bdabdbe303c1b1db78c3a73361a0d527d9c43d35dfc7ed920",
    "open-boundary 2.0 0.1 1": "cbc44a5c4b13f4190edf64b29d0e02094e6d0975741aca3331f6ea573573fd13",
    "cantor-plateau 2.0 0.1 1": "3bc7fe416cebfa2b0e1c9c9571799f92c95c6d7c49189598d8138609d5bd6532",
    "open-boundary 2.0 0.1 4": "cac904026514129f5f1711fe446a626d9e63288b9eb9de02bf041d8ec2a114de",
    "cantor-plateau 2.0 0.1 4": "85728e0228113e11a34929d720bd935af890e623e17c2768e5d83657e062a322",
    "open-boundary 2.0 0.01 1": "046427b0536e9a7673d65d27350cc89b6450cf1a0023c72287363605c4830198",
    "cantor-plateau 2.0 0.01 1": "e5be8171a1d52f850cd32ab96a5a437be393b55871d5a7b391477ced9a03de32",
    "open-boundary 2.0 0.01 4": "65801289170dc0b8dd781a6ae0c6a646e28f079c4c5e35727a8423e6f225f73f",
    "cantor-plateau 2.0 0.01 4": "062d45cd40632fd4635989cf2c5239fc1fdc52ed9c0c30b0c2c5cd0cb3e87997",
    "demo cantor-plateau": "4da8bb2efd06f40185b55d0e98ef6562db4636c884e0cc2cacc3ad2f41bd3385",
}


def _pinned_compensators():
    stacked = EX216.interval(1).scale
    for h in (0.5, 1.0, 2.0):
        for eps in (0.1, 0.01):
            for n in (1, 4):
                yield f"open-boundary {h} {eps} {n}", compensator(
                    "open-boundary", stacked, 0.0, h, eps, n
                )
                beta = eps / (8 * n * h * h)
                yield f"cantor-plateau {h} {eps} {n}", compensator(
                    "cantor-plateau", None, 0.0, h, eps, n, beta=beta
                )
    yield "demo cantor-plateau", compensator(
        "cantor-plateau", EX215.interval(0).scale, 0.5, 1.0, 0.01, 1, beta=0.01 / 8
    )


def _plateaus(result):
    """The staircase a cantor-plateau result evaluates, read off its closure as
    the sorted (lo, hi, value) plateaus; None for any other result."""
    fn = result._eval
    cells = (cell.cell_contents for cell in fn.__closure__ or ())
    free = dict(zip(fn.__code__.co_freevars, cells))
    if "values" not in free:
        return None
    return tuple(zip(free["lows"], free["highs"], map(Fraction, free["values"])))


def test_compensators_match_their_pins():
    seen = {}
    for key, r in _pinned_compensators():
        lo, hi = r.support
        a, b = lo - (hi - lo) / 4, hi + (hi - lo) / 4
        grid = [r(a + (b - a) * i / 997) for i in range(998)]
        blob = repr((r.e1_bound, _plateaus(r), grid)).encode()
        seen[key] = hashlib.sha256(blob).hexdigest()
    assert seen == COMPENSATOR_PINS


def test_compensator_validates_arguments():
    with pytest.raises(ValueError):
        compensator("open-boundary", make_scale(0.0, math.inf), 0.0, 1.0, -0.1, 1)
    with pytest.raises(ValueError):
        compensator("sideways", None, 0.0, 1.0, 0.1, 1)
