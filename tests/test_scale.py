import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmext.cantor import CantorBlock, cantor_fraction
from bmext.scale import _Stack, anchor_point, make_scale
from strategies import random_configs, random_scales


def ex215_scale():
    """Whole-line scale t(x) = x + C(x) with a unit block on [0, 1]."""
    return make_scale(-math.inf, math.inf, blocks=[(0, 1, 1)])


def test_anchor_rule():
    assert anchor_point(0.0, 1.0) == 0.5
    assert anchor_point(-math.inf, 2.0) == 1.0
    assert anchor_point(-3.0, math.inf) == -2.0
    assert anchor_point(-math.inf, math.inf) == 0.0


def test_whole_line_eval():
    t = ex215_scale()
    assert t.e == 0.0
    assert t(0.0) == 0.0
    assert t(1.0) == 2.0
    assert t(Fraction(1, 3)) == float(Fraction(5, 6))
    assert t(0.25) == float(Fraction(1, 4) + Fraction(1, 3))  # 0.25 is exactly 1/4
    assert t(-3.0) == -3.0
    assert t(7.5) == 8.5


def test_eval_monotone_strict():
    t = ex215_scale()
    xs = [i / 37.0 - 0.3 for i in range(60)]
    vals = [t(x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert a < b


def test_lebesgue_dominated_by_dt():
    t = ex215_scale()
    for u, v in [(-1.0, 0.5), (0.1, 0.9), (0.4, 0.45), (0.9, 3.0)]:
        assert t.eval(v) - t.eval(u) >= (v - u) - 1e-15


def _uw_split(t, u, v):
    """Split dt((u, v]) into its Lebesgue and singular parts."""
    return abs(v - u), t.singular_between(u, v)


def _boundary_value(t, side: str) -> float:
    """Limit of t at an endpoint: finite iff the endpoint is included."""
    if side == "lo":
        if not math.isfinite(t.lo) or t.stack_lo:
            return -math.inf
        return t.eval(t.lo)
    if not math.isfinite(t.hi) or t.stack_hi:
        return math.inf
    return t.eval(t.hi)


def test_uw_split():
    t = ex215_scale()
    leb, sing = _uw_split(t, 0.0, Fraction(1, 3))
    assert leb == 1.0 / 3.0
    assert abs(sing - 0.5) < 1e-15
    # exact evaluation through the full mass
    assert t.singular_between(0.0, 1.0) == 1.0
    # split accounting matches the Stieltjes mass
    for u, v in [(0.0, 0.7), (-1.0, 2.0), (0.2, 0.3)]:
        leb, sing = _uw_split(t, u, v)
        assert abs((leb + sing) - (t.eval(v) - t.eval(u))) < 1e-11


def test_inverse_round_trip():
    t = ex215_scale()
    assert abs(t.inverse(1.0) - 0.5) < 1e-9
    for x in [-2.0, -0.1, 0.2, 1.0 / 3.0, 0.77, 1.0, 4.5]:
        y = t(x)
        assert abs(t.inverse(y, tol=1e-10) - x) <= 1e-10 * (1.0 + abs(y))


def test_breakpoints_of_t_exact():
    # plateau endpoints of the unit block map to exact dyadic-plus-identity values
    t = ex215_scale()
    assert t(Fraction(1, 3)) == float(Fraction(1, 3) + Fraction(1, 2))
    assert t(Fraction(2, 3)) == float(Fraction(2, 3) + Fraction(1, 2))
    assert t(Fraction(1, 9)) == float(Fraction(1, 9) + Fraction(1, 4))


def test_included_endpoint_finite():
    t = make_scale(0.0, math.inf, include_lo=True)
    assert t.e == 1.0
    assert t(0.0) == -1.0
    assert _boundary_value(t, "lo") == -1.0
    assert _boundary_value(t, "hi") == math.inf


def test_excluded_endpoint_diverges_monotonically():
    t = make_scale(0.0, math.inf, include_lo=False)
    assert _boundary_value(t, "lo") == -math.inf
    assert t(0.0) == -math.inf
    # walking down the stack shells the scale drops without bound
    delta = 0.5  # min(1, (e - lo)/2) with e = 1
    prev = 0.0
    for k in range(1, 40):
        val = t(delta * 2.0**-k)
        assert val < prev
        prev = val
    assert prev < -30.0


def test_stack_shell_values_exact():
    # at shell boundaries the stack contributes exactly k units of mass
    t = make_scale(0.0, math.inf, include_lo=False)
    delta = 0.5
    for k in range(0, 10):
        x = delta * 2.0**-k
        # mass between x and e: k shells above x are complete, none partial
        expect = (x - 1.0) - float(k)
        assert t(x) == pytest.approx(expect, abs=1e-12)


def test_bounded_both_excluded():
    t = make_scale(0.0, 1.0)
    assert t.e == 0.5
    assert t(0.5) == 0.0
    assert _boundary_value(t, "lo") == -math.inf
    assert _boundary_value(t, "hi") == math.inf
    assert t(0.0) == -math.inf and t(1.0) == math.inf
    # inverse still lands inside
    for y in [-3.0, -1.0, 0.0, 2.5]:
        x = t.inverse(y, tol=1e-9)
        assert 0.0 < x < 1.0
        assert abs(t(x) - y) <= 1e-9 * (1.0 + abs(y))


def test_validation_rules():
    with pytest.raises(ValueError):
        make_scale(0.0, 1.0, include_lo=False, stack_lo=False, stack_hi=True)
    with pytest.raises(ValueError):
        make_scale(0.0, 1.0, include_lo=True, include_hi=True, stack_lo=True, stack_hi=False)
    with pytest.raises(ValueError):
        make_scale(-math.inf, math.inf, stack_lo=True)
    with pytest.raises(ValueError):
        make_scale(-math.inf, math.inf, include_hi=True)
    # block leaving the interval
    with pytest.raises(ValueError):
        make_scale(0.0, 1.0, include_lo=True, include_hi=True, blocks=[(0.5, 2.0, 1)])
    # overlapping blocks
    with pytest.raises(ValueError):
        make_scale(
            -math.inf, math.inf, blocks=[(0, 1, 1), (0.5, 1.5, 1)]
        )
    # block inside a stack zone
    with pytest.raises(ValueError):
        make_scale(0.0, math.inf, blocks=[(0.1, 0.2, 1)])


def test_blocks_may_touch():
    t = make_scale(-math.inf, math.inf, blocks=[(0, 1, 1), (1, 2, 1)])
    assert t.singular_between(0.0, 2.0) == 2.0


def test_stieltjes_mass_with_boundaries():
    t = make_scale(0.0, 1.0)
    # the dt-mass of (u, v] is t(v) - t(u), infinite at an excluded end
    assert t.eval(0.5) - t.eval(0.0) == math.inf
    assert t.eval(1.0) - t.eval(0.5) == math.inf
    assert math.isfinite(t.eval(0.75) - t.eval(0.25))


def test_integral_t_against_quadrature():
    t = ex215_scale()
    for u, v in [(-1.0, 0.5), (0.2, 0.8), (0.5, 2.0)]:
        n = 2000
        riemann = sum(t(u + (v - u) * (i + 0.5) / n) for i in range(n)) * (v - u) / n
        assert abs(t.integral_t(u, v) - riemann) < 2e-3 * (1 + abs(riemann))


def test_integral_t_with_stack():
    t = make_scale(0.0, math.inf, include_lo=False)
    u, v = 0.01, 0.9
    n = 6000
    riemann = sum(t(u + (v - u) * (i + 0.5) / n) for i in range(n)) * (v - u) / n
    assert abs(t.integral_t(u, v) - riemann) < 5e-3 * (1 + abs(riemann))


def test_w_supports_sorted():
    t = make_scale(0.0, 1.0, blocks=[(0.4, 0.6, 2)])
    supports = t.w_supports(8)
    los = [float(s.lo) for s in supports]
    assert los == sorted(los)
    # the block, eight shells per stack, and one tail per stack
    assert len(supports) == 1 + 2 * 8 + 2


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    w=st.floats(min_value=0.25, max_value=4.0),
)
def test_round_trip_property(x, w):
    t = make_scale(-math.inf, math.inf, blocks=[CantorBlock(-1, 1, Fraction(w).limit_denominator(64))])
    y = t(x)
    back = t.inverse(y, tol=1e-9)
    assert abs(back - x) <= 1e-9 * (1.0 + abs(y)) + 1e-12


@settings(max_examples=100, deadline=None)
@given(scale=random_scales(), frac=st.floats(min_value=0.001, max_value=0.999))
def test_round_trip_property_on_stacks_and_blocks(scale, frac):
    # the window is the interval, cut off three units from the anchor on an infinite side
    lo = scale.lo if math.isfinite(scale.lo) else scale.e - 3.0
    hi = scale.hi if math.isfinite(scale.hi) else scale.e + 3.0
    x = lo + frac * (hi - lo)
    y = scale.eval(x)
    assert abs(scale.inverse(y) - x) <= 1e-9 * (1.0 + abs(y)) + 1e-12


@settings(max_examples=100, deadline=None)
@given(scale=random_scales(), y=st.floats(min_value=-1e300, max_value=1e300))
def test_inverse_meets_its_tolerance_or_refuses(scale, y):
    try:
        x = scale.inverse(y)
    except ValueError:
        return
    assert scale.contains(x)
    assert abs(scale.eval(x) - y) <= 1e-9 * (1.0 + abs(y))


def test_inverse_deep_in_a_stack_and_far_out():
    # the root of t = 1000 lies within 1e-300 of the stacked end 0, and the
    # root of t = 1e300 a long way out on the half-line
    t = make_scale(-math.inf, 0.0)
    x = t.inverse(1000.0)
    assert -1e-300 < x < 0.0 and abs(t(x) - 1000.0) <= 1e-9 * 1001.0
    t = make_scale(0.0, math.inf)
    x = t.inverse(1e300)
    assert abs(t(x) - 1e300) <= 1e-9 * (1.0 + 1e300)


def test_inverse_refuses_what_no_float_reaches():
    # near a stacked end t grows by one per dyadic shell, so floats stop near 1100
    with pytest.raises(ValueError, match="no float x"):
        make_scale(0.0, 2.0, include_lo=True).inverse(1e300)
    with pytest.raises(ValueError, match="outside the scale range"):
        make_scale(0.0, 2.0, include_lo=True).inverse(-5.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.999))
def test_anchor_zero_property(frac):
    # anchor value is exactly zero across interval shapes
    scales = [
        make_scale(0.0, 1.0),
        make_scale(0.0, math.inf, include_lo=True, blocks=[(2, 3, 1)]),
        make_scale(-math.inf, 0.0, include_hi=True),
        make_scale(-math.inf, math.inf, blocks=[(0, 1, 1)]),
    ]
    for t in scales:
        assert t(t.e) == 0.0
        lo = t.lo if math.isfinite(t.lo) else t.e - 3.0
        hi = t.hi if math.isfinite(t.hi) else t.e + 3.0
        x = lo + (hi - lo) * frac
        if t.contains(x) and x != t.e:
            assert (t(x) > 0.0) == (x > t.e)


def _block_value(block, x):
    # the mass of [block.lo, x] under a block: weight * C((x - lo)/width), clipped
    return block.weight * cantor_fraction(min(max((Fraction(x) - block.lo) / block.width, 0), 1))


def _mass_to_edge_by_fraction(stack, x):
    # a stack's mass between x and its zone's interior edge: Fraction
    # distance, a shell block, its value
    fx = Fraction(x)
    if stack.side == "lo":
        if fx <= stack.at:
            return math.inf
        r = (fx - stack.at) / stack.delta
    else:
        if fx >= stack.at:
            return math.inf
        r = (stack.at - fx) / stack.delta
    if r >= 1:
        return Fraction(0)
    k = 0
    while r <= Fraction(1, 2 ** (k + 1)):
        k += 1
    blk = stack.shell(k)
    partial = blk.weight - _block_value(blk, fx) if stack.side == "lo" else _block_value(blk, fx)
    return k + partial


@st.composite
def _stack_points(draw):
    """A stack and a point near it: shell ends (exact or rounded), points in a
    shell, the endpoint itself, or anywhere around the zone."""
    side = draw(st.sampled_from(["lo", "hi"]))
    at = Fraction(draw(st.sampled_from([-2.0, 0.0, 0.5, 3.25, Fraction(1, 3)])))
    delta = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 3),
                                  Fraction(5, 7)]))
    sign = 1 if side == "lo" else -1
    kind = draw(st.sampled_from(["shell end", "in shell", "endpoint", "around"]))
    if kind == "shell end":
        x = at + sign * delta / 2 ** draw(st.integers(0, 50))
        x = x if draw(st.booleans()) else float(x)
    elif kind == "in shell":
        k = draw(st.integers(0, 50))
        x = float(at + sign * delta * (1 + Fraction(draw(st.floats(0.0, 1.0)))) / 2 ** (k + 1))
    elif kind == "endpoint":
        x = at if draw(st.booleans()) else float(at)
    else:
        x = draw(st.floats(float(at - 2 * delta), float(at + 2 * delta)))
    return _Stack(side, at, delta), x


@settings(max_examples=500, deadline=None)
@given(_stack_points())
def test_stack_mass_to_edge_matches_the_fraction_formula(case):
    stack, x = case
    ratio = stack.mass_ratio(*x.as_integer_ratio())
    got = math.inf if ratio is None else Fraction(ratio[0], ratio[2])
    want = _mass_to_edge_by_fraction(stack, x)
    assert type(got) is type(want) and got == want


def _singular_by_pairs(scale, u, v):
    # the pairwise route: each block's mass between u and v, and each
    # stack's from its two masses to the edge; infinite as soon as one is
    u, v = sorted((Fraction(u), Fraction(v)))
    total = sum((_block_value(b, v) - _block_value(b, u) for b in scale.blocks), Fraction(0))
    for s in scale.stacks:
        near, far = _mass_to_edge_by_fraction(s, u), _mass_to_edge_by_fraction(s, v)
        if s.side == "hi":
            near, far = far, near
        if near == math.inf:
            if far != math.inf:
                return math.inf
            continue
        total += near - far
    return total


def _singular_clipped_to_hull(scale, u, v):
    # the former forms._singular_mass: infinite ends clipped to the support hull
    hull = scale.w_supports(0)
    if not hull:
        return 0.0
    u, v = max(u, float(hull[0].lo)), min(v, float(hull[-1].hi))
    return 0.0 if v <= u else float(_singular_by_pairs(scale, u, v))


@st.composite
def _scale_points(draw, n=3):
    """A random scale and n points of its closure: its ends, the anchor, block
    and stack-shell ends (exact or rounded), and floats anywhere between."""
    scale = draw(random_scales())
    marks = [scale.e] + [x for x in (scale.lo, scale.hi) if math.isfinite(x)]
    marks += [x for b in scale.blocks for x in (b.lo, b.hi)]
    marks += [x for s in scale.stacks for k in range(6) for x in (s.shell(k).lo, s.shell(k).hi)]
    lo = scale.lo if math.isfinite(scale.lo) else scale.e - 4.0
    hi = scale.hi if math.isfinite(scale.hi) else scale.e + 4.0
    point = st.one_of(st.sampled_from(marks), st.sampled_from(marks).map(float), st.floats(lo, hi))
    return scale, [draw(point) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(_scale_points())
def test_singular_between_matches_the_pairwise_sum(case):
    scale, (u, v, _) = case
    want = _singular_by_pairs(scale, u, v)
    assert scale.singular_between(u, v) == float(want)
    assert scale.singular_between(v, u) == float(want)


@settings(max_examples=300, deadline=None)
@given(_scale_points())
def test_cumulative_mass_is_additive_across_a_middle_point(case):
    scale, points = case
    u, m, v = sorted(points, key=Fraction)
    w_u, w_m, w_v = (scale.cumulative_mass(x) for x in (u, m, v))
    assert w_u <= w_m <= w_v
    if math.isinf(w_u) or math.isinf(w_v):
        return
    assert w_v - w_u == _singular_by_pairs(scale, u, m) + _singular_by_pairs(scale, m, v)
    assert w_v - w_u == (w_v - w_m) + (w_m - w_u)


@settings(max_examples=200, deadline=None)
@given(_scale_points())
def test_infinite_ends_give_the_hull_clipped_mass(case):
    scale, (x, _, _) = case
    lo, hi = scale.lo, scale.hi
    for u, v in [(lo, x), (x, hi), (lo, hi)]:
        if math.isinf(u) or math.isinf(v):
            assert scale.singular_between(u, v) == _singular_clipped_to_hull(scale, u, v)
    if math.isinf(lo):
        assert scale.cumulative_mass(lo) == 0
    if math.isinf(hi):
        assert scale.cumulative_mass(hi) == sum(b.weight for b in scale.blocks)


@settings(max_examples=100, deadline=None)
@given(_scale_points(), st.floats(1e-9, 10.0))
def test_singular_between_refuses_nan_and_points_outside_the_closure(case, step):
    scale, (x, _, _) = case
    outside = [x for x in (scale.lo - step, scale.hi + step) if math.isfinite(x)]
    for bad in [math.nan, *outside]:
        with pytest.raises(ValueError, match="outside the interval"):
            scale.singular_between(bad, x)
        with pytest.raises(ValueError, match="outside the interval"):
            scale.singular_between(x, bad)


def _eval_by_fraction(scale, x):
    # the former ScaleFunction.eval: Fraction arithmetic, then one rounding
    return float(Fraction(x) - Fraction(scale.e) + scale.signed_mass(x))


@st.composite
def _eval_points(draw):
    """A scale from random_scales or random_configs and a finite point of its
    closure.  The point is a mark: an end or the anchor, a block end, a
    remnant end exact or snapped to a float, or a stack shell end up to 40
    shells deep; taken as it is, as a float or as the next float either way.
    Or it is a float or a Fraction anywhere."""
    if draw(st.booleans()):
        scale = draw(random_scales())
    else:
        config = draw(random_configs())
        assume(config.intervals)
        scale = draw(st.sampled_from(config.intervals)).scale
    groups = [[scale.e] + [x for x in (scale.lo, scale.hi) if math.isfinite(x)]]
    for b in scale.blocks:
        depth = draw(st.integers(1, 6))
        groups.append([b.lo, b.hi])
        groups.append([x for lo, hi, _ in b.remnants(depth) for x in (lo, hi)]
                      + [x for pair in b.float_remnants(depth) for x in pair])
    for s in scale.stacks:
        groups.append([x for k in range(40) for x in (s.shell(k).lo, s.shell(k).hi)])
    lo = scale.lo if math.isfinite(scale.lo) else scale.e - 4.0
    hi = scale.hi if math.isfinite(scale.hi) else scale.e + 4.0
    kind = draw(st.sampled_from(["mark", "float", "next", "float anywhere", "fraction anywhere"]))
    if kind == "float anywhere":
        return scale, draw(st.floats(lo, hi))
    if kind == "fraction anywhere":
        return scale, draw(st.fractions(Fraction(lo), Fraction(hi), max_denominator=3**12))
    x = draw(st.sampled_from(draw(st.sampled_from(groups))))
    if kind == "float":
        x = float(x)
    elif kind == "next":
        x = math.nextafter(float(x), draw(st.sampled_from([-math.inf, math.inf])))
        assume(scale.lo <= x <= scale.hi)
    return scale, x


@settings(max_examples=500, deadline=None)
@given(_eval_points())
def test_eval_matches_the_fraction_formula(case):
    scale, x = case
    assert scale.eval(x) == _eval_by_fraction(scale, x)
