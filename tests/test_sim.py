"""Grid-chain approximation: transition law, holding times, Monte Carlo runs."""

import functools
import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from bmext import scale as scale_module
from bmext import sim
from bmext.cantor import CantorBlock, _cantor_ratios
from bmext.config import (
    PRESET_NAMES,
    ComplementSpec,
    ExtensionConfig,
    IntervalSpec,
    build_trace_measure,
    preset,
    validate,
)
from bmext.darning import darn
from bmext.scale import ScaleFunction, make_scale
from bmext.sim import (
    _CHUNK,
    _DENSE_STRIDE,
    _STRIDE,
    GridChain,
    McEstimate,
    _dense_cdf,
    _stride_cdf,
    _stride_lookup,
    _stride_move,
    build_chain,
    hitting_probability,
    nearest_site,
    simulate_darned,
    simulate_path,
    simulate_trace_chain,
    snap_grid,
    stride_table_entries,
)
from bmext.trace import trace_structure
from strategies import random_configs, random_scales

EX215 = preset("ex215")
EX216 = preset("ex216")
EX218_4 = preset("ex218", depth=4)
SOJOURN = preset("darning-sojourn")
BROWNIAN = ExtensionConfig((IntervalSpec(make_scale(-math.inf, math.inf)),), name="brownian")


# -- chain construction ------------------------------------------------------


def test_brownian_chain_is_symmetric_walk():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    assert chain.p_right[1:-1] == pytest.approx(0.5, rel=1e-12)
    # mean exit time of a Brownian cell of half-width h is h**2
    assert chain.mean_holding[1:-1] == pytest.approx((1 / 12) ** 2, rel=1e-12)
    assert chain.absorbing[0] and chain.absorbing[-1]
    assert not chain.absorbing[1:-1].any()


def test_straddling_cell_biased_away_from_singular_mass():
    # left cell crosses half the block (dt-mass 13/12), right cell is pure
    # gap (dt-mass 1/6): the walk prefers the cheap side
    chain = build_chain(EX215, 0, [-0.25, 1 / 3, 0.5])
    assert chain.p_right[1] == pytest.approx(13 / 15, abs=1e-9)


def test_chain_rejects_sites_outside_the_interval():
    with pytest.raises(ValueError, match="straddles"):
        build_chain(SOJOURN, 0, [-2.0, -1.0])
    with pytest.raises(ValueError, match="straddles"):
        build_chain(EX216, 0, [-1.0, 0.5])
    # a dust point is complement ground but not an endpoint of this gap
    ex218 = preset("ex218", depth=4)
    gap = ex218.locate(0.5)
    with pytest.raises(ValueError, match="outside"):
        build_chain(ex218, gap, [0.25, 1 / 3, 0.5])


def test_trap_site_is_absorbing_behind_an_exact_wall():
    chain = build_chain(EX216, 0, [-1.0, -0.5, -0.25, 0.0])
    assert chain.absorbing[-1]
    # the stack piles infinite scale against 0, so the wall is exact
    assert chain.p_right[2] == 0.0
    assert math.isfinite(chain.mean_holding[2]) and chain.mean_holding[2] > 0.0
    single = build_chain(EX216, 1, [0.0])
    assert single.absorbing.tolist() == [True]


def test_reflecting_end_next_to_a_stacked_end_is_refused():
    # the reflecting end -1 would step straight into the trap at -2, which
    # the diffusion never reaches
    config = ExtensionConfig((IntervalSpec(make_scale(-2.0, -1.0, include_hi=True)),))
    with pytest.raises(
        ValueError, match=r"reflecting end -1\.0 would step into the stacked end -2\.0"
    ):
        build_chain(config, 0, [-2.0, -1.0])
    assert build_chain(config, 0, [-2.0, -1.5, -1.0]).p_right.tolist() == [0.0, 1.0, 0.0]


def test_trap_end_bordering_a_complement_segment_absorbs():
    # the excluded stacked end 0 borders the leftover segment (-1, 0), not a point trap
    config = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, -1.0, include_hi=True)),
            IntervalSpec(make_scale(0.0, math.inf)),
        ),
        ComplementSpec(segments=((-1.0, 0.0),)),
    )
    assert validate(config).ok
    chain = build_chain(config, 1, [0.0, 0.5, 1.0])
    # recorded values
    assert chain.absorbing.tolist() == [True, False, True]
    assert chain.p_right.tolist() == [0.0, 1.0, 0.0]
    assert chain.mean_holding.tolist() == [0.0, 0.75, 0.0]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chains_of_every_preset_absorb_only_at_their_window_ends(data):
    config = preset(data.draw(st.sampled_from(PRESET_NAMES), label="preset"), depth=4)
    n = data.draw(st.integers(0, len(config.intervals) - 1), label="interval")
    iv = config.interval(n)
    e = iv.scale.e
    # window ends on a grid of the interval's closure, its own ends included
    lo = iv.lo if math.isfinite(iv.lo) else e - 4.0
    hi = iv.hi if math.isfinite(iv.hi) else e + 4.0
    points = np.linspace(lo, hi, 9).tolist()
    a, b = sorted(data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))
    sites = np.linspace(a, b, data.draw(st.integers(1, 40), label="cells") + 1) if a < b else [a]
    try:
        chain = build_chain(config, n, sites)
    except ValueError as exc:
        # an end another interval holds, a site between two stacked ends or a
        # reflecting end into a stacked one is refused before any chain exists
        assert re.match("grid straddles|site is walled in|reflecting end", str(exc)), exc
        reject()
    assert not chain.absorbing[1:-1].any()


def test_grid_chain_refuses_an_interior_absorbing_site():
    absorbing = np.array([True, False, True, False, False])
    with pytest.raises(ValueError, match="absorbing site 2 is not a window end"):
        GridChain(np.linspace(0.0, 1.0, 5), np.full(5, 0.5), np.ones(5), absorbing)


# a block window with sites on remnant ends and between them
PINNED_SITES = [
    -0.5, -0.375, -0.25, -0.125, 0.0, 0.1111111111111111, 0.2496570644718793,
    0.3333333333333333, 0.5, 0.6666666666666666, 0.7503429355281207,
    0.8888888888888888, 1.0, 1.125, 1.25, 1.375, 1.5,
]


def test_holding_times_pinned():
    # recorded values: a block window and a stack window, where every holding
    # time is its exact ratio rounded once, as reference_holding gives it
    chain = build_chain(EX215, 0, PINNED_SITES)
    assert chain.mean_holding.tolist() == [
        0.0, 0.015625, 0.015625, 0.015625, 0.021924603174043097, 0.03887176536729261,
        0.02277371529380836, 0.024306130769003533, 0.027777777782003136,
        0.024306130769531614, 0.022773715293781135, 0.03887176536724867,
        0.021924603174603177, 0.015625, 0.015625, 0.015625, 0.0,
    ]
    chain = build_chain(EX216, 1, [0.0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0])
    assert chain.mean_holding.tolist() == [
        0.0, 0.19921875, 0.10245535714285714, 0.08705357142857142, 0.09895833333333333,
        0.06101190476190476, 0.0625, 0.0,
    ]
    chain = build_chain(EX216, 0, [-1.0, -0.6, -0.3, -0.2, -0.1, -0.05, 0.0])
    assert chain.mean_holding.tolist() == [
        0.0, 0.21846743295019158, 0.17009502923976608, 0.10531695156695156,
        0.07137596899224806, 0.13770833333333332, 0.0,
    ]


@pytest.mark.parametrize("cells", [16, 32, 64, 128])
def test_holding_times_solve_for_the_exact_mean_exit_time(cells):
    # E_i = h_i + p_i E_{i+1} + (1 - p_i) E_{i-1}, with E = 0 at the absorbing
    # ends, gives the window's exact mean exit time on any grid: from 0.5 on
    # (-0.5, 1.5) that is 2 * (the integral of the exit kernel) = 4/3
    chain = build_chain(EX215, 0, snap_grid(-0.5, 1.5, cells))
    p, m = chain.p_right, chain.sites.size
    a = np.eye(m)
    for i in range(1, m - 1):
        a[i, i - 1], a[i, i + 1] = p[i] - 1.0, -p[i]
    exit_time = np.linalg.solve(a, chain.mean_holding)
    assert exit_time[chain.site_index(0.5)] == pytest.approx(4 / 3, abs=1e-12)


# -- holding times against an exact reference --------------------------------


def _reference_c_and_s(y: Fraction, levels: int = 1500) -> tuple[Fraction, Fraction]:
    """C(y) and S(y), the integral of C from 0 to y, for y in [0, 1], by the
    self-similar recursion: C(y) = C(3y)/2 and S(y) = S(3y)/6 on the left
    third, C(y) = 1/2 + C(3y - 2)/2 and S(y) = y/2 - 1/12 + S(3y - 2)/6 on the
    right one, C(y) = 1/2 and S(y) = y/2 - 1/12 between.  A y met again
    closes both: C(y) is the fixed point of the affine map between its two
    visits, and so is S(y).  Cut after ``levels`` levels: C is then off by at
    most 2**-levels."""
    c = s = Fraction(0)
    wc = ws = Fraction(1)
    seen = {}
    for _ in range(levels):
        if y <= 0:
            break
        if y >= 1:
            return c + wc, s + ws / 2
        if y in seen:
            c0, s0, wc0, ws0 = seen[y]
            return c0 + wc0 * (c - c0) / (wc0 - wc), s0 + ws0 * (s - s0) / (ws0 - ws)
        seen[y] = c, s, wc, ws
        if y < Fraction(1, 3):
            y *= 3
        else:
            c += wc / 2
            s += ws * (y / 2 - Fraction(1, 12))
            if y <= Fraction(2, 3):
                break
            y = 3 * y - 2
        wc /= 2
        ws /= 6
    return c, s


def reference_cells(scale, sites) -> list[tuple[Fraction, Fraction] | None]:
    """E(u, v) and t(v) - t(u) on each cell [u, v] as exact Fractions, up to
    the cut of C; None on a cell that ends on a stacked end.

    Up to a constant, t(y) = y plus w * C((y - lo) / D) over every block and
    every stack shell (a unit-weight block) that some site sees, and its
    antiderivative is y**2 / 2 plus w * (D * S(...) + max(0, y - hi)); so
    E(l, x) is T(x) - T(l) - (x - l) t(l), exactly, however the antiderivative
    cancels.
    """
    xs = [Fraction(x) for x in sites]
    blocks = [(b.lo, b.hi, b.weight) for b in scale.blocks]
    for stack in scale.stacks:
        # shells nearer the endpoint than every site are constant on the window
        near = min((abs(x - stack.at) for x in xs if x != stack.at), default=None)
        k = 0
        while near is not None and stack.delta / 2**k >= near / 2:
            shell = stack.shell(k)
            blocks.append((shell.lo, shell.hi, shell.weight))
            k += 1

    def t_and_antiderivative(y):
        t, big_t = y, y * y / 2
        for lo, hi, w in blocks:
            c, s = _reference_c_and_s(min(max((y - lo) / (hi - lo), Fraction(0)), Fraction(1)))
            t += w * c
            big_t += w * ((hi - lo) * s + max(Fraction(0), y - hi))
        return t, big_t

    stacked = {scale.lo if scale.stack_lo else None, scale.hi if scale.stack_hi else None}
    vals = [None if x in stacked else t_and_antiderivative(x) for x in xs]
    return [
        None if u is None or v is None else (v[1] - u[1] - (xs[c + 1] - xs[c]) * u[0], v[0] - u[0])
        for c, (u, v) in enumerate(zip(vals, vals[1:]))
    ]


def reference_holding(scale, sites, absorbing) -> list[Fraction]:
    """Every site's holding time as an exact Fraction, up to the cut of C:
    twice the exit kernel's integral over :func:`reference_cells`, with a
    stacked neighbour as a wall and a reflecting end's one-cell forms."""
    xs = [Fraction(x) for x in sites]
    cells = reference_cells(scale, sites)
    out = []
    for i, absorbs in enumerate(absorbing):
        left = cells[i - 1] if i > 0 else None
        right = cells[i] if i < len(xs) - 1 else None
        if absorbs:
            out.append(Fraction(0))
            continue
        if right is not None:
            b = right[1] * (xs[i + 1] - xs[i]) - right[0]
        if left is None:
            out.append(2 * b if i == 0 else 2 * (right[1] * (xs[i] - xs[i - 1]) + b))
        elif right is None:
            a = left[0]
            out.append(2 * a if i == len(xs) - 1 else 2 * (a + left[1] * (xs[i + 1] - xs[i])))
        else:
            out.append(2 * (left[0] * right[1] + b * left[1]) / (left[1] + right[1]))
    return out


def test_reference_holding_gives_the_pinned_times():
    # the pinned windows and the path pins' chains hold their reference times to the bit
    ex218 = preset("ex218", depth=4)
    n = ex218.locate(0.5)
    iv = ex218.interval(n)
    for config, n, sites in [
        (EX215, 0, PINNED_SITES),
        (EX216, 1, [0.0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0]),
        (EX216, 0, [-1.0, -0.6, -0.3, -0.2, -0.1, -0.05, 0.0]),
        (SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5]),
        (ex218, n, np.linspace(iv.lo, iv.hi, 9)),
    ]:
        chain = build_chain(config, n, sites)
        ref = reference_holding(config.interval(n).scale, chain.sites.tolist(),
                                chain.absorbing.tolist())
        assert chain.mean_holding.tolist() == [float(r) for r in ref]


def reference_step_laws(scale, sites, absorbing) -> list[float]:
    """Every site's probability of stepping up: the float of the exact ratio
    dt_l / (dt_l + dt_r) of :func:`reference_cells`' increments between
    walls, 1 or 0 next to one, 1 at a reflecting low end, 0 elsewhere."""
    cells = [None, *reference_cells(scale, sites), None]
    out = []
    for i, absorbs in enumerate(absorbing):
        left, right = cells[i], cells[i + 1]
        if absorbs or right is None:
            out.append(0.0)
        elif left is None:
            out.append(1.0)
        else:
            out.append(float(left[1] / (left[1] + right[1])))
    return out


def _interval_scales():
    # random_scales carry blocks and stacks; random_configs' intervals are plain
    plain = random_configs().filter(lambda c: c.intervals).map(lambda c: c.intervals[0].scale)
    return st.one_of(random_scales(), random_scales().filter(lambda s: s.blocks), plain)


@settings(max_examples=150, deadline=None)
@given(scale=_interval_scales(), cells=st.integers(1, 2**21), data=st.data())
def test_holding_times_match_the_fraction_reference(scale, cells, data):
    # a run of neighbouring sites of a uniform grid of up to 2**21 cells over
    # the interval's span, a block or a stack zone, from its ends (stacked or
    # reflecting) inwards too
    spans = [(scale.lo if math.isfinite(scale.lo) else scale.e - 3.0,
              scale.hi if math.isfinite(scale.hi) else scale.e + 3.0)]
    spans += [(float(b.lo), float(b.hi)) for b in scale.blocks]
    spans += [tuple(sorted(map(float, (s.at, s.at + (s.delta if s.side == "lo" else -s.delta)))))
              for s in scale.stacks]
    lo, hi = data.draw(st.sampled_from(spans), label="span")
    k = data.draw(st.integers(2, min(6, cells + 1)), label="sites")
    start = data.draw(st.integers(0, cells + 1 - k), label="start")
    sites = [lo + (hi - lo) * (start + i) / cells for i in range(k)]
    assume(all(a < b for a, b in zip(sites, sites[1:])) and sites[-1] <= hi)
    config = ExtensionConfig((IntervalSpec(scale),))
    try:
        chain = build_chain(config, 0, sites)
    except ValueError as exc:
        # a reflecting end into a stacked one, or a site between two stacked ends
        assert re.match("reflecting end|site is walled in", str(exc)), exc
        reject()
    ref = reference_holding(scale, chain.sites.tolist(), chain.absorbing.tolist())
    for x, h, r in zip(sites, chain.mean_holding.tolist(), ref):
        assert abs(h - float(r)) <= 4 * math.ulp(float(r)), (x, h, float(r))


@settings(max_examples=150, deadline=None)
@given(scale=_interval_scales(), cells=st.integers(1, 2**21), data=st.data())
def test_step_laws_are_the_exact_ratios_rounded_once(scale, cells, data):
    # a run of neighbouring sites of a uniform grid of up to 2**21 cells over
    # the interval's span, a block or a stack zone, stacked and reflecting
    # ends included
    spans = [(scale.lo if math.isfinite(scale.lo) else scale.e - 3.0,
              scale.hi if math.isfinite(scale.hi) else scale.e + 3.0)]
    spans += [(float(b.lo), float(b.hi)) for b in scale.blocks]
    spans += [tuple(sorted(map(float, (s.at, s.at + (s.delta if s.side == "lo" else -s.delta)))))
              for s in scale.stacks]
    lo, hi = data.draw(st.sampled_from(spans), label="span")
    k = data.draw(st.integers(2, min(8, cells + 1)), label="sites")
    start = data.draw(st.integers(0, cells + 1 - k), label="start")
    sites = [lo + (hi - lo) * (start + i) / cells for i in range(k)]
    assume(all(a < b for a, b in zip(sites, sites[1:])) and sites[-1] <= hi)
    try:
        chain = build_chain(ExtensionConfig((IntervalSpec(scale),)), 0, sites)
    except ValueError as exc:
        assert re.match("reflecting end|site is walled in", str(exc)), exc
        reject()
    ref = reference_step_laws(scale, sites, chain.absorbing.tolist())
    assert chain.p_right.tolist() == ref


@st.composite
def _scale_sites(draw):
    """A scale and 2-8 increasing sites in its closure: its finite ends
    (stacked or reflecting), its blocks' float remnant ends, its stacks' shell
    ends and points inside shells down to shell 60, and floats anywhere."""
    scale = draw(_interval_scales())
    lo = scale.lo if math.isfinite(scale.lo) else scale.e - 3.0
    hi = scale.hi if math.isfinite(scale.hi) else scale.e + 3.0
    marks = [scale.e] + [x for x in (scale.lo, scale.hi) if math.isfinite(x)]
    for b in scale.blocks:
        marks += [x for pair in b.float_remnants(draw(st.integers(0, 6))) for x in pair]
    for s in scale.stacks:
        sign = 1 if s.side == "lo" else -1
        marks += [float(s.at + sign * s.delta / 2**k) for k in range(61)]
        marks += [float(s.at + sign * s.delta * (1 + Fraction(f)) / 2 ** (k + 1))
                  for k, f in draw(st.lists(st.tuples(st.integers(0, 60), st.floats(0, 1)),
                                            max_size=3))]
    point = st.one_of(st.sampled_from(marks), st.floats(lo, hi))
    sites = sorted(set(draw(st.lists(point, min_size=2, max_size=8))))
    assume(len(sites) >= 2)
    return scale, sites


def _assert_cells_are_the_reference(scale, sites):
    want = reference_cells(scale, sites)
    got = list(scale.cell_ratios(sites))
    assert len(got) == len(want)
    for g, w, u, v in zip(got, want, sites, sites[1:]):
        if w is None:
            assert g is None, (u, v)
        else:
            dx = Fraction(v) - Fraction(u)
            assert (Fraction(g[0], g[1]), Fraction(g[2], g[3]), Fraction(g[4], g[5])) == (*w, dx)


@settings(max_examples=150, deadline=None)
@given(_scale_sites())
def test_cell_ratios_are_the_reference_cells(case):
    # E, dt and dx of every cell, as exact rationals: remnant ends, stacked
    # ends and deep shells included
    _assert_cells_are_the_reference(*case)


def test_cell_ratios_down_to_the_least_float():
    # the sites 5e-324 and 1e-300 sit in ex216's stack shells 1,073 and 995
    sites = [5e-324, 1e-320, 1e-300, 1e-100, 1e-10, 0.01, 0.25, 0.3, 0.5]
    _assert_cells_are_the_reference(EX216.interval(1).scale, sites)


def test_a_stack_window_lists_no_support(monkeypatch):
    # each site's W and its integral come in closed form, down to shell 995
    # at 1e-300: no stack shell is listed
    calls = []
    listed = ScaleFunction.w_supports
    monkeypatch.setattr(ScaleFunction, "w_supports", lambda *a: calls.append(a) or listed(*a))
    chain = build_chain(EX216, 1, snap_grid(1e-300, 0.5, 48))
    chain.mean_holding
    assert calls == []


@pytest.mark.parametrize("sites", [
    # t is linear in this gap of the stack's outer shell, so p[1] is exactly
    # 1/2; the differences of rounded scale values stepped right with p = 0.444
    [0.3, 0.3 + 1e-15, 0.3 + 2e-15],
    # once refused as too fine for the scale's float values
    [1e-3 + k * 1e-15 for k in range(6)],
    [1e-9 * (1 + k * 1e-12) for k in range(6)],
])
def test_step_laws_on_cells_below_the_scale_values_ulp(sites):
    chain = build_chain(EX216, 1, sites)
    scale = EX216.interval(1).scale
    assert chain.p_right.tolist() == reference_step_laws(scale, sites, chain.absorbing.tolist())
    ref = reference_holding(scale, sites, chain.absorbing.tolist())
    assert chain.mean_holding.tolist() == [float(r) for r in ref]


@pytest.mark.parametrize("lo, hi", [(-0.5, -0.4995), (0.0, 0.001), (0.3, 0.3005), (0.9995, 1.0),
                                    (1.4995, 1.5)])
def test_holding_times_are_exact_on_the_two_million_cell_grid(lo, hi):
    # runs of the uniform 2,000,000-cell ex215 grid over (-0.5, 1.5): the
    # Brownian ends, the block's ends and its inside; a site's holding time
    # reads only its two cells
    grid = np.linspace(-0.5, 1.5, 2_000_001)
    sites = grid[(grid >= lo) & (grid <= hi)]
    chain = build_chain(EX215, 0, sites)
    ref = reference_holding(EX215.interval(0).scale, sites.tolist(), chain.absorbing.tolist())
    worst = max(abs(h - float(r)) / float(r)
                for h, r in zip(chain.mean_holding[1:-1].tolist(), ref[1:-1]))
    assert worst < 1e-13


def test_a_chain_reads_each_block_sites_digits_once(monkeypatch):
    # the uniform 50,001-site ex215 grid over (-0.5, 1.5) has 24,999 sites
    # inside the block (0, 1); step laws and holding times share their reads
    calls = 0

    def counting(num, den):
        nonlocal calls
        calls += 1
        return _cantor_ratios(num, den)

    monkeypatch.setattr(scale_module, "_cantor_ratios", counting)
    chain = build_chain(EX215, 0, np.linspace(-0.5, 1.5, 50_001))
    chain.mean_holding
    assert calls == 24_999


def test_brownian_holding_times_are_the_rounded_products():
    # a site whose two cells meet no singular mass holds (x - l)(r - x), rounded once
    sites = snap_grid(-0.5, 1.5, 2000)
    chain = build_chain(EX215, 0, sites)
    xs = sites.tolist()
    brownian = [i for i in range(1, len(xs) - 1) if xs[i + 1] <= 0.0 or xs[i - 1] >= 1.0]
    assert len(brownian) > 900
    for i in brownian:
        l, x, r = (Fraction(v) for v in xs[i - 1 : i + 2])
        assert chain.mean_holding[i] == float((x - l) * (r - x)), xs[i]


def _solved_exit_times(chain) -> np.ndarray:
    # E_i = h_i + p_i E_{i+1} + (1 - p_i) E_{i-1}, with E = 0 at the absorbing ends
    p, m = chain.p_right, chain.sites.size
    a = np.eye(m)
    for i in range(1, m - 1):
        a[i, i - 1], a[i, i + 1] = p[i] - 1.0, -p[i]
    return np.linalg.solve(a, chain.mean_holding)


def test_gap_window_solves_for_the_brownian_exit_time():
    # inside an ex218 gap the diffusion is Brownian: from x, (l, r) is left
    # in mean time (x - l)(r - x)
    n = EX218_4.locate(0.5)
    sites = np.linspace(0.4, 0.6, 41)
    exit_time = _solved_exit_times(build_chain(EX218_4, n, sites))
    expected = (sites - 0.4) * (0.6 - sites)
    assert exit_time == pytest.approx(expected, abs=1e-12)


def test_stacked_window_exit_time_agrees_on_a_refined_grid():
    # on (0, 1] of ex216's right half-line the stacked end 0 is never reached;
    # the solve is exact on any grid, so a grid and its refinement agree on
    # their common sites
    coarse = np.linspace(0.0, 1.0, 17)
    fine = np.linspace(0.0, 1.0, 33)
    e_coarse = _solved_exit_times(build_chain(EX216, 1, coarse))
    e_fine = _solved_exit_times(build_chain(EX216, 1, fine))
    assert e_coarse == pytest.approx(e_fine[::2], abs=1e-12)
    assert e_coarse[8] > 0.25


def test_included_endpoint_reflects():
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    assert chain.absorbing.tolist() == [False, False, False, True]
    assert chain.p_right[0] == 1.0
    # one-sided exit time from a reflecting cell of width h is h**2
    assert chain.mean_holding[0] == pytest.approx(0.25, rel=1e-12)


_FINITE = st.floats(-1e308, 1e308, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(ends=st.tuples(_FINITE, _FINITE), cells=st.integers(1, 2000))
@example(ends=(0.3, 0.3000000000000002), cells=48)
@example(ends=(-8e307, 8e307), cells=1000)
@example(ends=(-1e308, 7e307), cells=3)
def test_snap_grid_is_the_uniform_grid(ends, cells):
    lo, hi = sorted(ends)
    assume(lo < hi and math.isfinite(hi - lo))
    grid = snap_grid(lo, hi, cells)
    assert grid[0] == lo and grid[-1] == hi
    assert np.all(np.diff(grid) > 0)
    assert grid.size <= cells + 1


def test_snap_grid_refuses_an_empty_or_unbounded_window():
    with pytest.raises(ValueError, match="need lo < hi"):
        snap_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="wider than the float range"):
        snap_grid(-1e308, 1e308, 4)
    with pytest.raises(ValueError, match="at least one cell"):
        snap_grid(0.0, 1.0, 0)


def test_extension_trace_chain_walks_an_interval_a_few_ulps_wide():
    # the 16 cells of [0.3, 0.3 + 2 ulp] round onto three distinct sites
    lo = 0.3
    hi = math.nextafter(math.nextafter(lo, 1.0), 1.0)
    config = ExtensionConfig((IntervalSpec(make_scale(lo, hi, True, True)),))
    table = simulate_trace_chain(config, None, [lo, hi], lo, 1_000, seed=3)
    assert table.visits.sum() > 0 and table.frequency.sum() == pytest.approx(1.0)


def test_holding_times_absorb_lebesgue_speed_only():
    # a cell pair inside the dust carries singular scale but almost no
    # Lebesgue mass, so its holding collapses with depth
    prev = math.inf
    for d in (4, 6, 8):
        x1, x2 = float(Fraction(1, 3**d)), float(Fraction(2, 3**d))
        chain = build_chain(EX215, 0, [0.0, x1, x2])
        h = chain.mean_holding[1]
        assert 0.0 < h <= (2 * 3.0**-d + 2.0**-d) * 3.0**-d * (1 + 1e-9)
        assert h < prev
        prev = h
    # contrast: the big-gap cell keeps its full Brownian holding
    gap = build_chain(EX215, 0, [1 / 3, 0.5, 2 / 3])
    assert gap.mean_holding[1] == pytest.approx(1 / 36, rel=1e-6)


def test_holding_bounded_by_cell_speed_times_scale_width():
    grid = snap_grid(0.0, 1.0, 24)
    chain = build_chain(EX215, 0, grid)
    t = [EX215.interval(0).scale.eval(s) for s in grid]
    for i in range(1, grid.size - 1):
        cap = (grid[i + 1] - grid[i - 1]) * (t[i + 1] - t[i - 1]) / 2
        assert 0.0 < chain.mean_holding[i] <= cap * (1 + 1e-9)


# -- nearest sites -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    ints=st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=30, unique=True),
    shift=st.integers(-12, 12),
    picks=st.lists(st.integers(-(2**21) - 4, 2**21 + 4), max_size=20),
)
def test_nearest_site_is_the_leftmost_argmin(ints, shift, picks):
    # sites and points are multiples of 2**shift / 2 below 2**23 of them, so
    # every distance is exact and argmin's ties are the true ties
    ints = sorted(ints)
    sites = np.array(ints, dtype=float) * 2.0**shift
    # in half-units: random points, the sites, the midpoints between
    # neighbours, and a point beyond each end
    halves = picks + [2 * a for a in ints] + [a + b for a, b in zip(ints, ints[1:])]
    halves += [2 * ints[0] - 3, 2 * ints[-1] + 3]
    x = np.array(halves, dtype=float) * 2.0 ** (shift - 1)
    i, on = nearest_site(sites, x)
    assert i.tolist() == np.argmin(np.abs(sites[:, None] - x), axis=0).tolist()
    assert on.tolist() == np.isin(x, sites).tolist()
    i0, on0 = nearest_site(sites, x[0])
    assert (i0.shape, on0.shape) == ((), ())
    assert (int(i0), bool(on0)) == (i[0], on[0])


def test_nearest_site_tolerance_is_symmetric():
    # math.isclose takes the larger of the two tolerances, not their sum as
    # np.isclose does, so 1 + 1.5e-12 is not 1, whichever of the two is the site
    for sites, x in (([1.0, 2.0], 1.0 + 1.5e-12), ([1.0 + 1.5e-12, 2.0], 1.0)):
        assert not nearest_site(sites, x)[1]
    for sites, x in (([1.0, 2.0], 1.0 + 5e-13), ([1.0 + 5e-13, 2.0], 1.0)):
        assert nearest_site(sites, x)[1]
    # a site is never close to a non-finite point
    assert not nearest_site([0.0, 1.0], [math.inf, -math.inf, math.nan])[1].any()


# -- single trajectories -----------------------------------------------------


def _reference_walk(chain, i0, steps, rng):
    """Site indices of the single-step walk from i0, stopping on absorption.

    One uniform per step, drawn in chunks: the walker steps up when its
    uniform is below the site's ``p_right``.  The strided walk of
    ``simulate_path`` must have the law of this walk.
    """
    p = chain.p_right.tolist()
    absorbing = chain.absorbing.tolist()
    idx = [i0]
    pos = i0
    while len(idx) <= steps and not absorbing[pos]:
        for u in rng.random(min(_CHUNK, steps + 1 - len(idx))).tolist():
            pos = pos + 1 if u < p[pos] else pos - 1
            idx.append(pos)
            if absorbing[pos]:
                break
    return np.array(idx)


# small chains: a reflecting end and an absorbing one; absorbing ends with a
# trap behind a wall at either end
SMALL_CHAINS = {
    "reflect-absorb-3": (SOJOURN, 1, [-1.0, -0.5, 0.0]),
    "reflect-absorb-4": (SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5]),
    "wall-then-trap": (EX216, 0, [-1.0, -0.75, -0.5, -0.25, 0.0]),
    "trap-then-wall": (EX216, 1, [0.0, 0.25, 0.5, 0.75, 1.0]),
}


def _exact_paths(chain, x, k):
    # every k-step path from x of the chain stopped at its absorbing sites,
    # with its probability: the product of its one-step probabilities
    p = chain.p_right.tolist()
    stop = chain.absorbing.tolist()
    paths = [((x,), Fraction(1))]
    for _ in range(k):
        longer = []
        for path, prob in paths:
            z = path[-1]
            if stop[z]:
                longer.append((path + (z,), prob))
                continue
            for y, w in ((z + 1, Fraction(p[z])), (z - 1, 1 - Fraction(p[z]))):
                if w:
                    longer.append((path + (y,), prob * w))
        paths = longer
    return paths


@pytest.mark.parametrize("name", sorted(SMALL_CHAINS))
@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_stride_end_times_bridge_is_every_path_probability(name, k):
    # the uniform interval that lands a stride from x on its end, times the
    # intervals that pick each step of its bridge, is the probability of the
    # path under single steps; and the bridge draws the path from uniforms
    # inside those intervals
    config, n, sites = SMALL_CHAINS[name]
    chain = build_chain(config, n, sites)
    m = chain.sites.size
    width = 2 * min(k, m - 1) + 1
    h = width // 2
    low = np.zeros((k, m, width))
    stop_sites = np.flatnonzero(chain.absorbing)
    held = np.zeros((k, m, stop_sites.size))
    law = sim._band_laws(chain.p_right, chain.absorbing, k, h, low, held)
    stop_index = np.full(m, -1)
    stop_index[stop_sites] = np.arange(stop_sites.size)
    row = sim._landings(law)
    checked = 0
    for x in np.flatnonzero(~chain.absorbing).tolist():
        cdf = row(x)
        ends = range(x - h, x - h + len(cdf))
        bounds = [0.0, *cdf[:-1], 1.0]
        landing = {b: hi - lo for b, lo, hi in zip(ends, bounds, bounds[1:])}
        for path, exact in _exact_paths(chain, x, k):
            prob = landing.get(path[-1], 0.0)
            u = np.empty((k, 1))
            for t in range(k, 0, -1):
                z = path[t]
                stay = held[t - 1, x, stop_index[z]] if stop_index[z] >= 0 else 0.0
                below = low[t - 1, x, z - x + h]
                a, e = {z: (0.0, stay), z - 1: (stay, below), z + 1: (below, 1.0)}[path[t - 1]]
                prob *= e - a
                u[t - 1] = (a + e) / 2
            assert abs(prob - float(exact)) <= 1e-12, (x, path)
            drawn = sim._bridges(low, np.array([x]), np.array([path[-1]]), u, held, stop_index)
            assert drawn[:, 0].tolist() == list(path)
            checked += 1
    assert checked


@settings(max_examples=80, deadline=None)
@given(random_configs(), st.data())
def test_strided_path_moves_like_the_chain(config, data):
    assume(config.intervals)
    n = data.draw(st.integers(0, len(config.intervals) - 1))
    iv = config.interval(n)
    m = data.draw(st.integers(2, 9))
    sites = np.linspace(max(iv.lo, -2.5), min(iv.hi, 2.5), m)
    try:
        chain = build_chain(config, n, sites)
    except ValueError:
        assume(False)
    i0 = data.draw(st.integers(0, m - 1))
    # a walk of 400,000 steps or more on at most 9 sites strides 64 steps
    budget = data.draw(st.integers(0, 5_000) | st.integers(400_000, 420_000))
    # a small table budget forces short strides
    table = data.draw(st.sampled_from([sim._WALK_TABLE, 300]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_WALK_TABLE", table)
        path = simulate_path(chain, chain.sites[i0], budget, seed=data.draw(st.integers(0, 99)))
    idx = np.searchsorted(chain.sites, path.sites)
    assert np.array_equal(chain.sites[idx], path.sites) and idx[0] == i0
    steps = np.diff(idx)
    assert np.all(np.abs(steps) == 1)
    # a step up needs p_right > 0 at its site, a step down p_right < 1: no
    # walk crosses a wall
    p = chain.p_right[idx[:-1]]
    assert np.all(np.where(steps > 0, p > 0.0, p < 1.0))
    # it stops on its first absorbing site, or after the whole budget
    stuck = chain.absorbing[idx]
    assert not stuck[:-1].any()
    assert path.exhausted == (not stuck[-1])
    assert path.steps <= budget if stuck[-1] else path.steps == budget


def _visit_frequencies(walk, chain, i0, steps, seeds):
    return np.array([
        np.bincount(walk(seed), minlength=chain.sites.size) / (steps + 1) for seed in seeds
    ])


@pytest.mark.parametrize("sites, steps, stride", [(9, 40_000, 16), (33, 300_000, 32),
                                                  (9, 400_000, _STRIDE)])
def test_strided_visits_match_single_steps(sites, steps, stride):
    # eight seeds of each walk, strides of up to 16, 32 and 64 steps: every
    # site's mean visit frequency agrees within 4.5 standard errors of the
    # difference
    assert sim._walk_stride(sites, steps) == stride
    ex218 = preset("ex218", depth=4)
    n = ex218.locate(0.5)
    iv = ex218.interval(n)
    chain = build_chain(ex218, n, np.linspace(iv.lo, iv.hi, sites))
    i0, seeds = sites // 3, range(8)
    strided = _visit_frequencies(
        lambda seed: np.searchsorted(
            chain.sites, simulate_path(chain, chain.sites[i0], steps, seed=seed).sites
        ),
        chain, i0, steps, seeds,
    )
    single = _visit_frequencies(
        lambda seed: _reference_walk(chain, i0, steps, np.random.default_rng(100 + seed)),
        chain, i0, steps, seeds,
    )
    se = np.sqrt((strided.var(axis=0, ddof=1) + single.var(axis=0, ddof=1)) / len(seeds))
    z = np.abs(strided.mean(axis=0) - single.mean(axis=0)) / se
    assert z.max() < 4.5, z


def test_strided_absorption_time_matches_single_steps():
    # behind the trap's wall the walk is absorbed only at the far end: the
    # mean absorption step of 300 paths of each walk agrees within 4.5
    # standard errors of the difference
    chain = build_chain(EX216, 1, [0.0, 0.25, 0.5, 0.75, 1.0])
    strided = np.array([simulate_path(chain, 0.5, 10_000, seed=s).steps for s in range(300)])
    single = np.array([
        _reference_walk(chain, 2, 10_000, np.random.default_rng(1_000 + s)).size - 1
        for s in range(300)
    ])
    se = math.sqrt((strided.var(ddof=1) + single.var(ddof=1)) / 300)
    assert abs(strided.mean() - single.mean()) < 4.5 * se


# a gap of ex218 whose ends reflect, and a Brownian window whose ends absorb,
# walked from the middle: some of its walks are absorbed within the budget
# and some are not
WALK_EDGE_CHAINS = {
    "reflect": lambda: build_chain(EX218_4, EX218_4.locate(0.5), np.linspace(1 / 3, 2 / 3, 9)),
    "absorb": lambda: build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 257)),
}


@pytest.mark.parametrize("name", sorted(WALK_EDGE_CHAINS))
@pytest.mark.parametrize("whole", [10_000, sim._WALK_CHUNK])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_walk_takes_its_whole_budget_or_stops_on_absorption(name, whole, offset):
    # budgets one short of, on and one past a whole number of strides, and of
    # chunks: the last stride is trimmed to the budget
    chain = WALK_EDGE_CHAINS[name]()
    m = chain.sites.size
    budget = whole + offset
    k = sim._walk_stride(m, budget)
    assert whole % k == 0 and sim._walk_stride(m, whole - 1) == k == sim._walk_stride(m, whole)
    for seed in range(4):
        path = simulate_path(chain, chain.sites[m // 2], budget, seed=seed)
        idx = np.searchsorted(chain.sites, path.sites)
        assert np.all(np.abs(np.diff(idx)) == 1)
        stuck = chain.absorbing[idx]
        assert not stuck[:-1].any()
        assert path.exhausted == (not stuck[-1])
        assert path.steps == budget if path.exhausted else 0 < path.steps <= budget
        if budget % k == 0:
            # one step short takes the same strides on the same draws
            short = simulate_path(chain, chain.sites[m // 2], budget - 1, seed=seed)
            assert np.array_equal(short.sites, path.sites[:budget])


@pytest.mark.parametrize("sites", [2, 9, 49, 1_001, 20_001, 200_001, 4_194_305])
@pytest.mark.parametrize("steps", [1, 3_000, 100_000, 1_000_000, 4_194_304])
def test_walk_stride_fits_its_tables_and_grows_with_the_walk(sites, steps):
    k = sim._walk_stride(sites, steps)
    assert k in (1, 2, 4, 8, 16, 32, _STRIDE)
    width = 2 * min(k, sites - 1) + 1
    assert k == 1 or (k + 6) * sites * width <= sim._WALK_TABLE
    # a longer walk never strides shorter, a wider window never longer
    assert sim._walk_stride(sites, 2 * steps) >= k
    assert sim._walk_stride(2 * sites, steps) <= k


def test_walk_stride_by_window_and_walk():
    # long walks on narrow windows stride 64 steps; short walks and wide
    # windows, whose tables cost more than they save, stride less
    assert sim._walk_stride(9, 1_000_000) == _STRIDE
    assert sim._walk_stride(49, 100_000) == 16
    assert sim._walk_stride(49, 3_000) == 4
    assert sim._walk_stride(1_001, 100_000) == 8
    assert sim._walk_stride(20_001, 100_000) == 2
    assert sim._walk_stride(200_001, 1_000_000) == 1


def test_path_from_trap_has_length_one():
    chain = build_chain(EX216, 0, [-1.0, -0.5, -0.25, 0.0])
    path = simulate_path(chain, 0.0, seed=3)
    assert path.sites.tolist() == [0.0]
    assert path.times.tolist() == [0.0]
    assert not path.exhausted


def test_path_never_crosses_the_trap_wall():
    chain = build_chain(EX216, 0, [-1.0, -0.75, -0.5, -0.25, 0.0])
    path = simulate_path(chain, -0.5, budget=10_000, seed=4)
    assert path.sites.max() <= -0.25
    assert np.all(np.isin(path.sites, chain.sites))


def test_path_reflects_at_included_endpoint():
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    path = simulate_path(chain, -1.0, budget=5_000, seed=6)
    assert path.sites.min() == -1.0
    assert np.all(path.sites >= -1.0)
    assert path.sites[-1] == 0.5  # absorbed at the window edge
    assert np.all(np.diff(path.times) > 0)


def test_path_budget_exhaustion_returns_partial_path():
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    path = simulate_path(chain, -1.0, budget=3, seed=11)
    assert path.exhausted
    assert path.steps == 3


def test_path_refuses_a_negative_budget():
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    with pytest.raises(ValueError, match="budget"):
        simulate_path(chain, -1.0, budget=-1, seed=1)


def test_path_seed_repeat_is_identical():
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    a = simulate_path(chain, -1.0, budget=200, seed=4)
    b = simulate_path(chain, -1.0, budget=200, seed=4)
    assert np.array_equal(a.sites, b.sites)
    assert np.array_equal(a.times, b.times)
    c = simulate_path(chain, -1.0, budget=200, seed=5)
    assert not np.array_equal(a.sites, c.sites)


def test_path_pinned_values():
    # recorded values: the strided walk must keep the draws, the path and
    # the left-to-right time sums bit for bit
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    absorbed = simulate_path(chain, -1.0, budget=200, seed=4)
    assert not absorbed.exhausted and absorbed.steps == 3
    assert absorbed.sites[-1] == 0.5
    assert absorbed.times[-1] == 0.8055555555555556
    ex218 = preset("ex218", depth=4)
    n = ex218.locate(0.5)
    iv = ex218.interval(n)
    chain = build_chain(ex218, n, np.linspace(iv.lo, iv.hi, 9))
    long = simulate_path(chain, 0.5, budget=10_000, seed=5)
    assert long.exhausted and long.steps == 10_000
    assert long.sites[-1] == 0.5
    assert long.times[-1] == 17.361111111108173


# -- hitting probabilities ---------------------------------------------------


def test_hitting_brownian_control():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    est = hitting_probability(chain, 1 / 3, 0.0, 1.0, 100_000, seed=20260814)
    assert est.within(2 / 3)
    assert est.samples == 100_000 and est.excluded == 0
    assert 0.001 < est.std_error < 0.002


def test_hitting_ex215_scale_ratio():
    grid = snap_grid(0.0, 1.0, 24)
    chain = build_chain(EX215, 0, grid)
    est = hitting_probability(chain, 1 / 3, 0.0, 1.0, 100_000, seed=20260814)
    # (t(1) - t(1/3)) / (t(1) - t(0)) = (2 - 5/6) / 2
    assert est.within(7 / 12)
    assert est.excluded == 0
    # recorded values: 100k walkers span two batches, so the pin covers the
    # spawned child seeds as well as the per-stride draws
    assert est == McEstimate(0.57903, 0.0015612709459506592, 100_000, 20260814, excluded=0)


def test_hitting_from_the_target_is_exact():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    est = hitting_probability(chain, 0.0, 0.0, 1.0, 500, seed=1)
    assert est.estimate == 1.0 and est.std_error == 0.0 and est.samples == 500
    est2 = hitting_probability(chain, 1.0, 0.0, 1.0, 500, seed=1)
    assert est2.estimate == 0.0


def test_hitting_reports_budget_exclusions():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    est = hitting_probability(chain, 0.5, 0.0, 1.0, 2_000, seed=2, budget=4)
    # nobody can reach an end in four steps from the middle
    assert est.samples == 0 and est.excluded == 2_000
    assert math.isnan(est.estimate)
    est2 = hitting_probability(chain, 0.5, 0.0, 1.0, 2_000, seed=2, budget=50)
    assert est2.samples + est2.excluded == 2_000
    assert est2.excluded > 0
    # one 50-step stride; recorded when a budget's tail became one short band
    # stride, and the same on the dense law
    assert est2 == McEstimate(0.5106109324758843, 0.012680800760313797, 1555, 2, excluded=445)


# the two routes to a stride table: the band of a wide window and the dense
# law of a window of at most 2 * _STRIDE + 1 sites
ROUTES = {"band": (_stride_cdf, _STRIDE), "dense": (_dense_cdf, _DENSE_STRIDE)}


def _route(m):
    return "dense" if m <= 2 * _STRIDE + 1 else "band"


def _half_width(route, m):
    return _STRIDE if route == "band" else m - 1


def _contract_walk(chain, i0, n, seed, budget):
    # the draw contract spelled out for one batch walking between the grid's
    # ends: each iteration moves every live walker min(K, budget - steps)
    # steps on one uniform, K being the stride of the window's route
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    end = chain.sites.size - 1
    table, stride = ROUTES[_route(chain.sites.size)]
    pos = np.full(n, i0)
    hit_l = hit_r = steps = 0
    while pos.size and steps < budget:
        k = min(stride, budget - steps)
        lookup = _stride_lookup(table(chain.p_right, chain.absorbing, k))
        pos = _stride_move(lookup, pos, rng.random(pos.size))
        steps += k
        hit_l += int(np.count_nonzero(pos == 0))
        hit_r += int(np.count_nonzero(pos == end))
        pos = pos[(pos != 0) & (pos != end)]
    return hit_l, hit_l + hit_r, pos.size


def _brownian_chain(sites):
    return build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, sites))


def _check_contract(sites, i0, budget):
    chain = _brownian_chain(sites)
    est = hitting_probability(chain, chain.sites[i0], 0.0, 1.0, 2_000, seed=2, budget=budget)
    assert est.samples + est.excluded == 2_000
    assert est.samples > 0 and est.excluded > 0
    succ, settled, live = _contract_walk(chain, i0, 2_000, 2, budget)
    assert (est.samples, est.excluded) == (settled, live)
    assert est.estimate == succ / settled


@pytest.mark.parametrize("budget", [_STRIDE, _STRIDE + 3])
def test_hitting_budget_takes_whole_strides_then_one_short_stride(budget):
    # a budget of 67 is one stride of 64 steps and one of three, on the band
    # of the narrowest window that walks on it
    _check_contract(2 * _STRIDE + 2, 8, budget)


@pytest.mark.parametrize(
    "sites, i0, budget",
    [(129, 8, _DENSE_STRIDE), (129, 8, _DENSE_STRIDE + 3), (13, 6, _STRIDE + 3)],
)
def test_dense_hitting_budget_takes_whole_strides_then_one_short_stride(sites, i0, budget):
    # the same on the dense law of the widest window that walks on it, and a
    # budget shorter than one dense stride
    _check_contract(sites, i0, budget)


def _record_tables(monkeypatch):
    built = []
    for name in ("_stride_cdf", "_dense_cdf"):
        def recording(p, stop, k, _build=getattr(sim, name), _name=name):
            built.append((_name, k))
            return _build(p, stop, k)

        monkeypatch.setattr(sim, name, recording)
    return built


def test_hitting_builds_each_stride_table_once_per_call(monkeypatch):
    built = _record_tables(monkeypatch)
    # the widest dense window and the narrowest band window
    for sites in (2 * _STRIDE + 1, 2 * _STRIDE + 2):
        table, stride = ROUTES[_route(sites)]
        chain = _brownian_chain(sites)
        x0 = chain.sites[sites // 2]
        # two batches, each ending on a three-step stride
        built.clear()
        hitting_probability(chain, x0, 0.0, 1.0, sim._BATCH + 10, seed=3, budget=2 * stride + 3)
        assert built == [(table.__name__, stride), (table.__name__, 3)]
        # the default budget is a whole number of strides: no tail table
        built.clear()
        hitting_probability(chain, x0, 0.0, 1.0, 2_000, seed=3)
        assert built == [(table.__name__, stride)]


@pytest.mark.parametrize("sites", [3, 49, 129, 130, 1000])
def test_stride_table_entries_count_the_table_the_call_builds(monkeypatch, sites):
    shapes = []

    def recording(cdf):
        shapes.append(cdf.shape)
        return _stride_lookup(cdf)

    monkeypatch.setattr(sim, "_stride_lookup", recording)
    chain = _brownian_chain(sites)
    route = _route(sites)
    _, stride = ROUTES[route]
    hitting_probability(chain, chain.sites[1], 0.0, 1.0, 10, seed=1, budget=stride)
    assert shapes == [(sites, 2 * _half_width(route, sites) + 1)]
    assert stride_table_entries(sites) == sites * shapes[0][1]


@pytest.mark.parametrize("sites, stride", [(49, _DENSE_STRIDE), (130, _STRIDE)])
def test_hitting_table_refusal_names_the_stride_it_would_walk(monkeypatch, sites, stride):
    monkeypatch.setattr("bmext.cantor.WORK_BUDGET", 100)
    chain = _brownian_chain(sites)
    with pytest.raises(ValueError) as info:
        hitting_probability(chain, chain.sites[1], 0.0, 1.0, 10, seed=1)
    assert str(info.value) == (
        f"the {stride}-step table of {sites} sites would build"
        f" {stride_table_entries(sites)} table entries, over the work budget of 100"
    )


def test_band_route_lands_where_it_did_before_the_dense_route():
    # a window of 2 * _STRIDE + 2 sites keeps the 64-step band bit for bit:
    # sha256 of the landing sites of 20,000 (row, uniform) pairs, u = 0 and
    # u = 1 - 2**-53 included, and a seeded estimate over 40 full strides
    # and a 37-step tail, first recorded before windows of at most
    # 2 * _STRIDE + 1 sites took the dense law, and re-recorded with the band
    # code unchanged when the grids became uniform
    config = preset("ex215", depth=6)
    grid = snap_grid(-0.5, 1.5, 129)
    assert grid.size == 2 * _STRIDE + 2
    chain = build_chain(config, 0, grid)
    stop = chain.absorbing.copy()
    stop[[0, -1]] = True
    rng = np.random.default_rng(20261019)
    pos = rng.integers(0, grid.size, 20_000)
    u = rng.random(20_000)
    u[:2] = [0.0, 1.0 - 2.0**-53]
    digests = {
        64: "e63184eb0153710972fe2d0f9f889a4919863fc8d464fff7bd6b190edae73fae",
        37: "278dea229092b42cdb7a777b7cbe4690411991603b727e13deaf7532adab9bf8",
    }
    for k, digest in digests.items():
        site = _stride_move(_stride_lookup(_stride_cdf(chain.p_right, stop, k)), pos, u)
        assert hashlib.sha256(site.astype(np.int64).tobytes()).hexdigest() == digest
    est = hitting_probability(chain, grid[60], -0.5, 1.5, 3_000, seed=5, budget=64 * 40 + 37)
    assert est == McEstimate(0.5548327137546468, 0.01515787840288208, 1076, 5, excluded=1924)


def test_hitting_between_interior_sites_pinned_values():
    # l and r are interior, non-absorbing sites: walkers stop on them all the same
    grid = snap_grid(0.0, 1.0, 24)
    chain = build_chain(EX215, 0, grid)
    assert not chain.absorbing[[4, 16]].any()
    est = hitting_probability(chain, grid[8], grid[4], grid[16], 5_000, seed=7)
    assert est == McEstimate(0.443, 0.007025672353191748, 5_000, 7, excluded=0)


def test_hitting_refuses_a_negative_budget():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    with pytest.raises(ValueError, match="budget"):
        hitting_probability(chain, 0.5, 0.0, 1.0, 100, seed=1, budget=-1)


def test_hitting_is_bitwise_deterministic():
    grid = snap_grid(0.0, 1.0, 24)
    chain = build_chain(EX215, 0, grid)
    a = hitting_probability(chain, grid[8], 0.0, 1.0, 20_000, seed=42)
    b = hitting_probability(chain, grid[8], 0.0, 1.0, 20_000, seed=42)
    assert a == b


# -- stride tables -----------------------------------------------------------


def _fraction_stride_cdf(p, stop, k, half=None):
    # the k-step law of the stopped chain, one exact step at a time, cumulated
    # over the sites within ``half`` (by default k) of the start
    half = k if half is None else half
    m = len(p)
    rows = []
    for i in range(m):
        law = {i: Fraction(1)}
        for _ in range(k):
            nxt = {}
            for s, w in law.items():
                if stop[s]:
                    moves = ((s, w),)
                else:
                    q = Fraction(p[s])
                    moves = ((s + 1, w * q), (s - 1, w * (1 - q)))
                for t, v in moves:
                    nxt[t] = nxt.get(t, Fraction(0)) + v
            law = nxt
        total = Fraction(0)
        row = []
        for site in range(i - half, i + half + 1):
            total += law.get(site, Fraction(0))
            row.append(total)
        rows.append(row)
    return rows


def test_stride_table_is_the_exact_law_on_a_dyadic_chain():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 9))
    assert chain.absorbing[[0, -1]].all() and (chain.p_right[1:-1] == 0.5).all()
    cdf = _stride_cdf(chain.p_right, chain.absorbing, k=8)
    assert cdf.shape == (9, 17)
    exact = _fraction_stride_cdf(chain.p_right.tolist(), chain.absorbing.tolist(), 8)
    assert [[Fraction(v) for v in row] for row in cdf.tolist()] == exact


@pytest.mark.parametrize("k", [1, 3, _STRIDE])
@pytest.mark.parametrize("interior_stop", [False, True])
def test_short_and_full_stride_tables_are_the_exact_law(k, interior_stop):
    # the tables a budget's tail and a full stride walk on, against the
    # Fraction law, with and without a stopped interior site
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 9))
    stop = chain.absorbing.copy()
    stop[3] = interior_stop
    cdf = _stride_cdf(chain.p_right, stop, k)
    assert cdf.shape == (9, 2 * k + 1)
    exact = _fraction_stride_cdf(chain.p_right.tolist(), stop.tolist(), k)
    got = [[Fraction(v) for v in row] for row in cdf.tolist()]
    if interior_stop:
        # the live mass between two stopped sites rounds, by about 4e-17 at k = 64
        assert max(abs(a - b) for ra, rb in zip(got, exact) for a, b in zip(ra, rb)) <= 2**-52
    else:
        assert got == exact


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("interior_stop", [False, True])
def test_dense_tables_are_the_exact_law(k, interior_stop):
    # the dense powers against the Fraction law, laid out over the 2m - 1
    # sites within m - 1 of each start; a dyadic chain's law is exact in floats
    chain = _brownian_chain(9)
    stop = chain.absorbing.copy()
    stop[3] = interior_stop
    cdf = _dense_cdf(chain.p_right, stop, k)
    assert cdf.shape == (9, 17)
    exact = _fraction_stride_cdf(chain.p_right.tolist(), stop.tolist(), k, half=8)
    assert [[Fraction(v) for v in row] for row in cdf.tolist()] == exact


def test_squared_table_keeps_the_scale_on_verify_grid():
    # verify's hitting window: ten squarings of the one-step matrix
    grid = snap_grid(0.0, 1.0, 48)
    chain = build_chain(EX215, 0, grid)
    m = grid.size
    stop = chain.absorbing.copy()
    stop[[0, -1]] = True
    cdf = _dense_cdf(chain.p_right, stop, _DENSE_STRIDE)
    assert np.abs(cdf[:, -1] - 1.0).max() <= 1e-12
    band = np.diff(cdf, axis=1, prepend=0.0)
    law = np.take_along_axis(band, m - 1 - np.arange(m)[:, None] + np.arange(m), axis=1)
    # law[i, j] is P^K[i, j]; the chain is exactly scale-harmonic, so every
    # live row keeps the scale values, whatever the rounding of the squares
    t = np.array([EX215.interval(0).scale.eval(x) for x in grid])
    live = ~stop
    assert (t[live] > 0).all()
    assert (np.abs(law @ t - t)[live] <= 1e-12 * t[live]).all()


def _slot_chain(config, left, right):
    n = config.locate((left + right) / 2)
    grid = snap_grid(left, right, 48)
    return config, n, build_chain(config, n, grid)


# the grids of the benchmark's four hitting slots (perfbench/workloads.py,
# HITTING_SLOTS at the middle of each left-end range) and verify's hitting grid
STRIDE_GRIDS = [
    ("ex215", 6, -0.5, 1.5),
    ("ex216", 6, 0.5, 2.0),
    ("darning-sojourn", 6, -0.5, 1.5),
    ("ex218", 5, 0.35, 0.63),
    ("ex215", 10, 0.0, 1.0),
]


@pytest.mark.parametrize("name, depth, left, right", STRIDE_GRIDS)
def test_stride_table_keeps_the_scale_ratio(name, depth, left, right):
    config, n, chain = _slot_chain(preset(name, depth=depth), left, right)
    m = chain.sites.size
    stop = chain.absorbing.copy()
    stop[[0, -1]] = True
    # the stopped chain's exact P(hit left before right), by a tridiagonal solve
    a = np.eye(m)
    b = np.zeros(m)
    b[0] = 1.0
    for i in np.flatnonzero(~stop):
        a[i, i + 1] = -chain.p_right[i]
        a[i, i - 1] = chain.p_right[i] - 1.0
    h = np.linalg.solve(a, b)
    scale = config.interval(n).scale
    t = np.array([scale.eval(x) for x in chain.sites])
    assert np.abs(h - (t[-1] - t) / (t[-1] - t[0])).max() <= 1e-12
    for route, (table, stride) in ROUTES.items():
        cdf = table(chain.p_right, stop, stride)
        half = _half_width(route, m)
        assert cdf.shape == (m, 2 * half + 1)
        assert np.abs(cdf[:, -1] - 1.0).max() <= 1e-12
        # and a stride keeps it: h is harmonic for the table's law
        law = np.diff(cdf, axis=1, prepend=0.0)
        reach = np.arange(m)[:, None] + np.arange(-half, half + 1)
        h_band = np.where((reach >= 0) & (reach < m), h[reach.clip(0, m - 1)], 0.0)
        assert np.abs((law * h_band).sum(axis=1) - h).max() <= 1e-12


@functools.cache
def _stride_case(name, depth, left, right, route):
    _, _, chain = _slot_chain(preset(name, depth=depth), left, right)
    stop = chain.absorbing.copy()
    stop[[0, -1]] = True
    table, stride = ROUTES[route]
    cdf = table(chain.p_right, stop, stride)
    return cdf, _stride_lookup(cdf)


@settings(max_examples=200, deadline=None)
@given(
    grid=st.sampled_from(STRIDE_GRIDS),
    route=st.sampled_from(sorted(ROUTES)),
    row=st.integers(0, 48),
    u=st.one_of(
        st.sampled_from([0.0, 1.0 - 2.0**-53]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
)
def test_stride_lookup_lands_on_a_site_of_positive_probability(grid, route, row, u):
    cdf, lookup = _stride_case(*grid, route)
    row = min(row, cdf.shape[0] - 1)
    (site,) = _stride_move(lookup, np.array([row]), np.array([u]))
    col = site - row + _half_width(route, cdf.shape[0])
    assert 0 <= site < cdf.shape[0] and 0 <= col < cdf.shape[1]
    below = cdf[row, col - 1] if col else 0.0
    assert cdf[row, col] > below
    # the inverse of the row's law, up to the rounding of the row offset
    assert below - 1e-12 <= u < cdf[row, col] + 1e-12


# -- trace chains ------------------------------------------------------------


def _dust_grid(config):
    dust = config.complement.dust[0]
    pieces = CantorBlock(dust.lo, dust.hi).remnants(dust.depth)
    pts = {float(x) for a, b, _ in pieces for x in (a, b)}
    return sorted(pts)


def test_extension_trace_confined_to_one_gap():
    config = preset("ex218", depth=4)
    mu = build_trace_measure(config)
    grid = _dust_grid(config)
    table = simulate_trace_chain(config, mu, grid, 1 / 3, 50_000, seed=7, mode="extension")
    assert set(table.support().tolist()) == {1 / 3, 2 / 3}
    assert table.frequency.sum() == pytest.approx(1.0, rel=1e-12)
    assert (table.frequency > 0).sum() == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=40, unique=True))
@example([0.0, 1.73e-165])
def test_brownian_chain_matches_the_per_site_formulas(points):
    # the brownian trace walk's chain: each step law and holding time is the
    # identity scale's per-site formula, exact, rounded once
    sites = np.array(sorted(points))
    assume(np.all(np.diff(sites) > 0))
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "build_chain", lambda *a: built.append(build_chain(*a)) or built[-1])
        simulate_trace_chain(BROWNIAN, None, sites, sites[0], 0, mode="brownian")
    (chain,) = built
    xs = [Fraction(x) for x in sites.tolist()]
    m = len(xs)
    p = [1.0] + [0.0] * (m - 1)
    hold = [float((xs[1] - xs[0]) ** 2)] + [0.0] * (m - 2) + [float((xs[-1] - xs[-2]) ** 2)]
    for i in range(1, m - 1):
        p[i] = float((xs[i] - xs[i - 1]) / (xs[i + 1] - xs[i - 1]))
        hold[i] = float((xs[i] - xs[i - 1]) * (xs[i + 1] - xs[i]))
    assert chain.sites.tolist() == sites.tolist()
    assert chain.p_right.tolist() == p and chain.holding.tolist() == hold
    if 0.0 in hold:
        # a product that underflows leaves its site no holding time: the
        # first read refuses it
        message = f"holding time at site {float(sites[hold.index(0.0)])!r} is not positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            chain.mean_holding
    else:
        assert chain.mean_holding.tolist() == hold


def test_brownian_trace_visits_every_dust_site():
    config = preset("ex218", depth=4)
    mu = build_trace_measure(config)
    grid = _dust_grid(config)
    table = simulate_trace_chain(config, mu, grid, 0.0, 300_000, seed=8, mode="brownian")
    assert len(grid) == 32
    assert (table.visits > 0).all()
    assert (table.frequency > 0).all()
    assert table.frequency.sum() == pytest.approx(1.0, rel=1e-12)


def test_trace_visits_pinned_values():
    config = preset("ex218", depth=4)
    mu = build_trace_measure(config)
    grid = _dust_grid(config)
    ext = simulate_trace_chain(config, mu, grid, 1 / 3, 5_000, seed=7, mode="extension")
    assert ext.visits.tolist() == [0] * 15 + [160, 124] + [0] * 15
    bm = simulate_trace_chain(config, mu, grid, 0.0, 3_000, seed=8, mode="brownian")
    assert bm.visits.tolist() == [
        31, 61, 51, 28, 34, 54, 57, 33, 37, 61, 48, 28, 49, 84, 82, 40,
        113, 225, 241, 164, 133, 188, 178, 96, 94, 172, 179, 122, 88, 112, 86, 32,
    ]


def test_trace_refuses_a_negative_step_count():
    config = preset("ex218", depth=4)
    with pytest.raises(ValueError, match="n_steps"):
        simulate_trace_chain(config, None, [0.0], 0.0, -1, seed=1)


def test_trace_refuses_an_infinite_site_weight():
    # the cell of -1 reaches the stacked, excluded end of (-inf, -1)
    config = preset("darning-sojourn")
    sites = trace_structure(config, 4).sites()
    with pytest.raises(ValueError, match=r"trace site -1\.0 has an infinite"):
        simulate_trace_chain(
            config, build_trace_measure(config), sites, -1.0, 3_000, seed=1, mode="brownian"
        )


def test_trace_single_site_gets_all_mass():
    config = preset("ex218", depth=4)
    table = simulate_trace_chain(config, None, [0.0], 0.0, 1_000, seed=1)
    assert table.frequency.tolist() == [1.0]


def test_trace_grid_validation():
    config = preset("ex218", depth=4)
    with pytest.raises(ValueError):
        simulate_trace_chain(config, None, [], 0.0, 100, seed=1)
    with pytest.raises(ValueError, match="trace sites"):
        simulate_trace_chain(config, None, [0.0, 1.0], 0.4, 100, seed=1)
    with pytest.raises(ValueError, match="invariant interval"):
        simulate_trace_chain(config, None, [0.25, 1.0], 0.25, 100, seed=1, mode="extension")
    with pytest.raises(ValueError, match="mode"):
        simulate_trace_chain(config, None, [0.0, 1.0], 0.0, 100, seed=1, mode="exact")


# -- darned chains -----------------------------------------------------------


def test_darned_occupation_converges_to_image_masses():
    spec = darn(EX215, 0, depth=8)
    stats = simulate_darned(spec, np.linspace(0.0, 1.0, 17), 0.5, 2_000_000, seed=9)
    frac = stats.site_mass / stats.site_mass.sum()
    assert stats.occupation == pytest.approx(frac, abs=8e-3)
    assert stats.occupation.sum() == pytest.approx(1.0, rel=1e-12)
    assert stats.site_mass.sum() == pytest.approx(1.0, rel=1e-12)


def test_darned_occupation_ratio_approaches_three():
    # site 1/2 carries the middle-gap atom 1/3, site 1/4 the atom 1/9; the
    # unresolved residue spoils the ratio by O(3**-depth)
    ratios = []
    for d in (4, 6, 8, 10):
        spec = darn(EX215, 0, depth=d)
        grid = np.linspace(0.0, 1.0, 2**d + 1)
        stats = simulate_darned(spec, grid, 0.5, 2, seed=1)
        ratios.append(stats.site_mass[2 ** (d - 1)] / stats.site_mass[2 ** (d - 2)])
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] == pytest.approx(2.8, rel=1e-12)
    assert ratios[-1] == pytest.approx(3.0, abs=4e-4)
    # Monte Carlo sees the same ratio on the depth-6 grid
    spec = darn(EX215, 0, depth=6)
    stats = simulate_darned(spec, np.linspace(0.0, 1.0, 65), 0.5, 8_000_000, seed=13)
    mass_ratio = stats.site_mass[32] / stats.site_mass[16]
    assert stats.occupation[32] / stats.occupation[16] == pytest.approx(mass_ratio, rel=0.15)


def test_darned_sojourn_boundary_occupation():
    spec = darn(SOJOURN, 1, depth=8)
    assert spec.slow_reflection() == (True, False)
    stats = simulate_darned(spec, np.linspace(0.0, 0.5, 9), 0.0, 2_000_000, seed=12)
    # window [0, 1/2] collects the boundary atom plus the source mass of
    # [0, 2/3]: the central gap collapses onto the window edge image 1/2
    assert stats.site_mass.sum() == pytest.approx(5 / 3, rel=1e-12)
    frac0 = stats.site_mass[0] / stats.site_mass.sum()
    assert frac0 == pytest.approx(0.6, abs=0.01)
    assert stats.occupation[0] == pytest.approx(frac0, abs=0.02)


def test_darned_single_site_window():
    spec = darn(SOJOURN, 1, depth=8)
    stats = simulate_darned(spec, [0.5], 0.5, 100, seed=1)
    assert stats.occupation.tolist() == [1.0]
    assert stats.site_mass[0] == pytest.approx(1 / 3, rel=1e-12)


def test_darned_window_validation():
    spec = darn(SOJOURN, 1, depth=8)
    with pytest.raises(ValueError, match="zero image mass"):
        simulate_darned(spec, [0.5005, 0.5012], 0.5005, 100, seed=1)
    with pytest.raises(ValueError, match="image interval"):
        simulate_darned(spec, [-0.5, 0.5], 0.0, 100, seed=1)
    with pytest.raises(ValueError, match="grid site"):
        simulate_darned(spec, [0.0, 0.5], 0.3, 100, seed=1)


def test_darned_visits_pinned_values():
    # recorded values: 98,309 steps end on a part byte, on an odd step, and
    # past the edge of a 65,536-step chunk
    spec = darn(EX215, 0, depth=6)
    grid = np.linspace(0.0, 1.0, 65)
    stats = simulate_darned(spec, grid, 0.5, 98_309, seed=21)
    assert stats.visits.tolist() == [
        1266, 1280, 1252, 1251, 1297, 1320, 1316, 1308, 1335, 1300, 1212, 1178, 1231,
        1285, 1335, 1341, 1329, 1392, 1364, 1306, 1356, 1416, 1452, 1433, 1404, 1366,
        1378, 1440, 1516, 1633, 1753, 1719, 1593, 1519, 1554, 1581, 1514, 1515, 1549,
        1562, 1590, 1613, 1518, 1430, 1442, 1473, 1488, 1480, 1525, 1542, 1572, 1652,
        1644, 1589, 1575, 1660, 1841, 1932, 1916, 1893, 1874, 1865, 1955, 2030, 2060,
    ]
    assert stats.visits.sum() == 98_310
    short = simulate_darned(spec, grid, 0.5, 2, seed=21)
    assert short.visits.tolist() == [0] * 31 + [1, 2] + [0] * 32


def _reference_darned_visits(sites, i0, steps, seed):
    """Visits per site of the darned walk on ``sites`` sites, folded step by step.

    Step t goes up when bit t % 64 of raw word t // 64 is set, read by
    shifting each word, not through its bytes.  The free walk's residue
    j mod 2m is site j, or site 2m - 1 - j when j >= m.  ``simulate_darned``
    must count exactly these visits.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    words = rng.bit_generator.random_raw(-(-steps // 64))
    up = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    walk = i0 + np.cumsum(up.ravel()[:steps].astype(np.int64) * 2 - 1)
    h = np.bincount(np.mod(walk, 2 * sites), minlength=2 * sites)
    visits = h[:sites] + h[:sites - 1:-1]
    visits[i0] += 1
    return visits


@functools.cache
def _ex215_spec():
    return darn(EX215, 0, depth=8)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(st.integers(2, 8), st.integers(2, 400)),
    st.one_of(
        st.integers(0, 300_000),
        st.integers(0, 40),
        # walks that end just before, on or just past a word's or a chunk's edge
        st.builds(lambda k, d: k * 64 + d, st.integers(1, 40), st.integers(-9, 9)),
        st.builds(lambda k, d: k * _CHUNK + d, st.integers(1, 9), st.integers(-9, 9)),
    ),
    st.integers(0, 2**63),
    st.data(),
)
def test_darned_visits_equal_the_per_step_fold(sites, steps, seed, data):
    # every symbol width: 8-step symbols need 4,096 steps a site, 4-step ones
    # 128 and 2-step ones 16; fewer than 8 sites wrap the period of 2m more
    # than once in one byte
    i0 = data.draw(st.integers(0, sites - 1))
    grid = np.linspace(0.0, 1.0, sites)
    stats = simulate_darned(_ex215_spec(), grid, grid[i0], steps, seed=seed)
    assert stats.visits.tolist() == _reference_darned_visits(sites, i0, steps, seed).tolist()


@pytest.mark.parametrize("name, index, depth, sites", [
    ("ex215", 0, 6, 63), ("darning-sojourn", 1, 6, 64), ("ex216", 1, 5, 155),
])
def test_benchmark_darned_windows_fold_bytes(name, index, depth, sites):
    # the windows `simulate darned` walks for 3,000,000 steps in the benchmark
    spec = darn(preset(name), index, depth=depth)
    assert len({float(loc) for loc, _ in spec.atoms}) == sites
    assert sim._symbol_width(sites, 3_000_000) == 8


def test_symbol_width_is_the_widest_whose_table_fits_the_walk():
    # ex215 at depth 14: 16,383 sites, wider than a 100,000-step walk
    assert sim._symbol_width(16_383, 100_000) == 1
    assert sim._symbol_width(1_023, 100_000) == 2
    assert sim._symbol_width(16_383, 3_000_000) == 4
    for sites in (2, 7, 63, 400, 1_023, 16_383, 1 << 20):
        for steps in (0, 1, 100, 10_000, 100_001, 3_000_000, 1 << 22):
            g = sim._symbol_width(sites, steps)
            fits = [w for w in (2, 4, 8) if 2 * sites << w <= steps // w]
            assert g == max(fits, default=1)


def test_darned_site_masses_are_the_rounded_exact_sums():
    for config, index, depth in ((EX215, 0, 6), (EX216, 1, 5), (SOJOURN, 1, 6), (EX215, 0, 10)):
        spec = darn(config, index, depth=depth)
        sites = sorted({float(loc) for loc, _ in spec.atoms})[: 2 ** depth // 3 + 2]
        exact = [Fraction(0)] * len(sites)
        inside = [(loc, m) for loc, m in spec.atoms + spec.residue if sites[0] <= loc <= sites[-1]]
        at, _ = nearest_site(sites, [float(loc) for loc, _ in inside])
        for a, (_, m) in zip(at.tolist(), inside):
            exact[a] += m
        stats = simulate_darned(spec, sites, sites[0], 10, seed=1)
        assert stats.site_mass.tolist() == [float(v) for v in exact]


def test_darned_memory_does_not_grow_with_steps():
    spec = darn(EX215, 0, depth=6)
    sites = sorted({float(loc) for loc, _ in spec.atoms})

    def peak(steps):
        tracemalloc.start()
        try:
            simulate_darned(spec, sites, sites[31], steps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first call in a process also allocates what numpy and the symbol
    # landings cache, whatever its step count
    peak(400_000)
    assert peak(4_000_003) <= 1.1 * peak(400_000)


def test_darned_refuses_a_negative_step_count():
    spec = darn(EX215, 0, depth=6)
    with pytest.raises(ValueError, match="n_steps"):
        simulate_darned(spec, np.linspace(0.0, 1.0, 65), 0.5, -1, seed=1)


def test_darned_run_is_deterministic():
    spec = darn(EX215, 0, depth=6)
    grid = np.linspace(0.0, 1.0, 65)
    a = simulate_darned(spec, grid, 0.5, 100_000, seed=21)
    b = simulate_darned(spec, grid, 0.5, 100_000, seed=21)
    assert np.array_equal(a.occupation, b.occupation)
    assert np.array_equal(a.visits, b.visits)
