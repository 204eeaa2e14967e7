"""Grid-chain approximation: transition law, holding times, Monte Carlo runs."""

import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmext import sim
from bmext.cantor import CantorBlock
from bmext.config import (
    ComplementSpec,
    ExtensionConfig,
    IntervalSpec,
    build_trace_measure,
    preset,
    validate,
)
from bmext.darning import darn
from bmext.scale import make_scale
from bmext.sim import (
    _CHUNK,
    _DENSE_STRIDE,
    _STRIDE,
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
from strategies import random_scales

EX215 = preset("ex215")
EX216 = preset("ex216")
SOJOURN = preset("darning-sojourn")
BROWNIAN = ExtensionConfig((IntervalSpec(make_scale(-math.inf, math.inf)),), name="brownian")


# -- chain construction ------------------------------------------------------


def test_brownian_chain_is_symmetric_walk():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    assert chain.p_right[1:-1] == pytest.approx(0.5, rel=1e-12)
    # mean exit time of a Brownian cell of half-width h is h**2
    assert chain.mean_holding[1:-1] == pytest.approx((1 / 12) ** 2, rel=1e-12)
    assert chain.boundary == ("absorb", "absorb")
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
    assert single.absorbing[0] and single.boundary == ("absorb", "absorb")


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
    assert chain.boundary == ("absorb", "absorb")
    assert chain.p_right.tolist() == [0.0, 1.0, 0.0]
    assert chain.mean_holding.tolist() == [0.0, 0.75, 0.0]


def test_holding_times_pinned():
    # recorded values: a block window and a stack window, where every holding
    # time integrates the staircase through the Cantor integral recursion
    chain = build_chain(EX215, 0, snap_grid(EX215, 0, -0.5, 1.5, 16, depth=6))
    assert chain.sites.tolist() == [
        -0.5, -0.375, -0.25, -0.125, 0.0, 0.1111111111111111, 0.2496570644718793,
        0.3333333333333333, 0.5, 0.6666666666666666, 0.7503429355281207,
        0.8888888888888888, 1.0, 1.125, 1.25, 1.375, 1.5,
    ]
    assert chain.mean_holding.tolist() == [
        0.0, 0.015625, 0.015625, 0.015625, 0.021924603174043093, 0.03887176536729261,
        0.022773715293808346, 0.02430613076900354, 0.027777777782003105,
        0.024306130769531625, 0.022773715293781076, 0.038871765367248824,
        0.021924603174603135, 0.015625, 0.015625, 0.015625, 0.0,
    ]
    chain = build_chain(EX216, 1, [0.0, 0.0625, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0])
    assert chain.mean_holding.tolist() == [
        0.0, 0.19921875, 0.10245535714285714, 0.0870535714285714, 0.09895833333333336,
        0.06101190476190476, 0.0625, 0.0,
    ]
    chain = build_chain(EX216, 0, [-1.0, -0.6, -0.3, -0.2, -0.1, -0.05, 0.0])
    assert chain.mean_holding.tolist() == [
        0.0, 0.21846743295019158, 0.17009502923976608, 0.10531695156695156,
        0.07137596899224811, 0.13770833333333332, 0.0,
    ]


def test_included_endpoint_reflects():
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    assert chain.boundary == ("reflect", "absorb")
    assert chain.p_right[0] == 1.0
    # one-sided exit time from a reflecting cell of width h is h**2
    assert chain.mean_holding[0] == pytest.approx(0.25, rel=1e-12)


def test_snap_grid_lands_on_gap_endpoints():
    grid = snap_grid(EX215, 0, 0.0, 1.0, 24, depth=6)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0)
    for target in (1 / 3, 2 / 3, float(Fraction(1, 9)), float(Fraction(2, 9))):
        assert np.min(np.abs(grid - target)) == 0.0
    # interior points move at most half a spacing
    base = np.linspace(0.0, 1.0, 25)
    assert np.max(np.abs(grid - base)) <= 1 / 48 + 1e-15


def gap_ends(blk, depth):
    """A block's snap targets as they were once listed: its ends and the float
    ends of its exact gaps of levels <= depth."""
    gaps = blk.gaps(depth)
    return {float(blk.lo), float(blk.hi)} | {float(x) for _, lo, hi, _ in gaps for x in (lo, hi)}


def reference_snap_grid(scale, lo, hi, cells, depth):
    """snap_grid's snapping, run on the gap ends of the blocks that meet [lo, hi]."""
    blocks = [sup.block for sup in scale.w_supports(depth) if sup.block is not None]
    met = [b for b in blocks if float(b.hi) >= lo and float(b.lo) <= hi]
    ordered = sorted(set().union(*(gap_ends(b, depth) for b in met)))
    base = np.linspace(lo, hi, cells + 1)
    half = (hi - lo) / (2 * cells)
    out = [lo]
    for c in base[1:-1]:
        i = int(np.searchsorted(ordered, c))
        near = [v for v in ordered[max(0, i - 1) : i + 1] if abs(v - c) <= half]
        best = min(near, key=lambda v: (abs(v - c), v)) if near else c
        if out[-1] < best < hi:
            out.append(best)
    out.append(hi)
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(
    scale=random_scales(),
    depth=st.integers(0, 10),
    cells=st.integers(1, 400),
    cut=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)),
)
def test_snap_targets_are_the_gap_ends(scale, depth, cells, cut):
    # the gaps of levels <= depth are the spaces between level-depth remnants
    for sup in scale.w_supports(depth):
        if sup.block is not None:
            ends = {x for pair in sup.block.float_remnants(depth) for x in pair}
            assert ends == gap_ends(sup.block, depth)
    a = scale.lo if math.isfinite(scale.lo) else scale.e - 3.0
    b = scale.hi if math.isfinite(scale.hi) else scale.e + 3.0
    lo, hi = a + cut[0] * (b - a), a + cut[1] * (b - a)
    config = ExtensionConfig((IntervalSpec(scale),))
    grid = snap_grid(config, 0, lo, hi, cells, depth=depth)
    assert grid.tolist() == reference_snap_grid(scale, lo, hi, cells, depth).tolist()


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
    grid = snap_grid(EX215, 0, 0.0, 1.0, 24, depth=6)
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
    # recorded values: the walk kernel must keep the draws, the path and the
    # left-to-right time sums bit for bit
    chain = build_chain(SOJOURN, 1, [-1.0, -0.5, 0.0, 0.5])
    absorbed = simulate_path(chain, -1.0, budget=200, seed=4)
    assert not absorbed.exhausted and absorbed.steps == 47
    assert absorbed.sites[-1] == 0.5
    assert absorbed.times[-1] == 12.361111111111109
    ex218 = preset("ex218", depth=4)
    n = ex218.locate(0.5)
    iv = ex218.interval(n)
    chain = build_chain(ex218, n, np.linspace(iv.lo, iv.hi, 9))
    long = simulate_path(chain, 0.5, budget=10_000, seed=5)
    assert long.exhausted and long.steps == 10_000
    assert long.sites[-1] == 0.5833333333333333
    assert long.times[-1] == 17.361111111108166


# -- hitting probabilities ---------------------------------------------------


def test_hitting_brownian_control():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    est = hitting_probability(chain, 1 / 3, 0.0, 1.0, 100_000, seed=20260814)
    assert est.within(2 / 3)
    assert est.samples == 100_000 and est.excluded == 0
    assert 0.001 < est.std_error < 0.002


def test_hitting_ex215_scale_ratio():
    grid = snap_grid(EX215, 0, 0.0, 1.0, 24, depth=6)
    chain = build_chain(EX215, 0, grid)
    est = hitting_probability(chain, 1 / 3, 0.0, 1.0, 100_000, seed=20260814)
    # (t(1) - t(1/3)) / (t(1) - t(0)) = (2 - 5/6) / 2
    assert est.within(7 / 12)
    assert est.excluded == 0
    # recorded values: 100k walkers span two batches, so the pin covers the
    # spawned child seeds as well as the per-stride draws
    assert est == McEstimate(0.57897, 0.0015613013058399959, 100_000, 20260814, excluded=0)


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
    # and a 37-step tail, all recorded before windows of at most
    # 2 * _STRIDE + 1 sites took the dense law
    config = preset("ex215", depth=6)
    grid = snap_grid(config, 0, -0.5, 1.5, 129, depth=6)
    assert grid.size == 2 * _STRIDE + 2
    chain = build_chain(config, 0, grid)
    stop = chain.absorbing.copy()
    stop[[0, -1]] = True
    rng = np.random.default_rng(20261019)
    pos = rng.integers(0, grid.size, 20_000)
    u = rng.random(20_000)
    u[:2] = [0.0, 1.0 - 2.0**-53]
    digests = {
        64: "31834cf881a46840041aaf114b024063f562b91f620f0621a079c7c750e2680e",
        37: "495f27799017adf2fda1a5372bfda7aae4a9ac65e40d3b6edbdfe22e1dfe2f6a",
    }
    for k, digest in digests.items():
        site = _stride_move(_stride_lookup(_stride_cdf(chain.p_right, stop, k)), pos, u)
        assert hashlib.sha256(site.astype(np.int64).tobytes()).hexdigest() == digest
    est = hitting_probability(chain, grid[60], -0.5, 1.5, 3_000, seed=5, budget=64 * 40 + 37)
    assert est == McEstimate(0.5395814376706096, 0.015041936211257533, 1099, 5, excluded=1901)


def test_hitting_between_interior_sites_pinned_values():
    # l and r are interior, non-absorbing sites: walkers stop on them all the same
    grid = snap_grid(EX215, 0, 0.0, 1.0, 24, depth=6)
    chain = build_chain(EX215, 0, grid)
    assert not chain.absorbing[[4, 16]].any()
    est = hitting_probability(chain, grid[8], grid[4], grid[16], 5_000, seed=7)
    assert est == McEstimate(0.443, 0.007025672353191748, 5_000, 7, excluded=0)


def test_hitting_refuses_a_negative_budget():
    chain = build_chain(BROWNIAN, 0, np.linspace(0.0, 1.0, 13))
    with pytest.raises(ValueError, match="budget"):
        hitting_probability(chain, 0.5, 0.0, 1.0, 100, seed=1, budget=-1)


def test_hitting_is_bitwise_deterministic():
    grid = snap_grid(EX215, 0, 0.0, 1.0, 24, depth=6)
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
    grid = snap_grid(EX215, 0, 0.0, 1.0, 48, depth=10)
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


def _slot_chain(config, left, right, depth):
    n = config.locate((left + right) / 2)
    grid = snap_grid(config, n, left, right, 48, depth=depth)
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
    config, n, chain = _slot_chain(preset(name, depth=depth), left, right, depth)
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
    _, _, chain = _slot_chain(preset(name, depth=depth), left, right, depth)
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
def test_brownian_chain_matches_the_per_site_formulas(points):
    sites = np.array(sorted(points))
    assume(np.all(np.diff(sites) > 0))
    chain = sim._brownian_chain(sites)
    m = sites.size
    p = [1.0] + [0.0] * (m - 1)
    hold = [(sites[1] - sites[0]) ** 2] + [0.0] * (m - 2) + [(sites[-1] - sites[-2]) ** 2]
    for i in range(1, m - 1):
        p[i] = (sites[i] - sites[i - 1]) / (sites[i + 1] - sites[i - 1])
        hold[i] = (sites[i] - sites[i - 1]) * (sites[i + 1] - sites[i])
    p[-1] = 0.0
    assert chain.p_right.tolist() == p and chain.mean_holding.tolist() == hold


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
    assert ext.visits.tolist() == [0] * 15 + [143, 245] + [0] * 15
    bm = simulate_trace_chain(config, mu, grid, 0.0, 3_000, seed=8, mode="brownian")
    assert bm.visits.tolist() == [
        48, 105, 124, 89, 85, 135, 136, 70, 122, 207, 186, 125, 157, 251, 286, 164,
        32, 56, 62, 47, 36, 61, 76, 43, 31, 61, 55, 28, 25, 38, 40, 20,
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
    # recorded values: the walk crosses chunk edges without ending on one
    spec = darn(EX215, 0, depth=6)
    grid = np.linspace(0.0, 1.0, 65)
    stats = simulate_darned(spec, grid, 0.5, 3 * _CHUNK + 5, seed=21)
    assert stats.visits.tolist() == [
        1684, 1635, 1569, 1633, 1702, 1760, 1726, 1522, 1378, 1356, 1395, 1417, 1388,
        1449, 1556, 1564, 1486, 1428, 1468, 1517, 1478, 1425, 1387, 1359, 1361, 1380,
        1462, 1509, 1540, 1603, 1669, 1683, 1650, 1707, 1739, 1718, 1704, 1737, 1690,
        1600, 1576, 1598, 1632, 1567, 1494, 1459, 1413, 1359, 1328, 1303, 1247, 1225,
        1307, 1401, 1468, 1529, 1515, 1442, 1441, 1506, 1524, 1497, 1473, 1475, 1497,
    ]
    short = simulate_darned(spec, grid, 0.5, 2, seed=21)
    assert short.visits.tolist() == [0] * 31 + [1, 2] + [0] * 32


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
