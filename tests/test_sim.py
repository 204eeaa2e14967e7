"""Grid-chain approximation: transition law, holding times, Monte Carlo runs."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    McEstimate,
    build_chain,
    hitting_probability,
    simulate_darned,
    simulate_path,
    simulate_trace_chain,
    snap_grid,
)
from bmext.trace import trace_structure

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
    # spawned child seeds as well as the per-step draws
    assert est == McEstimate(0.58339, 0.0015590014059819954, 100_000, 20260814, excluded=0)


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
    assert est2 == McEstimate(0.49258542875564154, 0.012698616234831421, 1551, 2, excluded=449)


def test_hitting_between_interior_sites_pinned_values():
    # l and r are interior, non-absorbing sites: walkers stop on them all the same
    grid = snap_grid(EX215, 0, 0.0, 1.0, 24, depth=6)
    chain = build_chain(EX215, 0, grid)
    assert not chain.absorbing[[4, 16]].any()
    est = hitting_probability(chain, grid[8], grid[4], grid[16], 5_000, seed=7)
    assert est == McEstimate(0.4502, 0.007036611029391619, 5_000, 7, excluded=0)


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


# -- trace chains ------------------------------------------------------------


def _dust_grid(config):
    dust = config.complement.dust[0]
    pts = {float(a) for a, _ in dust.pieces()} | {float(b) for _, b in dust.pieces()}
    return sorted(pts)


def test_extension_trace_confined_to_one_gap():
    config = preset("ex218", depth=4)
    mu = build_trace_measure(config)
    grid = _dust_grid(config)
    table = simulate_trace_chain(config, mu, grid, 1 / 3, 50_000, seed=7, mode="extension")
    assert set(table.support().tolist()) == {1 / 3, 2 / 3}
    assert table.frequency.sum() == pytest.approx(1.0, rel=1e-12)
    assert (table.frequency > 0).sum() == 2


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
