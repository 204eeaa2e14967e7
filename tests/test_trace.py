"""Trace set resolution, trace energies, harmonic interpolation, membership."""

import hashlib
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from bmext.config import PRESET_NAMES, ExtensionConfig, IntervalSpec, preset
from bmext.forms import BUILTIN_NAMES, energy, named_function
from bmext.scale import ScaleFunction, make_scale
from bmext.trace import (
    TraceFn,
    TraceKind,
    _cell_mass,
    _cell_masses,
    harmonic_extension,
    jump_contributions,
    trace_energy_bm,
    trace_energy_ext,
    trace_membership,
    trace_restriction,
    trace_structure,
)

EX215 = preset("ex215")


def ramp_config():
    """Natural closed [0, 1] between stacked open rays: the trace set near
    the unit interval is just the two endpoints."""
    return ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.0)),
            IntervalSpec(make_scale(0.0, 1.0, include_lo=True, include_hi=True)),
            IntervalSpec(make_scale(1.0, math.inf)),
        ),
        name="ramp",
    )


def clipped_identity(x):
    return min(1.0, max(0.0, x))


def test_structure_ex215():
    st = trace_structure(EX215, depth=8)
    assert len(st.cells) == 2**8
    assert len(st.gaps) == 2**8 - 1
    assert st.span() == (0.0, 1.0)
    assert all(inside == 0 for _, _, inside in st.gaps)
    assert all(lo < hi for lo, hi in st.cells)


def test_structure_ex216_straddles_origin():
    # the unresolved stack tails and the trap point fuse into one cell
    st = trace_structure(preset("ex216"), depth=8)
    straddling = [(lo, hi) for lo, hi in st.cells if lo < 0.0 < hi]
    assert len(straddling) == 1
    assert straddling[0][0] == -straddling[0][1]
    assert all(not (lo < 0.0 < hi) for lo, hi, _ in st.gaps)


def test_structure_empty_trace_set():
    cfg = ExtensionConfig((IntervalSpec(make_scale(-math.inf, math.inf)),))
    with pytest.raises(ValueError):
        trace_structure(cfg)


@pytest.mark.parametrize("depth", [4, 8])
def test_bm_energy_identity_on_cantor_set(depth):
    tf = trace_restriction(EX215, lambda x: x, depth=depth)
    assert trace_energy_bm(EX215, tf) == pytest.approx(
        0.5 * (1 - (2 / 3) ** depth), rel=1e-12
    )


def test_bm_energy_single_gap_ramp():
    tf = trace_restriction(ramp_config(), clipped_identity, depth=8)
    assert trace_energy_bm(ramp_config(), tf) == 0.5


def test_bm_energy_constant_is_zero():
    tf = trace_restriction(EX215, lambda x: 7.25, depth=6)
    assert trace_energy_bm(EX215, tf) == 0.0


def test_ext_energy_cantor_restriction():
    c = named_function(EX215, "cantor")
    tf = trace_restriction(EX215, c, depth=8, densities=(1.0,))
    assert trace_energy_bm(EX215, tf) <= 1e-12
    assert trace_energy_ext(EX215, tf) == pytest.approx(0.5, rel=1e-12)


def test_ext_energy_diverges_on_stack_with_density():
    cfg = preset("ex216")
    tf = trace_restriction(cfg, lambda x: 0.0, depth=6, densities=(1.0, 0.0))
    assert trace_energy_ext(cfg, tf) == math.inf


def test_pure_jump_energies_coincide_exactly():
    cfg = preset("ex218", depth=4)
    x_k = trace_restriction(cfg, clipped_identity, depth=4)
    bm = trace_energy_bm(cfg, x_k)
    assert bm == trace_energy_ext(cfg, x_k)
    assert bm == pytest.approx(0.5 * (1 - (2 / 3) ** 4), rel=1e-12)
    c_k = trace_restriction(cfg, named_function(EX215, "cantor"), depth=4)
    assert trace_energy_ext(cfg, c_k) <= 1e-12
    assert trace_energy_ext(cfg, c_k) == trace_energy_bm(cfg, c_k)


def test_trace_energies_pinned():
    # recorded values: both energies sum the same per-gap terms bit for bit
    cantor = named_function(EX215, "cantor")
    tf = trace_restriction(EX215, cantor, depth=8, densities=(1.0,))
    assert trace_energy_ext(EX215, tf) == 0.5000000000000003
    square = trace_restriction(EX215, lambda x: x * x, depth=6)
    assert trace_energy_bm(EX215, square) == 0.5941563934683892
    assert trace_energy_ext(EX215, square) == 0.5941563934683892
    ex217 = preset("ex217", depth=5)
    wave = trace_restriction(ex217, lambda x: math.sin(3 * x), depth=5)
    assert trace_energy_bm(ex217, wave) == 2.3635185444933016
    assert trace_energy_ext(ex217, wave) == 2.3635185444933016


def test_harmonic_extension_constant():
    tf = trace_restriction(EX215, lambda x: 1.0, depth=6)
    h = harmonic_extension(EX215, tf)
    for x in (-3.0, 0.0, 0.2, 0.5, 1.0, 4.0):
        assert h.eval(x) == 1.0


def test_harmonic_extension_unit_ramp():
    cfg = ramp_config()
    tf = trace_restriction(cfg, clipped_identity, depth=8)
    h = harmonic_extension(cfg, tf)
    assert h.eval(0.5) == 0.5
    assert h.eval(0.25) == 0.25
    assert h.eval(-2.0) == 0.0
    assert h.eval(3.0) == 1.0


def test_harmonic_extension_reproduces_cantor_function():
    c = named_function(EX215, "cantor")
    tf = trace_restriction(EX215, c, depth=8, densities=(1.0,))
    h = harmonic_extension(EX215, tf)
    for x in (0.0, Fraction(1, 3), Fraction(1, 4), 0.5, 0.7, 1.0, 2.0, -1.0):
        assert h.eval(x) == pytest.approx(c.eval(x), abs=1e-9)
    # its form energy matches the extension trace energy
    assert energy(EX215, h) == pytest.approx(trace_energy_ext(EX215, tf), abs=1e-6)


def test_harmonic_extension_rejects_jump_over_infinite_mass():
    cfg = preset("ex216")
    tf = trace_restriction(cfg, lambda x: x, depth=6)
    with pytest.raises(ValueError):
        harmonic_extension(cfg, tf)


def _dirichlet_of_affine_segments(h):
    total = 0.0
    for part in h.parts:
        for lo, hi, u, _ in part.pieces:
            if u and math.isfinite(lo) and math.isfinite(hi):
                total += u * u * (hi - lo)
    return 0.5 * total


@pytest.mark.parametrize(
    "cfg_fn, sample",
    [
        (lambda: EX215, lambda x: x),
        (lambda: EX215, named_function(EX215, "cantor")),
        (ramp_config, clipped_identity),
    ],
)
def test_trace_identity_bm_equals_harmonic_dirichlet(cfg_fn, sample):
    cfg = cfg_fn()
    tf = trace_restriction(cfg, sample, depth=8)
    h = harmonic_extension(cfg, tf)
    assert abs(trace_energy_bm(cfg, tf) - _dirichlet_of_affine_segments(h)) <= 1e-9


def _shifted(tf: TraceFn, c: float) -> TraceFn:
    return TraceFn(tf.structure, tuple((vl + c, vh + c) for vl, vh in tf.values), tf.densities)


def test_energy_symmetries():
    tf = trace_restriction(EX215, lambda x: x, depth=6)
    assert trace_energy_bm(EX215, _shifted(tf, 4.5)) == pytest.approx(
        trace_energy_bm(EX215, tf), rel=1e-9
    )
    assert trace_energy_ext(EX215, _shifted(tf, -2.0)) == pytest.approx(
        trace_energy_ext(EX215, tf), rel=1e-9
    )
    assert trace_energy_bm(EX215, tf.scaled(3.0)) == pytest.approx(
        9.0 * trace_energy_bm(EX215, tf), rel=1e-12
    )


def test_jump_contributions_rows():
    tf = trace_restriction(EX215, lambda x: x, depth=6)
    rows = jump_contributions(EX215, tf)
    assert len(rows) == 2**6 - 1
    assert math.fsum(c for _, _, c in rows) == pytest.approx(
        trace_energy_bm(EX215, tf), rel=1e-12
    )


def test_membership_identity_restriction_is_brownian():
    tf = trace_restriction(EX215, lambda x: x, depth=8)
    rep = trace_membership(EX215, tf, (-0.5, 1.5))
    assert rep.kind is TraceKind.BROWNIAN_TRACE
    assert rep.fine_ratio == pytest.approx((2 / 3) ** 8, rel=1e-9)
    assert rep.fine_ratio < rep.coarse_ratio
    assert "depth 8" in rep.note


def test_membership_smooth_restriction_is_brownian():
    tf = trace_restriction(EX215, lambda x: x * x - 3.0, depth=8)
    rep = trace_membership(EX215, tf, (-0.5, 1.5))
    assert rep.kind is TraceKind.BROWNIAN_TRACE


def test_membership_cantor_restriction_needs_extension():
    c = named_function(EX215, "cantor")
    tf = trace_restriction(EX215, c, depth=8, densities=(1.0,))
    rep = trace_membership(EX215, tf, (-0.5, 1.5))
    assert rep.kind is TraceKind.EXTENSION_TRACE_ONLY
    # sampling at rounded cell endpoints leaves Holder-scale noise
    assert rep.deficit == pytest.approx(1.0, abs=1e-6)
    assert rep.fine_ratio > rep.coarse_ratio
    assert rep.ext_energy == pytest.approx(0.5, rel=1e-9)


def test_membership_cantor_on_pure_jump_config():
    cfg = preset("ex218", depth=4)
    tf = trace_restriction(cfg, named_function(EX215, "cantor"), depth=4)
    rep = trace_membership(cfg, tf, (-0.5, 1.5))
    assert rep.kind is TraceKind.EXTENSION_TRACE_ONLY
    assert rep.ext_energy <= 1e-12


def test_membership_neither():
    cfg = preset("ex216")
    st = trace_structure(cfg, depth=6)
    values = tuple((0.0, 1.0) if lo < hi else (0.0, 0.0) for lo, hi in st.cells)
    tf = TraceFn(st, values, (1.0, 1.0))
    rep = trace_membership(cfg, tf, (-1.0, 1.0))
    assert rep.kind is TraceKind.NEITHER
    assert rep.ext_energy == math.inf


def test_membership_window_validation():
    tf = trace_restriction(EX215, lambda x: x, depth=4)
    with pytest.raises(ValueError):
        trace_membership(EX215, tf, (math.inf, 2.0))
    with pytest.raises(ValueError):
        trace_membership(EX215, tf, (5.0, 6.0))


def test_tracefn_validation():
    st = trace_structure(EX215, depth=3)
    good = tuple((0.0, 0.0) for _ in st.cells)
    TraceFn(st, good, (0.0,))
    with pytest.raises(ValueError):
        TraceFn(st, good[:-1], (0.0,))
    with pytest.raises(ValueError):
        TraceFn(st, good, (0.0, 0.0))
    bad = (( math.nan, 0.0),) + good[1:]
    with pytest.raises(ValueError):
        TraceFn(st, bad, (0.0,))
    with pytest.raises(ValueError):
        TraceFn(st, good, (math.inf,))


# sha256 pins recorded when every cell end was an exact Fraction, sorted and
# merged exactly, and every cell lookup scanned the cells from the left
TRACE_PINS = json.loads((pathlib.Path(__file__).parent / "trace_pins.json").read_text())


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_trace_structure_pinned(name):
    for depth in range(1, 11):
        st = trace_structure(preset(name, depth), depth)
        assert [_sha(st.cells), _sha(st.gaps)] == TRACE_PINS["structure"][f"{name} {depth}"]


def _pinned_extension(cfg, tf) -> str:
    try:
        return _sha(harmonic_extension(cfg, tf).parts)
    except ValueError as exc:
        return type(exc).__name__


def test_harmonic_extension_lists_no_support(monkeypatch):
    # each cell mass was summed over every interval, each rebuilding its
    # support hull: about one w_supports call per cell per interval
    cfg = preset("ex218", 6)
    tf = trace_restriction(cfg, named_function(cfg, "tent"), 6)
    calls = []
    listed = ScaleFunction.w_supports
    monkeypatch.setattr(ScaleFunction, "w_supports", lambda *a: calls.append(a) or listed(*a))
    harmonic_extension(cfg, tf)
    assert calls == []


def test_restriction_reads_w_at_each_anchor_once(monkeypatch):
    # PiecewiseFn.eval measures W from its interval's anchor e; W(e) is
    # evaluated once per scale, not once per site
    cfg = preset("ex217", 5)
    at_anchor = []
    counted = ScaleFunction._w_ratio
    monkeypatch.setattr(
        ScaleFunction,
        "_w_ratio",
        lambda self, x, *a: at_anchor.append(x == self.e) or counted(self, x, *a),
    )
    trace_restriction(cfg, named_function(cfg, "cantor"), 5)
    assert len(at_anchor) > 1000
    assert sum(at_anchor) <= len(cfg.intervals)


def _random_trace_fn(st, rng):
    values = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in st.cells)
    return TraceFn(st, values, (0.0,) * st.n_intervals)


def test_harmonic_extensions_of_one_structure_share_cell_masses(monkeypatch):
    # verify's trace check extends 20 functions on one depth-8 structure;
    # W is evaluated once per cell end for all of them, not once per extension
    cfg = preset("ex215")
    st = trace_structure(cfg, 8)
    rng = random.Random(7)
    fns = [_random_trace_fn(st, rng) for _ in range(20)]
    calls = []
    counted = ScaleFunction._w_ratio
    monkeypatch.setattr(
        ScaleFunction, "_w_ratio", lambda self, x, *a: calls.append(x) or counted(self, x, *a)
    )
    _cell_masses.cache_clear()
    for tf in fns:
        harmonic_extension(cfg, tf)
    assert sorted(calls) == sorted(x for cell in st.cells for x in cell)


def test_cell_mass_memo_follows_config_and_structure():
    # a unit block and a weight-2 block on [0, 1] give equal structures with
    # different masses; alternating over them and over depths must never
    # read another pair's masses
    heavy = ExtensionConfig(
        (IntervalSpec(make_scale(-math.inf, math.inf, blocks=[(0, 1, 2)])),), name="heavy"
    )
    cases = [(EX215, 5), (heavy, 5), (preset("ex216"), 5), (EX215, 6)]
    assert trace_structure(EX215, 5) == trace_structure(heavy, 5)
    rng = random.Random(11)
    runs = []
    for cfg, depth in cases:
        st = trace_structure(cfg, depth)
        # on ex216 a symmetric function keeps one value across the trap cell at 0
        tf = (
            trace_restriction(cfg, named_function(cfg, "tent"), depth)
            if cfg.name == "ex216"
            else _random_trace_fn(st, rng)
        )
        _cell_masses.cache_clear()
        runs.append((cfg, st, tf, harmonic_extension(cfg, tf)))
    for _ in range(2):
        for cfg, st, tf, fresh in runs:
            assert harmonic_extension(cfg, tf) == fresh
            assert _cell_masses(cfg, st) == tuple(
                0.0 if lo == hi else _cell_mass(cfg, lo, hi) for lo, hi in st.cells
            )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_harmonic_extension_pinned(name):
    pins = TRACE_PINS["harmonic"]
    for depth in (3, 5):
        cfg = preset(name, depth)
        for fn in BUILTIN_NAMES:
            tf = trace_restriction(cfg, named_function(cfg, fn), depth)
            assert _pinned_extension(cfg, tf) == pins[f"{name} {depth} {fn}"], (depth, fn)
    if name == "ex215":
        st = trace_structure(EX215, 6)
        for seed in range(3):
            rng = random.Random(seed)
            values = tuple((rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in st.cells)
            tf = TraceFn(st, values, (0.0,))
            assert _pinned_extension(EX215, tf) == pins[f"ex215 6 random-{seed}"], seed
