"""Configuration layer: interval families, validation, point classes, trace measure."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bmext.cantor import CantorBlock
from bmext.cli import scenario_hash
from bmext.config import (
    ComplementSpec,
    DustSpec,
    ExtensionConfig,
    IntervalSpec,
    PointClass,
    PRESET_NAMES,
    _WPart,
    build_trace_measure,
    classify_point,
    preset,
    validate,
)
from bmext.scale import make_scale
from bmext.sim import _site_weights
from bmext.trace import trace_structure
from strategies import CONFIG_ENDS, random_configs, random_scales


# a bounded interval stacked at both ends between two closed rays
STACKED_WINDOW = ExtensionConfig(
    (
        IntervalSpec(make_scale(-math.inf, 0.0, include_hi=True)),
        IntervalSpec(make_scale(0.0, 1.0)),
        IntervalSpec(make_scale(1.0, math.inf, include_lo=True)),
    )
)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate(name):
    rep = validate(preset(name))
    assert rep.ok, rep.errors


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("no-such-thing")


def test_ex215_single_interval_covers_line():
    cfg = preset("ex215")
    assert len(cfg.intervals) == 1
    iv = cfg.intervals[0]
    assert iv.lo == -math.inf and iv.hi == math.inf
    assert cfg.locate(-5.0) == 0 and cfg.locate(17.2) == 0
    assert classify_point(cfg, 0.3) is PointClass.REGULAR


def test_ex216_trap_between_half_lines():
    cfg = preset("ex216")
    assert classify_point(cfg, 0.0) is PointClass.TRAP
    assert classify_point(cfg, -1.0) is PointClass.REGULAR
    assert cfg.locate(0.0) is None
    # both half-lines stack against the trap
    assert cfg.intervals[0].scale.stack_hi
    assert cfg.intervals[1].scale.stack_lo


def test_ex217_shells_and_leftover_segments():
    cfg = preset("ex217", depth=8)
    assert len(cfg.intervals) == 2 + 2 * 8
    assert classify_point(cfg, 0.0) is PointClass.TRAP
    # shared shell endpoints alternate: -1 belongs to the outer closed ray
    assert classify_point(cfg, -1.0) is PointClass.LEFT_SHUNT
    assert classify_point(cfg, 1.0) is PointClass.RIGHT_SHUNT
    # innermost leftover segments are trap territory at this truncation
    assert classify_point(cfg, 0.05) is PointClass.TRAP
    assert cfg.complement.materialized_measure() == pytest.approx(2.0 / 9.0)


def test_ex218_gap_closures_and_dust():
    cfg = preset("ex218", depth=4)
    assert len(cfg.intervals) == 2 + (2**4 - 1)
    # 0 is the included right end of a ray, so a shunt beats the dust label
    assert classify_point(cfg, 0.0) is PointClass.LEFT_SHUNT
    assert classify_point(cfg, 1.0) is PointClass.RIGHT_SHUNT
    assert classify_point(cfg, 1.0 / 3.0) is PointClass.RIGHT_SHUNT
    assert classify_point(cfg, 0.5) is PointClass.REGULAR
    # interior of the leftmost surviving remnant piece [0, 1/81]
    assert classify_point(cfg, 1.0 / 162.0) is PointClass.TRAP
    assert cfg.complement.materialized_measure() == pytest.approx((2.0 / 3.0) ** 4)


def test_ex218_dust_measure_exact():
    dust = DustSpec(0.0, 1.0, 4)
    assert dust.measure_in(0.0, 1.0) == Fraction(2, 3) ** 4
    assert dust.measure_in(0.0, Fraction(1, 81)) == Fraction(1, 81)
    # a gap interior carries none of the dust
    assert dust.measure_in(Fraction(1, 3), Fraction(2, 3)) == 0


# scenario hashes of ex218 at depths 0-10, recorded when its gaps came from
# the unit-interval enumerator; the hash covers every interval end
EX218_HASHES = [
    "b364260d9e05ac49",
    "099da85fa278ca1f",
    "8459bdc6de4796bf",
    "fee42a21547badaa",
    "20c977988b54b25d",
    "22f9a5030ae4ed9e",
    "4f8dd1c6435f4586",
    "54710d39355f199a",
    "db2852351f40db5e",
    "ee50d02f230cd64d",
    "8e14acdc7286468e",
]


def test_ex218_scenario_hash_pinned():
    assert [scenario_hash(preset("ex218", d)) for d in range(11)] == EX218_HASHES


def _pieces(dust):
    """The dust's level-depth pieces: the remnants of its Cantor block."""
    return [(a, b) for a, b, _ in CantorBlock(dust.lo, dust.hi).remnants(dust.depth)]


# sha256 of repr(_pieces()), recorded when each piece end was built from a
# unit remnant with a Fraction product and sum
DUST_PIECE_PINS = {
    (0.0, 1.0, 0): "d5a5703b1d301c816e29307553b92416790881e7fa3a08bd3d9cf684300fbe16",
    (0.0, 1.0, 5): "5c7a5115706d5aa3325a862014496dd9a04a76e563c8201fb26ab5df6967a05b",
    (-0.75, 2.5, 4): "174163b997d8566d2360349f05656a5bcc5740903352d17ab250e5c680fbe05d",
    (0.1, 0.3, 7): "61fa15172f4fe0b365452731099a275870271186bd690aa72b6c7302965ee34a",
    (-3.0, -1.0, 3): "25480f6f8c79b96eb6c68540efed17698e7c98d34b76ec88335f3337accfb651",
}


def test_dust_pieces_pinned():
    for (lo, hi, depth), pin in DUST_PIECE_PINS.items():
        pieces = _pieces(DustSpec(lo, hi, depth))
        assert len(pieces) == 2**depth
        assert hashlib.sha256(repr(pieces).encode()).hexdigest() == pin


def _piece_scan(dust, u, v):
    # the former DustSpec.measure_in: clip every level-depth piece to [u, v]
    fu, fv = Fraction(u), Fraction(v)
    total = Fraction(0)
    for plo, phi in _pieces(dust):
        a, b = max(plo, fu), min(phi, fv)
        if b > a:
            total += b - a
    return total


@st.composite
def _dust_windows(draw):
    """A dust with finite lo < hi at depth 0-8 and a window [u, v] on it."""
    depth = draw(st.integers(0, 8))
    lo = draw(st.floats(-8.0, 8.0))
    hi = lo + draw(st.floats(1e-3, 8.0))
    dust = DustSpec(lo, hi, depth)
    pieces = _pieces(dust)
    width = Fraction(hi) - Fraction(lo)

    def end():
        kind = draw(st.sampled_from(["remnant", "third", "float", "outside"]))
        if kind == "remnant":
            x = draw(st.sampled_from(pieces))[draw(st.integers(0, 1))]
            return x if draw(st.booleans()) else float(x)
        if kind == "third":
            level = draw(st.integers(1, 9))
            k = draw(st.integers(0, 3**level))
            return float(Fraction(lo) + width * Fraction(k, 3**level))
        if kind == "float":
            return draw(st.floats(lo, hi))
        return draw(st.one_of(st.floats(lo - 10.0, lo), st.floats(hi, hi + 10.0)))

    return dust, end(), end()


@settings(max_examples=300, deadline=None)
@given(_dust_windows())
def test_dust_measure_matches_the_piece_scan(case):
    dust, u, v = case
    got = dust.measure_in(u, v)
    assert type(got) is Fraction and got == _piece_scan(dust, u, v)


def test_dust_measure_at_depth_200_matches_self_similarity():
    # [0, 1/4] and [0, 3/4] map onto each other under the two similarities
    # of the Cantor set, so their remnant lengths follow a two-term recursion
    quarter, three_quarters = Fraction(1, 4), Fraction(3, 4)
    for d in range(1, 201):
        quarter, three_quarters = (
            three_quarters / 3,
            Fraction(2, 3) ** (d - 1) / 3 + quarter / 3,
        )
    dust = DustSpec(0.0, 1.0, 200)
    assert dust.measure_in(0.0, 0.25) == quarter
    assert dust.measure_in(0.25, 0.75) == Fraction(2, 3) ** 200 - 2 * quarter


def _remnant_length_by_fraction(x, depth):
    # the former cantor.remnant_length, digit by digit on a Fraction
    fx = Fraction(x)
    if fx <= 0:
        return Fraction(0)
    if fx >= 1:
        return Fraction(2**depth, 3**depth)
    num, den = fx.numerator, fx.denominator
    bits = 0
    for k in range(depth):
        digit, num = divmod(3 * num, den)
        bits = 2 * bits + (digit > 0)
        if digit == 1 or not num:
            return Fraction(bits << (depth - k - 1), 3**depth)
    return Fraction(bits * den + num, 3**depth * den)


def _dust_measure_by_fraction(dust, u, v):
    # the former DustSpec.measure_in: Fraction clipping and rescaling
    flo, fhi = Fraction(dust.lo), Fraction(dust.hi)
    a, b = max(flo, Fraction(u)), min(fhi, Fraction(v))
    if b <= a:
        return Fraction(0)
    width = fhi - flo
    return width * (
        _remnant_length_by_fraction((b - flo) / width, dust.depth)
        - _remnant_length_by_fraction((a - flo) / width, dust.depth)
    )


@st.composite
def _deep_dust_windows(draw):
    """A dust at depth 0-40, too deep to list, and a window [u, v] on it."""
    depth = draw(st.integers(0, 40))
    lo = draw(st.floats(-8.0, 8.0))
    hi = lo + draw(st.floats(1e-3, 8.0))
    width = Fraction(hi) - Fraction(lo)

    def end():
        kind = draw(st.sampled_from(["piece", "third", "float", "outside"]))
        if kind == "piece":
            # piece i starts at 2a / 3**depth, the ternary digits of a being
            # the binary digits of i
            i = draw(st.integers(0, 2**depth - 1))
            a = sum(3**k for k in range(depth) if i >> k & 1)
            x = Fraction(lo) + width * Fraction(2 * a + draw(st.integers(0, 1)), 3**depth)
            return x if draw(st.booleans()) else float(x)
        if kind == "third":
            level = draw(st.integers(1, 45))
            k = draw(st.integers(0, 3**level))
            return float(Fraction(lo) + width * Fraction(k, 3**level))
        if kind == "float":
            return draw(st.floats(lo, hi))
        return draw(st.one_of(st.floats(lo - 10.0, lo), st.floats(hi, hi + 10.0)))

    return DustSpec(lo, hi, depth), end(), end()


@settings(max_examples=500, deadline=None)
@given(st.one_of(_dust_windows(), _deep_dust_windows()))
def test_dust_measure_matches_the_fraction_formula(case):
    dust, u, v = case
    got = dust.measure_in(u, v)
    assert type(got) is Fraction and got == _dust_measure_by_fraction(dust, u, v)


def test_validate_never_materialises_the_dust(monkeypatch):
    def refuse(self, depth):
        raise AssertionError("validate enumerated the dust pieces")

    monkeypatch.setattr(CantorBlock, "remnants", refuse)
    assert validate(preset("ex218", 12)).ok


_EX218_RESIDUALS = (
    "1", "0.666667", "0.444444", "0.296296", "0.197531", "0.131687", "0.0877915",
    "0.0585277", "0.0390184", "0.0260123", "0.0173415",
)


def _residual_note(depth):
    return (
        f"complement holds measure {_EX218_RESIDUALS[depth]} at this truncation depth; "
        "the ideal (fully refined) complement is null"
    )


@pytest.mark.parametrize("depth", range(11))
def test_validate_ex218_pinned(depth):
    # recorded before the dust accounting went closed-form
    rep = validate(preset("ex218", depth))
    assert (rep.ok, rep.errors, rep.notes) == (True, [], [_residual_note(depth)])


@pytest.mark.parametrize(
    "depth, drop, error",
    [
        (1, 1, "gap (0.0, 1.0) has length 1.0 but the complement accounts for "
               "0.6666666666666666"),
        (2, 2, "gap (0.2222222222222222, 0.7777777777777778) has length "
               "0.5555555555555556 but the complement accounts for 0.2222222222222222"),
        (4, 8, "gap (0.32098765432098764, 0.6790123456790124) has length "
               "0.3580246913580247 but the complement accounts for 0.024691358024691357"),
        (8, 1, "gap (0.0, 0.0004572473708276177) has length 0.0004572473708276177 "
               "but the complement accounts for 0.00030483158055174517"),
        (8, 2, "gap (0.00030483158055174517, 0.001066910531931108) has length "
               "0.0007620789513793629 but the complement accounts for "
               "0.0003048315805517451"),
        (8, 128, "gap (0.33318091754305745, 0.6668190824569425) has length "
                 "0.3336381649138851 but the complement accounts for "
                 "0.00030483158055174517"),
        (8, 255, "gap (0.9995427526291724, 1.0) has length 0.00045724737082764033 "
                 "but the complement accounts for 0.00030483158055174517"),
        (10, 700, "gap (0.7527646530847263, 0.7529509390506189) has length "
                  "0.0001862859658926519 but the complement accounts for "
                  "3.387017561677932e-05"),
    ],
)
def test_validate_ex218_missing_gap_pinned(depth, drop, error):
    # recorded before the dust accounting went closed-form: removing one gap
    # interval leaves a gap the dust covers only in part
    cfg = preset("ex218", depth)
    ivs = cfg.intervals[:drop] + cfg.intervals[drop + 1:]
    rep = validate(ExtensionConfig(ivs, cfg.complement, name="ex218"))
    assert (rep.ok, rep.errors, rep.notes) == (False, [error], [_residual_note(depth)])


def test_darning_sojourn_shape():
    cfg = preset("darning-sojourn")
    assert classify_point(cfg, -1.0) is PointClass.RIGHT_SHUNT
    assert cfg.intervals[0].scale.stack_hi
    assert cfg.intervals[1].scale.blocks


def test_validate_rejects_overlap():
    cfg = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.5, include_hi=True)),
            IntervalSpec(make_scale(0.0, math.inf, include_lo=True)),
        )
    )
    rep = validate(cfg)
    assert not rep.ok
    assert any("overlap" in e for e in rep.errors)


def test_validate_rejects_unlisted_trap_point():
    cfg = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.0)),
            IntervalSpec(make_scale(0.0, math.inf)),
        )
    )
    rep = validate(cfg)
    assert not rep.ok
    assert any("absent from the complement" in e for e in rep.errors)


def test_validate_rejects_unaccounted_gap():
    cfg = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.0)),
            IntervalSpec(make_scale(1.0, math.inf)),
        ),
        ComplementSpec(points=(0.0, 1.0)),
    )
    rep = validate(cfg)
    assert not rep.ok
    assert any("gap" in e for e in rep.errors)


def test_validate_refuses_a_cover_short_of_the_gap_end():
    # 1e-12 of the line, 9,007 ulps at 0.7, belongs to nothing
    cfg = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.3, include_hi=True)),
            IntervalSpec(make_scale(0.7, math.inf, include_lo=True)),
        ),
        ComplementSpec(segments=((0.3, 0.7 - 1e-12),)),
    )
    rep = validate(cfg)
    assert not rep.ok
    assert rep.errors == ["gap (0.3, 0.7) has length 0.39999999999999997 but the complement "
                          "accounts for 0.399999999999"]


# about one drawn configuration in nine has a gap between neighbouring intervals
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(random_configs(), st.data())
def test_validate_refuses_a_sliver_cut_from_a_gap(config, data):
    # one segment on each gap between neighbouring intervals covers it; a
    # sliver of one ulp of the gap's coarser end or more, cut at either end,
    # leaves part of the gap to nothing
    ivs = config.intervals
    gaps = [(left.hi, right.lo) for left, right in zip(ivs, ivs[1:]) if left.hi < right.lo]
    assume(gaps)

    def gap_errors(segments):
        rep = validate(ExtensionConfig(ivs, ComplementSpec(segments=tuple(segments))))
        return [e for e in rep.errors if e.startswith("gap (")]

    assert gap_errors(gaps) == []
    i = data.draw(st.integers(0, len(gaps) - 1))
    lo, hi = gaps[i]
    ulp = max(math.ulp(lo), math.ulp(hi))
    step = ulp * data.draw(st.integers(1, 2**40))
    cut = (lo + step, hi) if data.draw(st.booleans()) else (lo, hi - step)
    assume(Fraction(cut[1]) - Fraction(cut[0]) <= Fraction(hi) - Fraction(lo) - Fraction(ulp))
    errors = gap_errors(gaps[:i] + [cut] + gaps[i + 1:])
    assert len(errors) == 1 and errors[0].startswith(f"gap ({lo}, {hi}) has length")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate_at_depths_1_to_12(name):
    # the dust counts exact remnants, the gap intervals end on their floats:
    # every difference stays within half an ulp at each end
    for depth in range(1, 13):
        rep = validate(preset(name, depth))
        assert rep.ok, (depth, rep.errors)


def test_validate_rejects_double_included_endpoint():
    cfg = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.0)),
            IntervalSpec(make_scale(0.0, 1.0, include_lo=False, include_hi=True)),
            IntervalSpec(make_scale(1.0, math.inf, include_lo=True)),
        ),
        ComplementSpec(points=(0.0,)),
    )
    rep = validate(cfg)
    assert not rep.ok
    assert any("included endpoints on both sides" in e for e in rep.errors)


def test_trace_measure_ex215_is_singular_part_of_dt():
    mu = build_trace_measure(preset("ex215"))
    assert mu.atoms == ()
    assert not mu.is_purely_atomic()
    assert mu.mass(0.0, 1.0) == pytest.approx(1.0)
    assert mu.mass(-3.0, 0.0) == pytest.approx(0.0)
    assert mu.mass(0.0, 1.0 / 3.0) == pytest.approx(0.5)


def test_trace_measure_ex216_lives_on_the_stacks():
    mu = build_trace_measure(preset("ex216"))
    assert mu.atoms == ()
    # shells sit inside distance 1/2 of the trap, one unit of mass each
    assert mu.mass(-1.0, -0.5) == 0.0
    assert mu.mass(-0.5, -0.25) == pytest.approx(1.0)
    assert mu.mass(0.125, 0.25) == pytest.approx(1.0)


def test_trace_measure_ex218_all_atoms():
    depth = 4
    mu = build_trace_measure(preset("ex218", depth=depth))
    assert mu.is_purely_atomic()
    assert mu.atom_mass(0.0) == 1.0  # unbounded neighbor, capped weight
    assert mu.atom_mass(1.0 / 3.0) == pytest.approx(1.0 / 3.0)
    assert mu.atom_mass(2.0 / 3.0) == pytest.approx(1.0 / 3.0)
    # 2 ray atoms + both ends of every materialized gap
    expected = 2.0 + 2.0 * (1.0 - (2.0 / 3.0) ** depth)
    assert mu.mass(0.0, 1.0) == pytest.approx(expected)


def test_trace_measure_window_renormalization():
    # bounded interval whose stacks give dt|_W infinite mass: the windowed
    # series must still hand the open part exactly its length
    cfg = STACKED_WINDOW
    assert validate(cfg).ok
    mu = build_trace_measure(cfg)
    # one part: a series of windows, each retreating from both stacked ends
    assert len(mu.w_parts) == 1 and len(mu.w_parts[0].windows) > 1
    assert all(0.0 < wlo < whi < 1.0 for _, wlo, whi in mu.w_parts[0].windows)
    open_part = mu.mass(0.0, 1.0) - mu.atom_mass(0.0) - mu.atom_mass(1.0)
    assert open_part == pytest.approx(1.0, abs=1e-9)


def test_trace_measure_scaled_kind_totals_interval_length():
    # bounded interval, finite singular mass: flat rescale to b - a
    cfg = ExtensionConfig(
        (
            IntervalSpec(make_scale(-math.inf, 0.0, include_hi=True)),
            IntervalSpec(
                make_scale(0.0, 1.0, include_lo=True, include_hi=True, blocks=[(0, 1, 2)])
            ),
            IntervalSpec(make_scale(1.0, math.inf, include_lo=True)),
        ),
        ComplementSpec(),
    )
    rep = validate(cfg)
    assert not rep.ok  # 0 and 1 are claimed twice
    mu = build_trace_measure(cfg)
    # one flat window over the whole interval, rescaled by (b - a) / W-mass
    scaled = [p for p in mu.w_parts if len(p.windows) == 1]
    assert len(scaled) == 1
    ((coef, wlo, whi),) = scaled[0].windows
    assert (wlo, whi) == (0.0, 1.0) and coef == pytest.approx(0.5)


_MASS_WINDOWS = (
    (-3.0, 0.0), (0.0, 1.0 / 3.0), (0.2, 0.7), (0.0, 1.0), (-0.5, -0.25),
    (0.125, 0.25), (0.3, 2.5), (-1.0, 0.5), (0.6, 0.95), (-0.9, -0.55),
)


@pytest.mark.parametrize(
    "name, masses",
    [
        ("ex215", [0.0, 0.49999999997464784, 0.34999999997671694, 1.0, 0.0,
                   0.08333333333333333, 0.6000000000058208, 0.5, 0.375, 0.0]),
        ("ex216", [math.inf, math.inf, 1.5, math.inf, 1.0, 1.0, 0.75, math.inf, 0.0, 0.0]),
        ("ex217", [2.7777777777777772, 0.611111111111111, 1.1, 2.7777777777777777, 1.0,
                   0.3333333333333333, 2.416666666666667, 4.055555555555555,
                   0.3821174074422813, 0.16495854438713528]),
        ("ex218", [1.0, 1.9609815576893788, 1.0393232738911755, 3.921963115378767, 0,
                   0.16018899557994215, 2.353147386069199, 1.9609815576893788,
                   0.8596250571559197, 0]),
        ("darning-sojourn", [math.inf, 0.49999999997464784, 0.34999999997671694, 1.0, 0.0,
                             0.08333333333333333, 0.6000000000058208, 1.5, 0.375, 0.0]),
        ("stacked-window", [1.0, 1.5, 0.16646229517470892, 3.0, 0.0, 0.33292459034941785,
                            1.5, 1.5, 0.4547214282074069, 0.0]),
    ],
)
def test_trace_measure_masses_pinned(name, masses):
    # recorded values: the staircase masses under every trace-measure shape
    # (whole interval, window series, atoms only) stay bit for bit
    cfg = STACKED_WINDOW if name == "stacked-window" else preset(name)
    mu = build_trace_measure(cfg)
    assert [mu.mass(a, b) for a, b in _MASS_WINDOWS] == masses


def _window_sum(mu, u, v):
    # the trace measure of [u, v] with each window's W-mass taken as the
    # difference of two cumulative masses, rounded once
    u, v = sorted((u, v))
    total = sum((m for loc, m, _ in mu.atoms if u <= loc <= v), 0.0)
    for part in mu.w_parts:
        scale = mu.config.interval(part.interval_index).scale
        if scale.lo < v and u < scale.hi:
            part_total = 0.0
            for coef, wlo, whi in part.windows:
                a, b = max(u, wlo), min(v, whi)
                if b > a:
                    part_total += coef * float(scale.cumulative_mass(b) - scale.cumulative_mass(a))
            total += part_total
    return total


@st.composite
def _measure_points(draw):
    """The trace measure of a one-interval configuration, with stacked or
    included ends and blocks, and two points: window ends, block ends, stack
    shell ends, interval ends, or floats anywhere around the interval."""
    scale = draw(random_scales())
    mu = build_trace_measure(ExtensionConfig((IntervalSpec(scale),)))
    marks = [scale.lo, scale.hi]
    marks += [x for part in mu.w_parts for _, wlo, whi in part.windows for x in (wlo, whi)]
    marks += [float(x) for b in scale.blocks for x in (b.lo, b.hi)]
    marks += [float(x) for s in scale.stacks for k in range(8)
              for x in (s.shell(k).lo, s.shell(k).hi)]
    lo = scale.lo if math.isfinite(scale.lo) else scale.e - 4.0
    hi = scale.hi if math.isfinite(scale.hi) else scale.e + 4.0
    point = st.one_of(st.sampled_from(marks), st.floats(lo - 1.0, hi + 1.0))
    return mu, draw(point), draw(point)


@settings(max_examples=200, deadline=None)
@given(_measure_points())
def test_trace_measure_mass_matches_the_window_sum(case):
    mu, u, v = case
    assert mu.mass(u, v) == _window_sum(mu, u, v)


def test_trace_measure_evaluates_only_the_parts_a_cell_meets(monkeypatch):
    # every cell once evaluated all the windows of every part, ~47 a part
    cfg = preset("ex217", 4)
    mu = build_trace_measure(cfg)
    seen = []
    part_mass = _WPart.mass
    monkeypatch.setattr(
        _WPart, "mass", lambda part, *a: seen.append(part.interval_index) or part_mass(part, *a)
    )
    for lo, hi in trace_structure(cfg, 4).cells:
        seen.clear()
        mu.mass(lo, hi)
        met = {i for i, iv in enumerate(cfg.intervals) if iv.lo < hi and lo < iv.hi}
        assert set(seen) <= met, (lo, hi)


# (site count, sha256 of the float64 bytes) of sim._site_weights on the
# trace sites, recorded when every nested window was evaluated separately
SITE_WEIGHT_PINS = {
    "ex217 3": (170, "267ee4c472ef222d4fe33f7b61d0e1e613fe28f0cf48fdd45c2c22c63e76fb24"),
    "ex217 4": (466, "430ca549bf6d416994f0c7a58389bb742acd1702fd2530689d249a5535ca8907"),
    "ex217 5": (1202, "af3cc34eee3b08a7c89339354aa606f27725d326a2ac49ad6c10904c6cb464c1"),
    "stacked-window 6": (492, "0c224311f6b3f5fdaf3b2995e4a8e07d098cb8af2c73fc1c17a5c2764594ebc9"),
}


@pytest.mark.parametrize("key", sorted(SITE_WEIGHT_PINS))
def test_site_weights_pinned(key):
    name, depth = key.split()
    cfg = STACKED_WINDOW if name == "stacked-window" else preset(name, int(depth))
    sites = np.asarray(trace_structure(cfg, int(depth)).sites())
    weights = _site_weights(build_trace_measure(cfg), sites)
    count, pin = SITE_WEIGHT_PINS[key]
    assert sites.size == count
    assert hashlib.sha256(weights.tobytes()).hexdigest() == pin


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_nan_lies_in_no_interval(name):
    # contains(nan) was True, so locate(nan) gave interval 0
    cfg = preset(name, depth=3)
    assert not any(iv.contains(math.nan) for iv in cfg.intervals)
    assert cfg.locate(math.nan) is None


def test_locate_and_interval_lookup():
    cfg = preset("ex217", depth=3)
    idx = cfg.locate(-0.6)
    assert idx is not None
    iv = cfg.interval(idx)
    assert iv.lo < -0.6 < iv.hi
    assert cfg.locate(0.0) is None


def _first_match(config, x):
    # the former ExtensionConfig.locate: ask every interval, from the left
    for idx, iv in enumerate(config.intervals):
        if iv.contains(x):
            return idx
    return None


def _classify_by_scan(config, x):
    # the former classify_point: ask every interval, from the left
    for iv in config.intervals:
        if x == iv.lo and iv.include_lo:
            return PointClass.RIGHT_SHUNT
        if x == iv.hi and iv.include_hi:
            return PointClass.LEFT_SHUNT
        if iv.lo < x < iv.hi:
            return PointClass.REGULAR
    return PointClass.TRAP


@settings(max_examples=300, deadline=None)
@given(random_configs(), st.lists(st.floats(-3.0, 3.0), max_size=10))
def test_classify_point_matches_the_scan(config, xs):
    # overlapping, nested and end-sharing intervals included
    mids = [a + (b - a) / 2 for a, b in zip(CONFIG_ENDS[1:-2], CONFIG_ENDS[2:-1])]
    for x in [*CONFIG_ENDS[1:-1], *mids, *xs]:
        assert classify_point(config, x) is _classify_by_scan(config, x), x


@settings(max_examples=400, deadline=None)
@given(random_configs(), st.lists(st.floats(-3.0, 3.0), max_size=10))
def test_locate_matches_the_first_match_scan(config, xs):
    # every grid end, each midpoint between grid ends, and random floats
    mids = [a + (b - a) / 2 for a, b in zip(CONFIG_ENDS[1:-2], CONFIG_ENDS[2:-1])]
    for x in [*CONFIG_ENDS, *mids, *xs]:
        assert config.locate(x) == _first_match(config, x), x
