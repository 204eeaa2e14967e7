"""Configuration layer: interval families, validation, point classes, trace measure."""

import math
from fractions import Fraction

import pytest

from bmext.config import (
    ComplementSpec,
    DustSpec,
    ExtensionConfig,
    IntervalSpec,
    PointClass,
    PRESET_NAMES,
    build_trace_measure,
    classify_point,
    one_sided_labels,
    preset,
    validate,
)
from bmext.scale import make_scale


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
    assert one_sided_labels(cfg, 0.0) == (True, True)
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


def test_darning_sojourn_shape():
    cfg = preset("darning-sojourn")
    assert classify_point(cfg, -1.0) is PointClass.RIGHT_SHUNT
    assert one_sided_labels(cfg, -1.0) == (False, True)
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


def test_locate_and_interval_lookup():
    cfg = preset("ex217", depth=3)
    idx = cfg.locate(-0.6)
    assert idx is not None
    iv = cfg.interval(idx)
    assert iv.lo < -0.6 < iv.hi
    assert cfg.locate(0.0) is None
