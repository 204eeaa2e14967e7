"""Hypothesis strategies shared by the test modules."""

import math
from fractions import Fraction

from hypothesis import strategies as st

from bmext.config import ExtensionConfig, IntervalSpec
from bmext.scale import anchor_point, make_scale


@st.composite
def random_scales(draw):
    """Scales with random shape, stacked or included ends, and block layout."""
    lo = draw(st.sampled_from([-math.inf, -2.0, -1.0, 0.0]))
    hi = draw(st.sampled_from([math.inf, 1.0, 2.0, 3.0]))
    include_lo = math.isfinite(lo) and draw(st.booleans())
    include_hi = math.isfinite(hi) and draw(st.booleans())
    e = Fraction(anchor_point(lo, hi))
    # blocks must keep clear of the stack zones, which reach delta <= 1 inwards
    a = e - 3 if not math.isfinite(lo) else Fraction(lo)
    b = e + 3 if not math.isfinite(hi) else Fraction(hi)
    if math.isfinite(lo) and not include_lo:
        a += min(Fraction(1), (e - a) / 2)
    if math.isfinite(hi) and not include_hi:
        b -= min(Fraction(1), (b - e) / 2)
    cuts = sorted(draw(st.sets(st.integers(0, 64), max_size=6)))
    pairs = list(zip(cuts[::2], cuts[1::2]))
    weights = draw(st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=6),
                            min_size=len(pairs), max_size=len(pairs)))
    blocks = [
        (a + (b - a) * i / 64, a + (b - a) * j / 64, w) for (i, j), w in zip(pairs, weights)
    ]
    return make_scale(lo, hi, include_lo, include_hi, blocks)


# interval ends on a coarse grid, so that drawn intervals share and overlap ends
CONFIG_ENDS = (-math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf)


@st.composite
def random_configs(draw):
    """Configurations of 0-8 plain intervals with shared, nested and overlapping ends.

    Nothing is checked: the result is often invalid, as a scenario file can be.
    """
    intervals = []
    for _ in range(draw(st.integers(0, 8))):
        lo, hi = sorted(draw(st.sets(st.sampled_from(CONFIG_ENDS), min_size=2, max_size=2)))
        include_lo = math.isfinite(lo) and draw(st.booleans())
        include_hi = math.isfinite(hi) and draw(st.booleans())
        intervals.append(IntervalSpec(make_scale(lo, hi, include_lo, include_hi)))
    return ExtensionConfig(tuple(intervals))
