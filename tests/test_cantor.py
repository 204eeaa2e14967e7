import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmext.cantor import (
    _CYCLE_DENOM_LIMIT,
    CantorBlock,
    _cantor_ratios,
    cantor_eval,
    cantor_fraction,
)
from bmext.scale import make_scale


def oracle_cantor(x: Fraction, depth: int = 60) -> Fraction:
    """Independent Cantor-function oracle by recursive subdivision.

    Uses only the self-similarity C(x) = C(3x)/2 on [0,1/3], C = 1/2 on
    the middle third, C(x) = 1/2 + C(3x-2)/2 on [2/3,1].  Error after
    ``depth`` levels is at most 2**-depth.
    """
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(depth):
        if x <= Fraction(1, 3):
            x *= 3
            hi = (lo + hi) / 2
        elif x < Fraction(2, 3):
            return (lo + hi) / 2
        else:
            x = 3 * x - 2
            lo = (lo + hi) / 2
        if x == 0:
            return lo
        if x == 1:
            return hi
    return (lo + hi) / 2


FROZEN_VALUES = [
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(1, 3)),  # 0.020202...: cycling expansion
    (Fraction(3, 4), Fraction(2, 3)),
    (Fraction(1, 9), Fraction(1, 4)),
    (Fraction(2, 9), Fraction(1, 4)),
    (Fraction(1, 27), Fraction(1, 8)),
    (Fraction(26, 27), Fraction(7, 8)),
    (Fraction(1, 10), Fraction(1, 5)),  # another cycling case
]


@pytest.mark.parametrize("x,expected", FROZEN_VALUES)
def test_frozen_values_exact(x, expected):
    assert cantor_fraction(x) == expected


def test_float_input_exact():
    # floats are dyadic rationals and are converted exactly
    assert cantor_eval(0.25) == 1.0 / 3.0
    assert cantor_eval(0.5) == 0.5
    assert cantor_eval(0.0) == 0.0
    assert cantor_eval(1.0) == 1.0


def test_against_oracle_on_rationals():
    # deterministic sweep of small-denominator rationals
    xs = [Fraction(p, q) for q in range(2, 60) for p in range(q + 1)]
    for x in xs:
        got = cantor_fraction(x)
        want = oracle_cantor(x, depth=80)
        assert abs(got - want) <= Fraction(1, 2**70), x


@st.composite
def _rationals(draw):
    # denominators on both sides of the cycle-detection limit
    q = draw(
        st.one_of(
            st.integers(1, _CYCLE_DENOM_LIMIT),
            st.integers(_CYCLE_DENOM_LIMIT + 1, 10**7),
        )
    )
    return Fraction(draw(st.integers(0, q)), q)


@settings(max_examples=300, deadline=None)
@given(_rationals())
def test_random_rationals_match_oracle(x):
    assert abs(cantor_fraction(x) - oracle_cantor(x, depth=80)) <= Fraction(1, 2**70)


def test_monotone_and_bounds():
    xs = sorted(Fraction(p, 97) for p in range(98))
    vals = [cantor_fraction(x) for x in xs]
    assert vals[0] == 0 and vals[-1] == 1
    for a, b in zip(vals, vals[1:]):
        assert a <= b


def block_mass(block, x) -> Fraction:
    """Mass of [lo, x] under a block: weight * C((x - lo) / width), clipped outside."""
    fx = Fraction(x)
    if fx <= block.lo:
        return Fraction(0)
    if fx >= block.hi:
        return block.weight
    return block.weight * cantor_fraction((fx - block.lo) / block.width)


def test_order_kept_next_to_a_cycling_point():
    # 9/28 = 0.(022200) in ternary cycles, so its value is exact; a float
    # 1e-300 above it shares about its first 630 digits, and a cut after 256
    # of them put W(1e-300) below W(0) on this block (seen as a negative pairwise
    # singular mass in test_singular_between_matches_the_pairwise_sum)
    block = CantorBlock(Fraction(-27, 32), Fraction(57, 32), Fraction(1, 4))
    assert (0 - block.lo) / block.width == Fraction(9, 28)
    assert block_mass(block, 1e-300) >= block_mass(block, 0.0)
    assert block_mass(block, -1e-300) <= block_mass(block, 0.0)


UNIT = CantorBlock(0, 1)


def thirds_layout(depth):
    """Unit-block gaps and remnants by splitting every remnant into thirds.

    Gaps come as ``(level, lo, hi, value)``, level by level and left to
    right, and the level-``depth`` remnants as ``(lo, hi, value at lo)``.  A
    gap's value is the mean of the Cantor values at the ends of the remnant
    it splits, which is all the self-similarity the oracle uses.
    """
    remnants = [(Fraction(0), Fraction(1), Fraction(0), Fraction(1))]
    gaps = []
    for level in range(1, depth + 1):
        split = []
        for lo, hi, at_lo, at_hi in remnants:
            third = (hi - lo) / 3
            mid = (at_lo + at_hi) / 2
            gaps.append((level, lo + third, hi - third, mid))
            split += [(lo, lo + third, at_lo, mid), (hi - third, hi, mid, at_hi)]
        remnants = split
    return gaps, [(lo, hi, at_lo) for lo, hi, at_lo, _ in remnants]


def test_plateau_values_at_depth():
    # gaps at levels <= d carry exactly the dyadic values j/2^d
    d = 6
    gaps = sorted(UNIT.gaps(d), key=lambda g: g[1])
    values = [g[3] for g in gaps]
    assert values == [Fraction(j, 2**d) for j in range(1, 2**d)]
    # the function is constant at that value across each gap
    for level, lo, hi, val in gaps:
        assert cantor_fraction(lo) == val
        assert cantor_fraction(hi) == val
        assert cantor_fraction((lo + hi) / 2) == val


def test_gaps_come_level_by_level_left_to_right():
    gaps = UNIT.gaps(6)
    assert len(gaps) == 2**6 - 1
    for (l1, lo1, _, _), (l2, lo2, _, _) in zip(gaps, gaps[1:]):
        assert l1 <= l2
        if l1 == l2:
            assert lo1 < lo2


def test_gap_and_remnant_lengths_telescope():
    for d in (1, 3, 6):
        gap_total = sum(hi - lo for _, lo, hi, _ in UNIT.gaps(d))
        rem_total = sum(hi - lo for lo, hi, _ in UNIT.remnants(d))
        assert gap_total == 1 - Fraction(2, 3) ** d
        assert rem_total == Fraction(2, 3) ** d
        assert gap_total + rem_total == 1


def test_remnant_left_values():
    for lo, hi, val in UNIT.remnants(4):
        assert cantor_fraction(lo) == val
        assert cantor_fraction(hi) == val + Fraction(1, 2**4)


def cantor_integral(x: float) -> float:
    """∫_0^x C for x in [0, 1]: the ratio that _cantor_ratios reads, rounded once."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 0.5
    _, _, sn, sd = _cantor_ratios(*Fraction(x).as_integer_ratio())
    return sn / sd


def test_cantor_integral():
    # closed-form checkpoints from the self-similar recursion
    assert cantor_integral(1.0) == 0.5
    assert abs(cantor_integral(1.0 / 3.0) - 1.0 / 12.0) < 1e-14
    assert abs(cantor_integral(2.0 / 3.0) - 0.25) < 1e-14
    assert abs(cantor_integral(0.5) - 1.0 / 6.0) < 1e-14
    # Riemann-sum cross-check
    n = 20000
    riemann = sum(cantor_eval((i + 0.5) / n) for i in range(n)) / n
    assert abs(cantor_integral(1.0) - riemann) < 1e-4


def oracle_integral(x: Fraction, depth: int = 80) -> Fraction:
    """∫_0^x C by the self-similar splitting S(x) = S(3x)/6 on [0, 1/3],
    1/12 + (x - 1/3)/2 on the middle third and 1/4 + (x - 2/3)/2 + S(3x - 2)/6
    on [2/3, 1]; off by at most 6**-depth after ``depth`` levels."""
    acc, scale = Fraction(0), Fraction(1)
    for _ in range(depth):
        if x == 0 or x == 1:
            return acc + scale * x / 2
        if x <= Fraction(1, 3):
            x *= 3
        elif x < Fraction(2, 3):
            return acc + scale * (Fraction(1, 12) + (x - Fraction(1, 3)) / 2)
        else:
            acc += scale * (Fraction(1, 4) + (x - Fraction(2, 3)) / 2)
            x = 3 * x - 2
        scale /= 6
    return acc


def test_integral_ratio_matches_the_oracle_on_rationals():
    # every p/q below 60, terminating, hitting a 1 or cycling (1/4, 1/10, ...),
    # and dyadic floats with long expansions
    xs = [Fraction(p, q) for q in range(2, 60) for p in range(q)]
    xs += [Fraction(x) for pair in UNIT.float_remnants(5) for x in pair if x < 1]
    for x in xs:
        cn, cd, sn, sd = _cantor_ratios(x.numerator, x.denominator)
        assert Fraction(cn, cd) == cantor_fraction(x), x
        assert abs(Fraction(sn, sd) - oracle_integral(x)) <= Fraction(1, 6**70), x


def test_block_mass_and_bounds():
    # a block's mass, read as the W-mass of a whole-line scale holding only it
    blk = make_scale(-math.inf, math.inf, blocks=[CantorBlock(0, 1, 1)])
    assert blk.singular_between(0, 1) == 1.0
    assert blk.singular_between(0, Fraction(1, 3)) == 0.5
    assert blk.singular_between(Fraction(1, 3), Fraction(2, 3)) == 0.0
    assert blk.singular_between(-5, 0.25) == 1.0 / 3.0
    # scaled block
    blk2 = make_scale(-math.inf, math.inf, blocks=[CantorBlock(2, 5, weight=Fraction(7, 2))])
    assert blk2.singular_between(2, 5) == 3.5
    assert blk2.singular_between(1, 3) == 1.75  # first third of the block


def test_block_integral_matches_quadrature():
    # a block's part of the cell integral E(u, v) = ∫_u^v (t - t(u)), read as
    # the cell formula on a whole-line scale holding only it, less (v - u)**2 / 2
    blk = CantorBlock(1, 3, weight=2)
    n = 4000
    u, v = 1.2, 2.9
    riemann = sum(float(block_mass(blk, u + (v - u) * (i + 0.5) / n)) - float(block_mass(blk, u))
                  for i in range(n)) * (v - u) / n
    en, ed, *_ = next(make_scale(-math.inf, math.inf, blocks=[blk]).cell_ratios([u, v]))
    block_part = Fraction(en, ed) - (Fraction(v) - Fraction(u)) ** 2 / 2
    assert abs(block_part - riemann) < 5e-4


def _fractions(lo=-(10**6), hi=10**6):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 10**5))


@settings(max_examples=200, deadline=None)
@given(_fractions(), _fractions(1), _fractions(1), st.integers(0, 8))
def test_block_gaps_and_remnants_match_the_fraction_formula(lo, width, weight, depth):
    # reference: place each gap and remnant of the thirds construction with
    # Fraction products and sums
    blk = CantorBlock(lo, lo + width, weight)
    unit_gaps, unit_remnants = thirds_layout(depth)
    gaps = [
        (level, lo + glo * width, lo + ghi * width, weight * val)
        for level, glo, ghi, val in unit_gaps
    ]
    remnants = [
        (lo + rlo * width, lo + rhi * width, weight * val)
        for rlo, rhi, val in unit_remnants
    ]
    assert blk.gaps(depth) == gaps
    assert blk.remnants(depth) == remnants


@settings(max_examples=200, deadline=None)
@given(_fractions(), _fractions(1), st.floats(-1e3, 1e3), st.floats(1e-6, 1e3),
       st.integers(0, 10))
def test_float_remnants_round_the_exact_remnants(lo, width, flo, fwidth, depth):
    # rational blocks and float-ended ones, whose ends have long binary expansions
    for blk in (CantorBlock(lo, lo + width), CantorBlock(flo, flo + fwidth)):
        exact = [(float(a), float(b)) for a, b, _ in blk.remnants(depth)]
        assert blk.float_remnants(depth) == exact


def test_block_validation():
    with pytest.raises(ValueError):
        CantorBlock(1, 1, 1)
    with pytest.raises(ValueError):
        CantorBlock(0, 1, 0)
    with pytest.raises(ValueError):
        cantor_fraction(Fraction(3, 2))
