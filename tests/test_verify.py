"""The verify battery's own builders against their former, plainer versions."""

from bmext import verify
from bmext.config import preset
from bmext.forms import IntervalPart, PiecewiseFn, energy

BUMP_SETS = (
    (preset("ex215"), verify._BUMPS_EX215),
    (preset("ex218", depth=8), verify._BUMPS_EX218),
)


def list_bump_fn(c, s, a, config):
    """The bump interpolant as it was built before the array builder: one
    Python call of the bump per cut, lists of cuts, values and slopes."""

    def f(x):
        u = (x - c) / s
        return a * (1.0 - u * u) ** 2 if abs(u) < 1.0 else 0.0

    n = verify._BUMP_CELLS
    parts = []
    for iv in config.intervals:
        if not (iv.lo < c - s and c + s < iv.hi):
            parts.append(IntervalPart(0.0, ((iv.lo, iv.hi, 0.0, 0.0),)))
            continue
        cuts = [c - s + 2 * s * i / n for i in range(n + 1)]
        vals = [f(x) for x in cuts]
        pieces = []
        if iv.lo < cuts[0]:
            pieces.append((iv.lo, cuts[0], 0.0, 0.0))
        pieces += [
            (cuts[i], cuts[i + 1], (vals[i + 1] - vals[i]) / (cuts[i + 1] - cuts[i]), 0.0)
            for i in range(n)
        ]
        if cuts[-1] < iv.hi:
            pieces.append((cuts[-1], iv.hi, 0.0, 0.0))
        parts.append(IntervalPart(f(iv.scale.e), tuple(pieces)))
    return PiecewiseFn(config, tuple(parts))


def test_bump_builder_matches_the_list_builder_and_keeps_the_worst_gap():
    # every bump of both presets, the narrowest (0.055, 0.012, 1.1) included;
    # the check's worst relative gap is the same float to the last bit
    assert (0.055, 0.012, 1.1) in verify._BUMPS_EX218
    worst = 0.0
    for cfg, bumps in BUMP_SETS:
        for c, s, a in bumps:
            got = verify._bump_fn(c, s, a, cfg)
            assert got.parts == list_bump_fn(c, s, a, cfg).parts, (cfg.name, c, s, a)
            target = 0.5 * a * a / s * verify._BUMP_GRAD_SQ
            worst = max(worst, abs(energy(cfg, got) - target) / target)
    assert worst == 2.1875001809945616e-09
