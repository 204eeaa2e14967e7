"""Grid random walks approximating the extension diffusions.

The embedded chain jumps between neighbouring grid sites with the classical
scale-ratio probabilities, so the scale function is harmonic for the chain
and hitting statistics reproduce the diffusion's exactly; the grid only
limits how much of the state space a walk can see.  Mean holding times
integrate the two-sided exit kernel against the speed measure (Lebesgue on
every interval), normalised so a Brownian cell of half-width h is left in
mean time h**2.  Singular scale mass therefore slows crossings without ever
adding residence time of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cantor import check_work, level_count
from .config import ExtensionConfig, TraceMeasure
from .darning import DarnedSpec
from .scale import ScaleFunction

__all__ = [
    "GridChain",
    "McEstimate",
    "OccupationStats",
    "PathSample",
    "VisitTable",
    "build_chain",
    "hitting_probability",
    "nearest_site",
    "simulate_darned",
    "simulate_path",
    "simulate_trace_chain",
    "snap_grid",
    "stride_table_entries",
]

_BATCH = 1 << 16
_CHUNK = 1 << 15
# steps a hitting walker takes on one uniform: on the band law of a window of
# more than 2 * _STRIDE + 1 sites, and on the dense law of a smaller one
_STRIDE = 64
_DENSE_STRIDE = 1 << 10


def _site_array(sites) -> np.ndarray:
    arr = np.array(sites, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sites must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sites must be finite")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("sites must be strictly increasing")
    return arr


def nearest_site(sites, x) -> tuple[np.ndarray, np.ndarray]:
    """Index of each point's nearest site, ties to the left, and whether it is the point.

    ``sites`` must increase strictly.  A site is the point when
    ``math.isclose`` says so at rel_tol = abs_tol = 1e-12, a test symmetric
    in its two arguments (``np.isclose``'s is not).  A scalar x gives 0-d
    arrays.
    """
    sites = np.asarray(sites, dtype=float)
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(sites, x)
    left = np.maximum(j - 1, 0)
    right = np.minimum(j, sites.size - 1)
    i = np.where(sites[right] - x < x - sites[left], right, left)
    on = [
        math.isclose(s, y, rel_tol=1e-12, abs_tol=1e-12)
        for s, y in zip(sites[i].ravel().tolist(), x.ravel().tolist())
    ]
    return i, np.array(on, dtype=bool).reshape(x.shape)


@dataclass(frozen=True)
class GridChain:
    """Embedded jump chain of one diffusion on a finite site grid.

    ``p_right`` is the probability of stepping to the next site up; it is
    forced to 1 (resp. 0) at reflecting ends and left meaningless at
    absorbing sites.  ``boundary`` records what the two window ends do.
    """

    sites: np.ndarray
    p_right: np.ndarray
    mean_holding: np.ndarray
    boundary: tuple[str, str]
    absorbing: np.ndarray
    interval_index: int | None = None

    def __post_init__(self):
        for arr in (self.sites, self.p_right, self.mean_holding, self.absorbing):
            arr.setflags(write=False)

    def site_index(self, x: float) -> int:
        i, on = nearest_site(self.sites, x)
        if not on:
            raise ValueError(f"{x} is not a grid site")
        return int(i)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate with its sampling error."""

    estimate: float
    std_error: float
    samples: int
    seed: int
    excluded: int = 0

    def within(self, target: float) -> bool:
        """True when the estimate lies within three standard errors of target."""
        return abs(self.estimate - target) <= 3.0 * self.std_error + 1e-12


@dataclass(frozen=True)
class PathSample:
    """One trajectory: visited sites with cumulative arrival times."""

    sites: np.ndarray
    times: np.ndarray
    exhausted: bool
    seed: int

    @property
    def steps(self) -> int:
        return self.sites.size - 1


@dataclass(frozen=True)
class VisitTable:
    """Mass-weighted visit frequencies of a walk, tabulated on trace sites."""

    sites: np.ndarray
    visits: np.ndarray
    weights: np.ndarray
    frequency: np.ndarray
    steps: int
    seed: int
    mode: str = "extension"

    def support(self) -> np.ndarray:
        return self.sites[self.visits > 0]


@dataclass(frozen=True)
class OccupationStats:
    """Holding-weighted occupation fractions of a darned-chain walk."""

    sites: np.ndarray
    site_mass: np.ndarray
    visits: np.ndarray
    occupation: np.ndarray
    steps: int
    seed: int


# -- chain construction ------------------------------------------------------


def snap_grid(
    config: ExtensionConfig,
    n: int,
    lo: float,
    hi: float,
    cells: int,
    depth: int = 8,
) -> np.ndarray:
    """Uniform grid on [lo, hi] with interior points pulled onto gap endpoints.

    Snapping keeps scale increments between neighbours exactly computable:
    a site on a gap endpoint splits the singular mass cleanly between its
    two cells.  Points move at most half a spacing; ties go left.
    """
    if not (lo < hi):
        raise ValueError("need lo < hi")
    if cells < 1:
        raise ValueError("need at least one cell")
    scale = config.interval(n).scale
    check_work(
        f"snap_grid on interval {n} at depth {depth}",
        scale.block_count(depth) * (level_count(depth) - 1),
    )
    targets: set[float] = set()
    for sup in scale.w_supports(depth):
        blk = sup.block
        if blk is None or float(blk.hi) < lo or float(blk.lo) > hi:
            continue
        # the block's ends and its gaps of levels <= depth: every remnant end
        targets.update(x for pair in blk.float_remnants(depth) for x in pair)
    base = np.linspace(lo, hi, cells + 1)[1:-1]
    if targets:
        ordered = np.array(sorted(targets))
        near = ordered[nearest_site(ordered, base)[0]]
        base = np.where(np.abs(near - base) <= (hi - lo) / (2 * cells), near, base)
    out = [lo]
    for best in base.tolist():
        if out[-1] < best < hi:
            out.append(best)
    out.append(hi)
    return np.array(out)


def _p_right(dl: float, dr: float) -> float:
    if math.isinf(dl) and math.isinf(dr):
        raise ValueError("site is walled in by infinite scale on both sides")
    if math.isinf(dr):
        return 0.0
    if math.isinf(dl):
        return 1.0
    return dl / (dl + dr)


def _mean_exit(scale: ScaleFunction, l, x, r, tl, tx, tr) -> float:
    # 2 * integral of the two-sided exit kernel against Lebesgue speed mass;
    # an infinite neighbour scale acts as an unreachable wall
    if math.isinf(tl) and math.isinf(tr):
        raise ValueError("site is walled in by infinite scale on both sides")
    if math.isinf(tr):
        a = scale.integral_t(l, x) - tl * (x - l)
        return 2.0 * (a + (tx - tl) * (r - x))
    if math.isinf(tl):
        b = tr * (r - x) - scale.integral_t(x, r)
        return 2.0 * ((tr - tx) * (x - l) + b)
    a = scale.integral_t(l, x) - tl * (x - l)
    b = tr * (r - x) - scale.integral_t(x, r)
    return 2.0 * ((tr - tx) * a + (tx - tl) * b) / (tr - tl)


def build_chain(config: ExtensionConfig, n: int, sites) -> GridChain:
    """Jump chain of interval n's diffusion on the given sites.

    Sites must lie in the interval's closure; the two window ends reflect
    when they sit on an included endpoint and absorb otherwise.  A site on
    an excluded endpoint that no interval contains is a trap: legal and
    absorbing, and the infinite scale walls it off from the rest of the grid.
    """
    iv = config.interval(n)
    scale = iv.scale
    arr = _site_array(sites)
    m = arr.size
    absorbing = np.zeros(m, dtype=bool)
    for i, s in enumerate(arr):
        if iv.contains(s):
            continue
        other = config.locate(s)
        if other is not None:
            raise ValueError(
                f"grid straddles intervals {n} and {other}: site {s} belongs to both windows"
            )
        if s in (iv.lo, iv.hi):
            absorbing[i] = True
            continue
        raise ValueError(f"site {s} lies outside interval {iv.describe()}")

    if m == 1:
        # a one-site window cannot move; only useful for trap sites
        return GridChain(
            arr, np.zeros(1), np.zeros(1), ("absorb", "absorb"), np.ones(1, dtype=bool), n
        )

    tvals = np.array([scale.eval(s) for s in arr])
    if not np.all(np.diff(tvals) > 0):
        raise ValueError("grid is too fine: scale values collide in float resolution")

    def end_behaviour(i: int) -> str:
        if absorbing[i]:
            return "absorb"
        s = arr[i]
        if (s == iv.lo and iv.include_lo) or (s == iv.hi and iv.include_hi):
            return "reflect"
        return "absorb"

    b_lo = end_behaviour(0)
    b_hi = end_behaviour(m - 1)
    if b_lo == "absorb":
        absorbing[0] = True
    if b_hi == "absorb":
        absorbing[-1] = True

    p = np.zeros(m)
    hold = np.zeros(m)
    for i in range(1, m - 1):
        dl = tvals[i] - tvals[i - 1]
        dr = tvals[i + 1] - tvals[i]
        p[i] = _p_right(dl, dr)
        hold[i] = _mean_exit(
            scale, arr[i - 1], arr[i], arr[i + 1], tvals[i - 1], tvals[i], tvals[i + 1]
        )
    if b_lo == "reflect":
        p[0] = 1.0
        hold[0] = 2.0 * ((arr[1] - arr[0]) * tvals[1] - scale.integral_t(arr[0], arr[1]))
    if b_hi == "reflect":
        p[-1] = 0.0
        hold[-1] = 2.0 * (scale.integral_t(arr[-2], arr[-1]) - (arr[-1] - arr[-2]) * tvals[-2])
    bad = ~absorbing & ~(np.isfinite(hold) & (hold > 0.0))
    if bad.any():
        raise ValueError(f"holding time degenerate at sites {arr[bad]}")
    return GridChain(arr, p, hold, (b_lo, b_hi), absorbing, interval_index=n)


# -- single trajectories -----------------------------------------------------


def _walk(chain: GridChain, i0: int, steps: int, rng) -> np.ndarray:
    """Site indices of a walk from i0: at most ``steps`` steps, stopping on absorption.

    Uniforms are drawn in chunks; the stream is the same as one draw per step.
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


def simulate_path(
    chain: GridChain,
    x0: float,
    budget: int = 1_000_000,
    seed: int = 0,
) -> PathSample:
    """Walk the chain from x0 until absorption or the step budget runs out.

    Time advances by the mean holding of each visited site.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    i = chain.site_index(x0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = _walk(chain, i, budget, rng)
    times = np.concatenate(([0.0], np.cumsum(chain.mean_holding[idx[:-1]])))
    exhausted = not chain.absorbing[idx[-1]]
    return PathSample(chain.sites[idx], times, exhausted, seed)


# -- hitting statistics ------------------------------------------------------


def _dense(sites: int) -> bool:
    # a window no wider than one band row walks on its dense law
    return sites <= 2 * _STRIDE + 1


def stride_table_entries(sites: int) -> int:
    """Entries of the stride table ``hitting_probability`` builds over ``sites`` sites.

    A window of more than ``2 * _STRIDE + 1`` sites gives each site a row
    over the ``2 * _STRIDE + 1`` sites one stride can reach.  A smaller one
    lays each site's dense law out over the ``2 * sites - 1`` sites within
    ``sites - 1`` of it.  A budget's tail table is no larger.
    """
    return sites * (2 * sites - 1 if _dense(sites) else 2 * _STRIDE + 1)


def _stride_cdf(p: np.ndarray, stop: np.ndarray, k: int) -> np.ndarray:
    """Cumulated k-step law of the chain stopped on ``stop``, one row per site.

    Column j of row i is the probability of standing at or below site
    i - k + j after k steps from site i.  A walker moves at most k sites, so
    these 2k + 1 columns hold the whole law.  The law is built from the
    identity by k one-step updates of the whole band, and its cumulated
    sums are capped at 1.  The band's move weights are windows onto per-site
    vectors padded by k stopped sites at each end.
    """
    m = p.size
    stopped = np.concatenate((np.ones(k, dtype=bool), stop, np.ones(k, dtype=bool)))
    q = np.concatenate((np.zeros(k), p, np.zeros(k)))
    up = sliding_window_view(np.where(stopped, 0.0, q), 2 * k + 1)
    down = sliding_window_view(np.where(stopped, 0.0, 1.0 - q), 2 * k + 1)
    hold = sliding_window_view(np.where(stopped, 1.0, 0.0), 2 * k + 1)
    law = np.zeros((m, 2 * k + 1))
    law[:, k] = 1.0
    nxt = np.empty_like(law)
    flow = np.empty((m, 2 * k))
    for _ in range(k):
        np.multiply(law, hold, out=nxt)
        nxt[:, 1:] += np.multiply(law[:, :-1], up[:, :-1], out=flow)
        nxt[:, :-1] += np.multiply(law[:, 1:], down[:, 1:], out=flow)
        law, nxt = nxt, law
    cdf = np.cumsum(law, axis=1, out=nxt)
    return np.minimum(cdf, 1.0, out=cdf)


def _dense_cdf(p: np.ndarray, stop: np.ndarray, k: int) -> np.ndarray:
    """Cumulated k-step law of the chain stopped on ``stop``, as a band of half-width m - 1.

    Both window ends must be stopped.  The one-step matrix is raised to the
    k-th power by binary powering: k = 2**j takes j squarings.  Column j of
    row i is the probability of standing at or below site i - (m - 1) + j
    after k steps from site i, the layout of :func:`_stride_cdf` with k
    replaced by m - 1; its cumulated sums are capped at 1.
    """
    m = p.size
    live = np.flatnonzero(~stop)
    step = np.diag(stop.astype(float))
    step[live, live + 1] = p[live]
    step[live, live - 1] = 1.0 - p[live]
    law = None
    while k:
        if k & 1:
            law = step if law is None else law @ step
        k >>= 1
        if k:
            step = step @ step
    band = np.zeros((m, 2 * m - 1))
    rows = np.arange(m)
    np.put_along_axis(band, rows + (m - 1 - rows)[:, None], law, axis=1)
    cdf = np.cumsum(band, axis=1)
    return np.minimum(cdf, 1.0, out=cdf)


def _stride_lookup(cdf: np.ndarray):
    """Search table of a banded cumulated law: flat rows and last landings.

    Row i is offset by i, so that one ``searchsorted`` of i + u over all rows
    finds where a walker at site i lands with uniform u.  A row's last
    landing is the flat index of its last column of positive probability,
    which is the first column that holds the row's total.
    """
    m, width = cdf.shape
    last = np.arange(m) * width + np.argmax(cdf == cdf[:, -1:], axis=1)
    return (cdf + np.arange(m)[:, None]).ravel(), last


def _stride_move(lookup, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sites the walkers at ``pos`` land on, one uniform each."""
    flat, last = lookup
    width = flat.size // last.size
    idx = np.searchsorted(flat, pos + u, side="right")
    # pos + u rounds up to pos + 1 when u is within half an ulp of 1, and can
    # exceed the row's rounded total: either way the search runs past the
    # row, and the walker takes the row's last site of positive probability
    np.minimum(idx, last[pos], out=idx)
    # flat index pos * width + j is site pos + j - width // 2
    return idx - pos * (width - 1) - width // 2


def hitting_probability(
    chain: GridChain,
    x0: float,
    l: float,
    r: float,
    n_samples: int,
    seed: int = 0,
    budget: int = 10_000_000,
) -> McEstimate:
    """Estimate P(hit l before r) from x0 by independent chain walks.

    The embedded chain is exactly scale-harmonic, so the estimate converges
    to (t(r) - t(x0)) / (t(r) - t(l)).  Walks still unresolved after
    ``budget`` steps, or frozen on an interior absorbing site, are excluded
    from the estimate and reported in ``excluded``.

    Walkers move up to K steps at a time on the exact law of the chain
    stopped at l, r and every absorbing site, so where a walk ends has the
    law of single steps, up to the rounding of that law (about 1e-14).  A
    window of m <= 2 * ``_STRIDE`` + 1 sites from l to r takes
    K = ``_DENSE_STRIDE`` steps on its dense m x m law, built by repeated
    squaring; a wider one takes K = ``_STRIDE`` steps on the band of the
    2 * ``_STRIDE`` + 1 sites a stride can reach.

    Draw contract (the seeded results depend on it): walkers run in batches
    of ``_BATCH``, each batch on a generator from its own child of
    ``SeedSequence(seed).spawn``.  Each iteration draws one
    ``rng.random(n)`` for the n walkers still live, one uniform per walker
    in walker order, and moves them ``k = min(K, budget - steps)`` steps: a
    walker at site i lands on the first site whose cumulated k-step law
    from i exceeds its uniform.  Only a budget that is not a multiple of K
    needs a second, shorter table, for its last iteration.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    il = chain.site_index(l)
    ir = chain.site_index(r)
    i0 = chain.site_index(x0)
    if il >= ir:
        raise ValueError("need l < r")
    if i0 == il or i0 == ir:
        return McEstimate(1.0 if i0 == il else 0.0, 0.0, n_samples, seed)
    if not (il < i0 < ir):
        raise ValueError("need l <= x0 <= r on grid sites")

    # walkers never pass l or r, so they walk on the sites from l to r,
    # numbered from l
    m = ir - il + 1
    stride, build_cdf = (_DENSE_STRIDE, _dense_cdf) if _dense(m) else (_STRIDE, _stride_cdf)
    check_work(
        f"the {stride}-step table of {m} sites", stride_table_entries(m), "table entries"
    )
    p = chain.p_right[il : ir + 1]
    # outcome of arriving at each site: 0 walks on, 1 hit l, 2 hit r, 3 stuck
    code = np.where(chain.absorbing[il : ir + 1], 3, 0).astype(np.int8)
    code[0] = 1
    code[-1] = 2
    # the k-step lookup for each k walked: the stride, and the budget's tail
    tables = {}
    ss = np.random.SeedSequence(seed)
    n_batches = -(-n_samples // _BATCH)
    tally = np.zeros(4, dtype=np.int64)
    remaining = n_samples
    for child in ss.spawn(n_batches):
        rng = np.random.default_rng(child)
        count = min(_BATCH, remaining)
        remaining -= count
        pos = np.full(count, i0 - il, dtype=np.int64)
        steps = 0
        while pos.size and steps < budget:
            k = min(stride, budget - steps)
            if k not in tables:
                tables[k] = _stride_lookup(build_cdf(p, code != 0, k))
            pos = _stride_move(tables[k], pos, rng.random(pos.size))
            steps += k
            c = code[pos]
            if np.count_nonzero(c):
                keep = c == 0
                tally += np.bincount(c[~keep], minlength=4)
                pos = pos[keep]
        tally[3] += pos.size
    _, succ, fail, excl = tally.tolist()
    settled = succ + fail
    if settled == 0:
        return McEstimate(math.nan, math.nan, 0, seed, excluded=excl)
    phat = succ / settled
    if settled > 1 and 0 < succ < settled:
        se = math.sqrt(phat * (1.0 - phat) * settled / (settled - 1)) / math.sqrt(settled)
    else:
        se = 0.0
    return McEstimate(phat, se, settled, seed, excluded=excl)


# -- trace chains ------------------------------------------------------------


def _brownian_chain(sites: np.ndarray) -> GridChain:
    # global Brownian walk on the window: identity scale, reflecting ends
    m = sites.size
    p = np.zeros(m)
    hold = np.zeros(m)
    dl = sites[1:-1] - sites[:-2]
    p[1:-1] = dl / (sites[2:] - sites[:-2])
    hold[1:-1] = dl * (sites[2:] - sites[1:-1])
    p[0] = 1.0
    p[-1] = 0.0
    if m > 1:
        hold[0] = (sites[1] - sites[0]) ** 2
        hold[-1] = (sites[-1] - sites[-2]) ** 2
    return GridChain(sites, p, hold, ("reflect", "reflect"), np.zeros(m, dtype=bool))


def _site_weights(mu: TraceMeasure | None, sites: np.ndarray) -> np.ndarray:
    # each site weighs the measure of its cell, cut at the midpoints to its neighbours
    if mu is None or sites.size == 1:
        return np.ones(sites.size)
    mids = (sites[1:] + sites[:-1]) / 2.0
    edges = np.concatenate(
        ([sites[0] - (sites[1] - sites[0]) / 2.0], mids, [sites[-1] + (sites[-1] - sites[-2]) / 2.0])
    )
    return np.array([mu.mass(a, b) for a, b in zip(edges, edges[1:])])


def simulate_trace_chain(
    config: ExtensionConfig,
    mu: TraceMeasure | None,
    grid,
    x0: float,
    n_steps: int,
    seed: int = 0,
    mode: str = "extension",
    cells: int = 16,
) -> VisitTable:
    """Visit frequencies on trace sites, weighted by the trace measure.

    ``grid`` lists the trace sites under observation.  In extension mode the
    walk runs on x0's invariant interval and can meet the trace set only at
    that interval's endpoints; in brownian mode the walk moves over the whole
    window as a free Brownian chain and every trace site is fair game.  The
    brownian mode is a qualitative device: it certifies reachability, not a
    quantitative approximation of the time-changed process.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    k_sites = _site_array(grid)
    weights = _site_weights(mu, k_sites)
    unweighable = k_sites[~np.isfinite(weights)]
    if unweighable.size:
        raise ValueError(
            f"trace site {float(unweighable[0])!r} has an infinite trace-measure weight:"
            " its cell reaches an excluded stacked endpoint"
        )
    if not nearest_site(k_sites, x0)[1]:
        raise ValueError("x0 must be one of the trace sites")
    if k_sites.size == 1:
        return VisitTable(
            k_sites, np.ones(1, dtype=np.int64), weights, np.ones(1), 0, seed, mode
        )

    if mode == "extension":
        n = config.locate(x0)
        if n is None:
            raise ValueError("x0 does not belong to any invariant interval")
        iv = config.interval(n)
        if not iv.bounded:
            raise ValueError("extension-trace chains need a bounded invariant interval")
        if not (iv.include_lo and iv.include_hi):
            raise ValueError("extension-trace chains need both endpoints in the interval")
        chain = build_chain(config, n, np.linspace(iv.lo, iv.hi, cells + 1))
    elif mode == "brownian":
        chain = _brownian_chain(k_sites)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'extension' or 'brownian'")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = _walk(chain, chain.site_index(x0), n_steps, rng)
    chain_visits = np.bincount(idx, minlength=chain.sites.size)
    # a trace site that is no site of this walk's grid stays unvisited
    j, on = nearest_site(chain.sites, k_sites)
    visits = np.where(on, chain_visits[j], 0)
    weighted = visits * weights
    total = weighted.sum()
    frequency = weighted / total if total > 0 else weighted
    return VisitTable(k_sites, visits, weights, frequency, n_steps, seed, mode)


# -- darned chains -----------------------------------------------------------


def simulate_darned(
    spec: DarnedSpec,
    grid,
    x0: float,
    n_steps: int,
    seed: int = 0,
) -> OccupationStats:
    """Occupation fractions of the darned walk over a window of image sites.

    The walk is symmetric (the darned process runs in natural scale) with
    lazy reflection half a cell beyond each window end, so its visit law is
    uniform across sites and holding-weighted occupation converges to the
    normalised image masses.  Atoms and the unresolved residue aggregates
    are assigned to their nearest sites, ties to the left.  The
    free walk is drawn and folded in ``_CHUNK``-step pieces, each starting
    where the last one ended, so memory stays flat in ``n_steps``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    sites = _site_array(grid)
    if sites[0] < spec.image_lo or sites[-1] > spec.image_hi:
        raise ValueError("window must lie inside the image interval")
    i0, on = nearest_site(sites, x0)
    if not on:
        raise ValueError("x0 must be a grid site")
    i0 = int(i0)

    masses = [Fraction(0)] * sites.size
    inside = [
        (loc, mass) for loc, mass in spec.atoms + spec.residue if sites[0] <= loc <= sites[-1]
    ]
    at, _ = nearest_site(sites, [float(loc) for loc, _ in inside])
    for a, (_, mass) in zip(at.tolist(), inside):
        masses[a] += mass
    total = sum(masses, Fraction(0))
    if total == 0:
        raise ValueError("zero image mass in the window")
    site_mass = np.array([float(v) for v in masses])

    if sites.size == 1:
        return OccupationStats(
            sites, site_mass, np.ones(1, dtype=np.int64), np.ones(1), 0, seed
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = sites.size
    visits = np.zeros(m, dtype=np.int64)
    free = i0
    for start in range(0, n_steps, _CHUNK):
        steps = rng.integers(0, 2, size=min(_CHUNK, n_steps - start), dtype=np.int64) * 2 - 1
        walk = free + np.cumsum(steps)
        free = int(walk[-1])
        # folding a free walk at half-integer walls gives the lazy reflected
        # chain: residue j >= m of the period 2m is site 2m - 1 - j
        h = np.bincount(np.mod(walk, 2 * m), minlength=2 * m)
        visits += h[:m] + h[:m - 1:-1]
    visits[i0] += 1
    weighted = visits * site_mass
    total_w = weighted.sum()
    occupation = weighted / total_w if total_w > 0 else weighted
    return OccupationStats(sites, site_mass, visits, occupation, n_steps, seed)
