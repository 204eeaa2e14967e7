"""Grid random walks approximating the extension diffusions.

The embedded chain jumps between neighbouring grid sites with the classical
scale-ratio probabilities, so the scale function is harmonic for the chain
and hitting statistics reproduce the diffusion's exactly on any sites; the
grid only limits how much of the state space a walk can see.  Hitting, path
and extension-trace walks all run on the uniform grid of :func:`snap_grid`,
which knows nothing of the scale.  Mean holding times
integrate the two-sided exit kernel against the speed measure (Lebesgue on
every interval), normalised so a Brownian cell of half-width h is left in
mean time h**2.  Singular scale mass therefore slows crossings without ever
adding residence time of its own.  One pass over the exact cell integrals
gives every site both its step law and its holding time, each its exact
ratio rounded once.  The holding times are checked on their first read, and
only paths read them, so hitting and trace walks answer on windows whose
holding times leave the float range.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cantor import check_work
from .config import ExtensionConfig, IntervalSpec, TraceMeasure
from .darning import DarnedSpec, common_denominator
from .scale import make_scale

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
# a darned walk draws and folds this many steps at a time: a whole number of
# raw 64-bit words, 64 steps each
_CHUNK = 1 << 16
# steps a hitting walker takes on one uniform: on the band law of a window of
# more than 2 * _STRIDE + 1 sites, and on the dense law of a smaller one
_STRIDE = 64
_DENSE_STRIDE = 1 << 10
# a path or trace walk strides K = _walk_stride(m, steps) steps from its first
# stride to its last, K at most _STRIDE: the K whose tables fit in _WALK_TABLE
# entries and whose walk costs least, by the measured costs, in ns, of one
# band update of every site's laws, of each table entry it writes and of one
# stride end drawn in sequence (Python 3.11, numpy 2.4, one core of a 2-core
# x86-64 VM).  It draws its strides in chunks of _WALK_CHUNK steps.
_WALK_TABLE = 1 << 22
_LAW_NS, _ENTRY_NS, _END_NS = 45_000, 25, 260
_WALK_CHUNK = 1 << 16


def _site_array(sites) -> np.ndarray:
    arr = np.array(sites, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sites must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sites must be finite")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ValueError("sites must be strictly increasing")
    return arr


def _nearest_index(sites: np.ndarray, x: np.ndarray) -> np.ndarray:
    # index of each point's nearest site, ties to the left
    j = np.searchsorted(sites, x)
    left = np.maximum(j - 1, 0)
    right = np.minimum(j, sites.size - 1)
    return np.where(sites[right] - x < x - sites[left], right, left)


def nearest_site(sites, x) -> tuple[np.ndarray, np.ndarray]:
    """Index of each point's nearest site, ties to the left, and whether it is the point.

    ``sites`` must increase strictly.  A site is the point when
    ``math.isclose`` says so at rel_tol = abs_tol = 1e-12, a test symmetric
    in its two arguments (``np.isclose``'s is not).  A scalar x gives 0-d
    arrays.
    """
    sites = np.asarray(sites, dtype=float)
    x = np.asarray(x, dtype=float)
    i = _nearest_index(sites, x)
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
    absorbing sites.  Only the two window ends may absorb: an end that does
    not absorb reflects.  ``holding`` gives the mean holding time at each
    site; ``mean_holding`` reads it, and its first read refuses the first
    site that does not absorb and whose time is not finite or not positive.
    """

    sites: np.ndarray
    p_right: np.ndarray
    holding: np.ndarray
    absorbing: np.ndarray

    def __post_init__(self):
        inner = np.flatnonzero(self.absorbing[1:-1])
        if inner.size:
            raise ValueError(f"absorbing site {int(inner[0]) + 1} is not a window end")
        for arr in (self.sites, self.p_right, self.holding, self.absorbing):
            arr.setflags(write=False)

    @functools.cached_property
    def mean_holding(self) -> np.ndarray:
        hold = self.holding
        bad = np.flatnonzero(~(self.absorbing | (np.isfinite(hold) & (hold > 0.0))))
        if bad.size:
            i = int(bad[0])
            what = "finite" if not math.isfinite(hold[i]) else "positive"
            raise ValueError(f"holding time at site {self.sites[i].item()!r} is not {what}")
        return hold

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


def snap_grid(lo: float, hi: float, cells: int) -> np.ndarray:
    """The uniform grid on [lo, hi]: the ends of ``cells`` equal cells, less
    any point that rounds to the same float as its neighbour.

    The first site is lo and the last hi.  A chain on any sites is exactly
    scale-harmonic, so no site needs to sit on a remnant end.
    """
    if not (lo < hi):
        raise ValueError("need lo < hi")
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"the window [{lo!r}, {hi!r}] is wider than the float range")
    if cells < 1:
        raise ValueError("need at least one cell")
    grid = np.linspace(lo, hi, cells + 1)
    # np.unique would do, but its first call imports numpy.ma (about 12 ms)
    return grid[np.append(True, grid[1:] > grid[:-1])]


def build_chain(config: ExtensionConfig, n: int, sites) -> GridChain:
    """Jump chain of interval n's diffusion on the given sites.

    Sites must lie in the interval's closure; the two window ends reflect
    when they sit on an included endpoint and absorb otherwise.  A site on
    an excluded endpoint that no interval contains is a trap: legal and
    absorbing, and the infinite scale walls it off from the rest of the grid.

    One stream of :meth:`ScaleFunction.cell_ratios` gives each site x between
    l and r its cells' E and dt, and from them both its step law
    p = dt_l / (dt_l + dt_r) and its holding time, twice the exit kernel's
    integral against Lebesgue speed mass: with a = E(l, x) and
    b = dt_r (r - x) - E(x, r), x holds 2 (a dt_r + b dt_l) / (dt_l + dt_r).
    Each is its exact ratio rounded once.  A cell that ends on a stacked end
    is a wall: p is 0 or 1 and x holds 2 (a + dt_l (r - x)) or
    2 (b + dt_r (x - l)).  A reflecting end holds 2a or 2b; absorbing sites
    hold 0.  The holding times are checked when ``mean_holding`` is first
    read.
    """
    iv = config.interval(n)
    scale = iv.scale
    arr = _site_array(sites)
    m = arr.size
    for s in arr.tolist():
        if iv.contains(s):
            continue
        other = config.locate(s)
        if other is not None:
            raise ValueError(
                f"grid straddles intervals {n} and {other}: site {s} belongs to both windows"
            )
        if s not in (iv.lo, iv.hi):
            raise ValueError(f"site {s} lies outside interval {iv.describe()}")
    # the sites increase, so only the window ends can sit on an interval end;
    # an end reflects on an included endpoint and absorbs otherwise
    reflect_lo = arr[0] == iv.lo and iv.include_lo
    reflect_hi = arr[-1] == iv.hi and iv.include_hi
    absorbing = np.zeros(m, dtype=bool)
    absorbing[[0, -1]] = not reflect_lo, not reflect_hi

    if m == 1:
        # a one-site window cannot move; only useful for trap sites
        return GridChain(arr, np.zeros(1), np.zeros(1), np.ones(1, dtype=bool))

    xs = arr.tolist()
    walks = (~absorbing).tolist()
    p = np.zeros(m)
    hold = np.zeros(m)
    # the cells stream by, each read as the cell above one site and below the next
    cells = itertools.chain(scale.cell_ratios(xs), [None])
    above = None
    for i in range(m):
        below, above = above, next(cells)
        if not walks[i]:
            continue
        if below is None and above is None:
            if 0 < i < m - 1:
                raise ValueError("site is walled in by infinite scale on both sides")
            # a reflecting end steps into its one cell; when that cell's far
            # end is a stacked end, the walk would enter a trap the diffusion
            # never reaches
            raise ValueError(f"reflecting end {xs[i]!r} would step into the stacked"
                             f" end {xs[1 if i == 0 else m - 2]!r}, a trap the diffusion"
                             " never reaches")
        if above is not None:
            en, ed, trn, trd, grn, grd = above
            bn, bd = trn * grn * ed - en * trd * grd, trd * grd * ed
        if below is None:
            # a wall below x, or no cell below the window's low end
            p[i] = 1.0
            gln, gld = (Fraction(xs[i]) - Fraction(xs[i - 1]) if i else Fraction(0)).as_integer_ratio()
            num, den = 2 * (bn * trd * gld + trn * gln * bd), trd * gld * bd
        else:
            an, ad, tln, tld, _, _ = below
            if above is None:
                # a wall above x, or no cell above the window's high end: p stays 0
                grn, grd = (Fraction(xs[i + 1]) - Fraction(xs[i]) if i < m - 1
                            else Fraction(0)).as_integer_ratio()
                num, den = 2 * (an * tld * grd + tln * grn * ad), ad * tld * grd
            else:
                sl, sr = tln * trd, trn * tld
                p[i] = sl / (sl + sr)
                num, den = 2 * (an * trn * bd * tld + bn * tln * ad * trd), ad * bd * (sl + sr)
        try:
            hold[i] = num / den
        except OverflowError:
            hold[i] = math.inf
    return GridChain(arr, p, hold, absorbing)


# -- exact strides -----------------------------------------------------------


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


def _band_laws(p: np.ndarray, stop: np.ndarray, k: int, h: int, low=None, held=None):
    """The k-step law, k >= 1, of the chain stopped on ``stop``, as a band of half-width h.

    Column j of row i is the probability of standing at site i - h + j after
    k steps from site i.  A walker moves one site a step, so while k <= h or
    h >= m - 1 these columns hold the whole law.  Two arrays take the
    1-, 2-, ... k-step laws in turn, each one update of the band from the
    last: the law times the holding weight, plus the flow up from the
    column below, plus the flow down from the column above, added in that
    order.  The update skips the columns a walker cannot have reached,
    where every term is 0.  The band's move weights are windows onto
    per-site vectors padded by h stopped sites at each end.

    ``low``, zeros of shape (k, m, 2h + 1) if given, receives at ``[t - 1]``
    the share of the t-step law's first two terms in it, left 0 where the
    law is 0.  ``held``, zeros of shape (k, m, s) if given, receives at
    ``[t - 1, i, j]`` the share of the first term in P^t(i, z), z the j-th of
    the s stopped sites, left 0 where that law is 0 or z lies off row i's
    band.
    """
    m = p.size
    width = 2 * h + 1
    stopped = np.concatenate((np.ones(h, dtype=bool), stop, np.ones(h, dtype=bool)))
    q = np.concatenate((np.zeros(h), p, np.zeros(h)))
    up = sliding_window_view(np.where(stopped, 0.0, q), width)
    down = sliding_window_view(np.where(stopped, 0.0, 1.0 - q), width)
    hold = sliding_window_view(np.where(stopped, 1.0, 0.0), width)
    if held is not None:
        # flat index of each stopped site's column in every row, where the
        # band has it
        rows = np.arange(m)[:, None]
        cols = np.flatnonzero(stop) - rows + h
        on_band = (cols >= 0) & (cols < width)
        cols = np.where(on_band, rows * width + cols, 0)
    law, nxt = np.zeros((m, width)), np.zeros((m, width))
    law[:, h] = 1.0
    flow = np.empty((m, width - 1))
    for t in range(k):
        # after t + 1 steps a walker stands in the columns a to e - 1
        a, e = max(h - t - 1, 0), min(h + t + 2, width)
        total = nxt[:, a:e]
        np.multiply(law[:, a:e], hold[:, a:e], out=total)
        nxt[:, a + 1:e] += np.multiply(law[:, a:e - 1], up[:, a:e - 1], out=flow[:, a:e - 1])
        if low is not None:
            share = low[t][:, a:e]
            share[...] = total
        nxt[:, a:e - 1] += np.multiply(law[:, a + 1:e], down[:, a + 1:e], out=flow[:, a:e - 1])
        # a term of a 0 law is 0: dividing by 1 there keeps its share 0
        if low is not None:
            share /= total + (total == 0)
        if held is not None:
            # a stopped site's first term is the law it had one step before
            first = law.reshape(-1)[cols] * on_band
            after = nxt.reshape(-1)[cols] * on_band
            np.divide(first, after + (after == 0), out=held[t])
        law, nxt = nxt, law
    return law


def _capped_cdf(law: np.ndarray) -> np.ndarray:
    # cumulated sums along each row, capped at 1
    cdf = np.cumsum(law, axis=1)
    return np.minimum(cdf, 1.0, out=cdf)


def _stride_cdf(p: np.ndarray, stop: np.ndarray, k: int) -> np.ndarray:
    """Cumulated k-step law of the chain stopped on ``stop``, one row per site.

    Column j of row i is the probability of standing at or below site
    i - k + j after k >= 1 steps from site i: the cumulated sums of
    :func:`_band_laws`' k-step law, capped at 1.
    """
    return _capped_cdf(_band_laws(p, stop, k, k))


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
    return _capped_cdf(band)


def _last_landings(cdf: np.ndarray) -> np.ndarray:
    # each row's last column of positive probability: the first that holds
    # the row's total
    return np.argmax(cdf == cdf[:, -1:], axis=1)


def _stride_lookup(cdf: np.ndarray):
    """Search table of a banded cumulated law: flat rows and last landings.

    Row i is offset by i, so that one ``searchsorted`` of i + u over all rows
    finds where a walker at site i lands with uniform u.  A row's last
    landing is the flat index of its last column of positive probability.
    """
    m, width = cdf.shape
    last = np.arange(m) * width + _last_landings(cdf)
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


# -- single trajectories -----------------------------------------------------


def _walk_stride(sites: int, steps: int) -> int:
    """The longest stride K of a walk of ``steps`` steps over ``sites`` sites.

    The power of two up to ``_STRIDE`` that minimises the walk's modelled
    time, K band updates of w = 2 min(K, sites - 1) + 1 entries a site
    (``_LAW_NS`` each, and ``_ENTRY_NS`` an entry) and steps / K stride ends
    (``_END_NS`` each), among the K whose tables, the K shares and at most
    6 laws of :func:`_strided_walk`, fit in ``_WALK_TABLE`` entries; 1 when
    none does.  The steps inside the strides cost the same for every K.
    """

    def width(k):
        return 2 * min(k, sites - 1) + 1

    def cost(k):
        return k * (_LAW_NS + _ENTRY_NS * sites * width(k)) + _END_NS * steps / k

    strides = [1 << j for j in range(_STRIDE.bit_length())]
    return min((k for k in strides if k == 1 or (k + 6) * sites * width(k) <= _WALK_TABLE),
               key=cost)


def _bridges(low: np.ndarray, x: np.ndarray, b: np.ndarray, u: np.ndarray,
             held=None, stop_index=None) -> np.ndarray:
    """Sites of strides of k = ``len(u)`` steps from ``x`` to ``b``, drawn from the end back.

    Row t of the result holds each stride's site after t steps.  A walker at
    site z after t steps stood after t - 1 steps at z itself (only if z is
    stopped), at z - 1 or at z + 1, with odds the three terms that
    :func:`_band_laws` adds, in that order, into the t-step law P^t(x, z).
    ``held`` and ``low`` are its tables of the first term's share and of
    the first two terms' share in P^t.  ``u[t - 1]`` picks among them, one
    uniform per stride: the walker stays below the first share, stood at
    z - 1 below the second, and at z + 1 otherwise.  The bridge only reaches
    states of positive law, and a term's share is empty exactly when the
    term is 0, so no step of zero probability is drawn: the bridge is the
    exact law of the chain's steps given both stride ends, up to the
    rounding of the laws.  ``held`` may be left out when no stride ends on
    a stopped site; ``stop_index`` gives each site's column in it, -1 for a
    live site.
    """
    k = u.shape[0]
    width = low.shape[2]
    low = low.reshape(low.shape[0], -1)
    # flat index of site z in row x of a band: x * width + z - x + width // 2
    base = x * (width - 1) + width // 2
    at = np.empty((k + 1, x.size), dtype=np.int64)
    at[k] = base + b
    share = np.empty(x.size)
    up = np.empty(x.size, dtype=bool)
    if held is not None:
        # flat index of the j-th stopped site in row x: x * s + j
        row_base = x * held.shape[2]
        held = held.reshape(held.shape[0], -1)
    for t in range(k, 0, -1):
        here, there = at[t], at[t - 1]
        v = u[t - 1]
        low[t - 1].take(here, out=share)
        np.greater_equal(v, share, out=up)
        # there = here - 1, plus 2 for a walker that stood at z + 1
        np.subtract(here, 1, out=there)
        np.add(there, up, out=there)
        np.add(there, up, out=there)
        if held is not None:
            j = stop_index[here - base]
            stays = (j >= 0) & (v < held[t - 1][row_base + np.maximum(j, 0)])
            there[stays] = here[stays]
    return at - base


def _landings(law: np.ndarray):
    """Where a walker lands from each site of a band law of half-width h.

    Returns the function that lists site i's cumulated law from i, capped
    at 1, up to its last site of positive law, which takes every uniform
    past them.  A walker at i with uniform u lands on site
    ``i - h + bisect_right(row(i), u)``.
    """
    cdf = _capped_cdf(law)
    last = _last_landings(cdf).tolist()

    def row(i: int) -> list:
        return cdf[i, :last[i]].tolist() + [math.inf]

    return row


def _strided_walk(chain: GridChain, i0: int, steps: int, rng):
    """Yield the sites a walk from i0 visits after it starts, in order, chunk by chunk.

    The walk takes ``steps`` steps, or fewer when it stops on its first
    absorbing site.  It moves in strides of K = ``_walk_stride(m, steps)``
    steps on an m-site window.  Each stride's end is drawn from the exact
    K-step law of the chain stopped at its absorbing sites: a walker at
    site i lands on the first site whose cumulated law from i exceeds its
    uniform, or on the last site of positive law when none does.  The ends
    form a chain, so they are found in sequence.  Then the steps inside
    every stride of a chunk are drawn at once by :func:`_bridges`.

    Draw contract (the seeded walks depend on it): the walk takes
    ceil(steps / K) strides, in chunks of n = min(``_WALK_CHUNK`` // K,
    strides left).  Each chunk draws one ``rng.random(n)`` for their ends,
    in order, and stops at the first end that absorbs.  Then it draws
    ``rng.random((K, s))`` for the bridges of the s strides it walked, row
    t - 1 picking each stride's site after t - 1 steps.  The sites past
    ``steps`` are dropped: a prefix of a path of the chain is a path of its
    length, so a walk absorbed only after ``steps`` steps ends unabsorbed.
    An absorbed walk draws nothing after the chunk it is absorbed in.
    """
    stopped = chain.absorbing.tolist()
    if steps == 0 or stopped[i0]:
        return
    m = len(stopped)
    k = _walk_stride(m, steps)
    h = min(k, m - 1)
    low = np.zeros((k, m, 2 * h + 1))
    stop_sites = np.flatnonzero(chain.absorbing)
    held = np.zeros((k, m, stop_sites.size)) if stop_sites.size else None
    stop_index = np.full(m, -1)
    stop_index[stop_sites] = np.arange(stop_sites.size)
    row = _landings(_band_laws(chain.p_right, chain.absorbing, k, h, low, held))
    # each site's cumulated law, listed on the walk's first visit
    rows = [None] * m
    pos = i0
    while steps > 0:
        ends = [pos]
        for u in rng.random(min(_WALK_CHUNK // k, -(-steps // k))).tolist():
            cdf = rows[pos]
            if cdf is None:
                cdf = rows[pos] = row(pos)
            pos += bisect_right(cdf, u) - h
            ends.append(pos)
            if stopped[pos]:
                break
        # only a stride that ends on a stopped site may hold its walker
        z = _bridges(low, np.array(ends[:-1]), np.array(ends[1:]),
                     rng.random((k, len(ends) - 1)), held if stopped[pos] else None, stop_index)
        sites = z[1:].T.reshape(-1)
        if stopped[pos]:
            # the walk ends where it first meets the absorbing site
            yield sites[: min(steps, sites.size - k + int(np.argmax(z[1:, -1] == pos)) + 1)]
            return
        yield sites[:steps]
        steps -= sites.size


def simulate_path(
    chain: GridChain,
    x0: float,
    budget: int = 1_000_000,
    seed: int = 0,
) -> PathSample:
    """Walk the chain from x0 until absorption or the step budget runs out.

    Time advances by the mean holding of each visited site.  The walk moves
    in strides: each stride's end is drawn from the exact law of the chain
    stopped at its absorbing sites, then the steps inside it from the exact
    law of the chain given both ends, so the path has the law of single
    steps up to rounding: each step law is its exact ratio rounded once, and
    the stride laws add the float rounding of their products.  The seeded path
    follows the draw contract of :func:`_strided_walk`, on a generator from
    ``SeedSequence(seed)``.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    i = chain.site_index(x0)
    # checked before the walk, which they may refuse
    hold = chain.mean_holding
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = np.concatenate([[i], *_strided_walk(chain, i, budget, rng)])
    times = np.concatenate(([0.0], np.cumsum(hold[idx[:-1]])))
    exhausted = not chain.absorbing[idx[-1]]
    return PathSample(chain.sites[idx], times, exhausted, seed)


# -- hitting statistics ------------------------------------------------------


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
    ``budget`` steps are excluded from the estimate and reported in
    ``excluded``.

    Walkers move up to K steps at a time on the exact law of the chain
    stopped at l and r, so where a walk ends has the law of single steps, up
    to rounding: each step law is its exact ratio rounded once, and the
    K-step law adds the float rounding of its products.  A window of
    m <= 2 * ``_STRIDE`` + 1 sites from l to r takes
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
    # outcome of arriving at each site: 0 walks on, 1 hit l, 2 hit r; only
    # the chain's window ends absorb, so no other site stops a walker
    code = np.zeros(m, dtype=np.int8)
    code[0] = 1
    code[-1] = 2
    # the k-step lookup for each k walked: the stride, and the budget's tail
    tables = {}
    ss = np.random.SeedSequence(seed)
    n_batches = -(-n_samples // _BATCH)
    tally = np.zeros(3, dtype=np.int64)
    excl = 0
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
                tally += np.bincount(c[~keep], minlength=3)
                pos = pos[keep]
        excl += pos.size
    _, succ, fail = tally.tolist()
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
    quantitative approximation of the time-changed process.  The walk is
    drawn in strides as in :func:`simulate_path`, on a generator from
    ``SeedSequence(seed)``, and its visits are counted chunk by chunk.
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
        chain = build_chain(config, n, snap_grid(iv.lo, iv.hi, cells))
    elif mode == "brownian":
        # a free Brownian walk: the identity scale on the window, both ends reflecting
        window = make_scale(k_sites[0], k_sites[-1], include_lo=True, include_hi=True)
        chain = build_chain(ExtensionConfig((IntervalSpec(window),)), 0, k_sites)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'extension' or 'brownian'")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    i0 = chain.site_index(x0)
    chain_visits = np.bincount([i0], minlength=chain.sites.size)
    for sites in _strided_walk(chain, i0, n_steps, rng):
        chain_visits += np.bincount(sites, minlength=chain.sites.size)
    # a trace site that is no site of this walk's grid stays unvisited
    j, on = nearest_site(chain.sites, k_sites)
    visits = np.where(on, chain_visits[j], 0)
    weighted = visits * weights
    total = weighted.sum()
    frequency = weighted / total if total > 0 else weighted
    return VisitTable(k_sites, visits, weights, frequency, n_steps, seed, mode)


# -- darned chains -----------------------------------------------------------


def _symbol_width(sites: int, steps: int) -> int:
    """Steps g per symbol of a darned walk on ``sites`` sites.

    The walk counts (start residue, g-step symbol) pairs in a table of
    2 * sites * 2**g entries, whose product with the symbol landings costs
    O(sites * 2**g * g) once per walk.  g is the widest of 8, 4 and 2 whose
    table is no larger than the walk's steps // g symbols, else 1.
    """
    for g in (8, 4, 2):
        if 2 * sites << g <= steps // g:
            return g
    return 1


@functools.cache
def _symbol_landings(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Net move of each g-step symbol, and where its steps land.

    Bit k of a symbol is step k + 1, up when set.  Row s of the landings
    counts the steps of symbol s that end at each offset -g..g from where
    the symbol starts.
    """
    sym = np.arange(1 << g)
    walk = np.cumsum(2 * (sym[:, None] >> np.arange(g) & 1) - 1, axis=1)
    landings = np.zeros((1 << g, 2 * g + 1), dtype=np.int64)
    np.add.at(landings, (sym.repeat(g), walk.ravel() + g), 1)
    return walk[:, -1].copy(), landings


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
    are assigned to their nearest sites, ties to the left.

    Draws: step t goes up when bit t mod 64 of the generator's raw 64-bit
    word floor(t / 64) is set (``rng.bit_generator.random_raw``), so each
    word's little-endian bytes are 8 steps each, low bit first.  The free
    walk (the walk before folding) is drawn in ``_CHUNK``-step pieces, a
    whole number of words each, every piece starting where the last one
    ended, so memory stays flat in ``n_steps``.  Each piece splits its
    bytes into g-step symbols (``_symbol_width``) and counts (start
    residue, symbol) pairs; steps past the last whole byte are folded one
    by one.  Once per walk the pair counts are spread onto the residues the
    symbols' steps land on.
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

    lo, hi = float(sites[0]), float(sites[-1])
    inside = [(loc, mass) for loc, mass in spec.atoms + spec.residue if lo <= loc <= hi]
    at = _nearest_index(sites, np.array([float(loc) for loc, _ in inside]))
    den, cofactor = common_denominator({mass.denominator for _, mass in inside})
    sums = [0] * sites.size
    for a, (_, mass) in zip(at.tolist(), inside):
        sums[a] += mass.numerator * cofactor[mass.denominator]
    if not any(sums):
        raise ValueError("zero image mass in the window")
    # int / int is correctly rounded, as float() of the exact site sum is
    site_mass = np.array([v / den for v in sums])

    if sites.size == 1:
        return OccupationStats(
            sites, site_mass, np.ones(1, dtype=np.int64), np.ones(1), 0, seed
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = sites.size
    period = 2 * m
    g = _symbol_width(m, n_steps)
    move, landings = _symbol_landings(g)
    pairs = np.zeros(period << g, dtype=np.int64)
    h = np.zeros(period, dtype=np.int64)
    free = i0
    lanes = np.arange(0, 8, g, dtype=np.uint8)  # first bit of each symbol in a byte
    for start in range(0, n_steps, _CHUNK):
        c = min(_CHUNK, n_steps - start)
        # step t of the piece is bit t % 8 of byte t // 8 of its words, read
        # little-endian on any byte order
        words = rng.bit_generator.random_raw(-(-c // 64))
        octets = words.astype("<u8", copy=False).view(np.uint8)
        whole = c // 8
        if whole:
            sym = octets[:whole]
            if g < 8:
                sym = ((sym[:, None] >> lanes) & ((1 << g) - 1)).ravel()
            moves = move.take(sym)
            cell = np.cumsum(moves)
            cell += free
            free = int(cell[-1]) % period
            # in place, from where each symbol ends to its table cell:
            # start residue << g | symbol
            cell -= moves
            cell %= period
            cell <<= g
            cell |= sym
            np.add.at(pairs, cell, 1)
        if c % 8:
            up = int(octets[whole]) >> np.arange(c % 8) & 1
            walk = free + np.cumsum(up * 2 - 1)
            np.add.at(h, walk % period, 1)
            free = int(walk[-1]) % period
    # entry r of pairs @ landings[:, o + g] counts the steps that land on
    # residue r + o from symbols that start on residue r
    pairs = pairs.reshape(period, 1 << g)
    for offset in range(-g, g + 1):
        h += np.roll(pairs @ landings[:, offset + g], offset)
    # folding a free walk at half-integer walls gives the lazy reflected
    # chain: residue j >= m of the period 2m is site 2m - 1 - j
    visits = h[:m] + h[:m - 1:-1]
    visits[i0] += 1
    weighted = visits * site_mass
    total_w = weighted.sum()
    occupation = weighted / total_w if total_w > 0 else weighted
    return OccupationStats(sites, site_mass, visits, occupation, n_steps, seed)
