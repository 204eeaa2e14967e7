"""Machine-speed calibration for the benchmark's times.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent over seconds to minutes: the same verify battery took from
21 to 32 seconds in consecutive runs.  So every process that times bmext
also times a fixed unit of work, ``unit``, at a steady rate while it runs,
and scales each operation's time by ``REFERENCE_S / mean(unit times)`` over
the unit times sampled while the operation ran.  The result reads as
seconds on a machine that runs the unit in ``REFERENCE_S``.

A ``Sampler`` runs the unit from a SIGALRM handler every ``PERIOD_S``
seconds, so the samples are spread evenly over the run, the inside of long
operations included, and are taken on the same process as the work.  The
time spent in the unit is counted, so that it can be taken out of the
operations' times.  The unit is ``Fraction`` arithmetic on operands with
the dyadic and triadic denominators of Cantor-staircase work, read from a
list larger than a core's own caches, which is the kind of work most
of bmext's time goes to; it calls nothing in bmext, so a change to bmext
cannot move it.  A smaller unit that summed a short loop of integers and
small ``Fraction``s slowed less than bmext does when the machine slows:
over two sets of six passes of the same cli-exact work its scaled pass
time still spread 0.05 and 0.11 (quartile distance over median), against
0.035 and 0.07 with a unit of this kind.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# a typical time of the unit on the machine the seed-tree figures were taken
# on (a 2-vCPU VM, Python 3.11); it only sets the scale of the figures
REFERENCE_S = 0.0068
PERIOD_S = 0.2
# an operation's scale comes from the samples taken while it ran, or from
# at least this many samples nearest to it
NEAREST = 5

_rng = random.Random(0)
OPERANDS = [
    Fraction(_rng.randrange(1, 3**12), 2 ** _rng.randrange(1, 20) * 3 ** _rng.randrange(1, 12))
    for _ in range(40_000)
]  # about 5 MB, more than a core's own caches hold
PAIRS = [(_rng.randrange(len(OPERANDS)), _rng.randrange(len(OPERANDS))) for _ in range(1_000)]


def unit() -> Fraction:
    acc = Fraction(0)
    for i, j in PAIRS:
        acc += OPERANDS[i] * OPERANDS[j]
    return acc


def unit_seconds() -> float:
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


def factor(samples: list) -> float:
    """The scale that turns times taken beside these unit times into reference seconds."""
    return REFERENCE_S / statistics.fmean(samples)


def scale_between(sampler: "Sampler", start: float, end: float) -> float:
    """The scale for work done from ``start`` to ``end`` (perf_counter times).

    The machine's speed changes within a run, so each operation is scaled by
    the samples taken while it ran, or by the NEAREST samples to it if fewer
    fell inside.
    """
    dist = [max(start - t, t - end, 0.0) for t in sampler.stamps]
    near = sorted(range(len(dist)), key=dist.__getitem__)
    inside = sum(d == 0.0 for d in dist)
    return factor([sampler.samples[i] for i in near[:max(inside, NEAREST)]])


class Sampler:
    """Times the unit every PERIOD_S seconds of wall time while active."""

    def __init__(self):
        self.samples: list = []
        self.stamps: list = []  # perf_counter() at each sample
        self.spent = 0.0  # seconds spent in the handler, unit included

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.stamps.append(t0)
        self.samples.append(unit_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        # a pass shorter than a few periods still gets a scale
        while len(self.samples) < 3:
            self.stamps.append(time.perf_counter())
            self.samples.append(unit_seconds())
        return False
