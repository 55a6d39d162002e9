"""Machine-speed probes, so that timings on a busy shared host can be
compared from run to run.

The benchmark runs on a few cores of a host shared with other tenants.  The
speed of the same Python code there changes by 20-40% within seconds and
from minute to minute, as other tenants come and go; the same pass of items
run twice differs by as much.  ``Probes`` times a fixed reference loop from
a SIGALRM timer every INTERVAL_S while a workload runs, interleaved with
the workload's own code on the same core.  A piece of work that ran from t0
to t1 is then reported in *reference seconds*: its wall time (less the
probes that ran inside it) times REF_S over the mean probe time within
WINDOW_S of it, which is the time it would take on a machine on which one
probe takes REF_S.  When the host slows, work and probes slow together and
the ratio holds; a change to the program moves the work alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05  # a probe every 50 ms
WINDOW_S = 0.1  # probes this close to a piece of work describe its speed
REF_S = 1e-3  # nominal probe time; 0.58-1.26 ms (run medians) on a 2-core shared host


_OPERANDS = [Fraction(1 + i * 7919 % 997, 1 + i * 104729 % 991) for i in range(64)]


def reference_loop() -> Fraction:
    """Fixed interpreter work of the kind gdpakit does: rational arithmetic
    on small operands, the sum reset before its denominator grows large.
    Probes of plain integer arithmetic tracked the host's speed less well:
    over repeated runs of the same pass, scaled by each, the quartiles of
    the scaled times lay 0.07-0.10 of their median apart, against 0.045-0.05
    with this loop."""
    f = Fraction(0)
    for i in range(150):
        f += _OPERANDS[i % 64] * _OPERANDS[i * 7 % 64]
        if f.denominator > 10**30:
            f = Fraction(1, 3)
    return f


class Probes:
    """Probe times taken every INTERVAL_S between ``__enter__`` and
    ``__exit__``, and one at each end."""

    def __init__(self):
        self.start: list[float] = []
        self.dur: list[float] = []

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        self.dur.append(time.perf_counter() - t0)
        self.start.append(t0)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._probe()

    def median_s(self) -> float:
        return statistics.median(self.dur)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of work that ran in this process from t0 to t1;
        the probes that ran inside it delayed it and are subtracted."""
        a = bisect.bisect_left(self.start, t0)
        b = bisect.bisect_left(self.start, t1)
        lo = bisect.bisect_left(self.start, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.start, t1 + WINDOW_S)
        near = self.dur[lo:hi]
        if not near:  # the timer was held up by one long C call
            i = min(bisect.bisect_left(self.start, t0), len(self.dur) - 1)
            near = self.dur[max(i - 1, 0):i + 1]
        return scaled(t1 - t0, sum(self.dur[a:b]), sum(near) / len(near))


def scaled(wall_s: float, probes_s: float, probe_mean_s: float) -> float:
    """Reference seconds of work that took ``wall_s``, of which its probes
    took ``probes_s``, while one probe took ``probe_mean_s``."""
    return (wall_s - probes_s) * REF_S / probe_mean_s
