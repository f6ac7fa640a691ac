"""Scale measured times to a fixed host speed.

On a shared virtual machine the speed of a core drifts with the load of its
neighbours.  On the 2-vCPU Intel Xeon (2.0 GHz) host this benchmark was
written on, the same workload ran 30% faster or slower from one minute to the
next, so ten runs of one workload could not agree within 25%.  A fixed
pure-Python reference loop, independent of retislack, follows that drift: the
benchmark times it between program calls and scales the calls between two
timings by REF_NOMINAL_S over the mean of the two.  The scaled figures read in
seconds at the speed where the loop takes REF_NOMINAL_S, about its mean time
on that host.  The core there flips between a fast and a slow state within
seconds, so a call of several seconds runs at a mix of the two.  Each timing
therefore runs the loop over and over for a share of the time it stands for
and takes the mean: the best of a few quick timings caught the fast state
alone and made the spread of 650-gate calls wider than no scaling at all.
The runner prints the raw wall-clock median next to the scaled one.
"""
from __future__ import annotations

import random
import statistics
from time import perf_counter

REF_NOMINAL_S = 0.002  # reference loop time the scaled figures refer to
SAMPLE_EVERY_S = 0.2   # time the loop at least this often between calls
SAMPLE_SHARE = 0.1     # a timing lasts this share of the time since the last

_rng = random.Random(20140211)
_N = 400
_ADJ = tuple(tuple((_rng.randrange(_N), _rng.randint(1, 9)) for _ in range(4))
             for _ in range(_N))


def _reference() -> int:
    """Fixed work in the style of the pipeline: shortest-path relaxations."""
    dist = [1 << 40] * _N
    dist[0] = 0
    for _ in range(15):
        for u in range(_N):
            du = dist[u]
            for v, w in _ADJ[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
    return dist[-1]


def reference_seconds(window: float) -> float:
    """Mean time of the reference loop, run over and over for `window` seconds."""
    runs, t0 = 0, perf_counter()
    while True:
        _reference()
        runs += 1
        elapsed = perf_counter() - t0
        if elapsed >= window:
            return elapsed / runs


class HostSpeed:
    """Collects raw durations in order and scales each by the host speed.

    The reference loop is timed at the start, whenever SAMPLE_EVERY_S has
    passed since the last timing, and at flush(); the durations between two
    timings are scaled by REF_NOMINAL_S over the mean of the two.
    """

    def __init__(self):
        self.refs = [reference_seconds(SAMPLE_SHARE * SAMPLE_EVERY_S)]
        self._since = perf_counter()
        self._pending: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if perf_counter() - self._since >= SAMPLE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.refs.append(reference_seconds(SAMPLE_SHARE * (perf_counter() - self._since)))
        factor = REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
        self.raw.extend(self._pending)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending = []
        self._since = perf_counter()

    def factor(self) -> float:
        """Scale for the whole run, from the median reference timing."""
        return REF_NOMINAL_S / statistics.median(self.refs)
