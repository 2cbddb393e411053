"""How fast the CPU ran while the program's processes ran.

The host shares its cores with other machines, and each core switches
between running at full speed and about 1.6 times slower several times a
second, in a mix that drifts over minutes.  An operation of a few seconds
therefore takes anywhere from its full-speed time to about 1.6 times that,
and no number of repetitions within a run removes the drift.

``CpuGauge`` measures the speed while a watched process runs: a thread of
the harness, pinned to the same CPU as the process, times a fixed unit of
interpreter work every ``PERIOD_S`` (the process yields the CPU for the
unit's fraction of a millisecond).  ``seconds`` gives an interval's length
at the reference speed, at which the unit takes ``REFERENCE_UNIT_S``: each
part of the interval is scaled by the reference over the time the nearest
sample took.  The result is wall time on a CPU that runs the unit in
``REFERENCE_UNIT_S`` -- about full speed on the host the reference figures
in README.md come from -- and does not move with the host's load.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import statistics
import threading
import time

#: seconds between samples while a watched process runs
PERIOD_S = 0.02
#: seconds the unit takes at the reference speed
REFERENCE_UNIT_S = 0.0002

_PERMS = [(p, tuple(p.index(i) for i in range(3))) for p in itertools.permutations(range(3))]
_TABLES = [tuple((i * 7 + j * 3 + k) % 3 for i in range(3) for j in range(3)) for k in range(16)]


def _unit():
    """Interpreter work of the program's kind: the least relabeling of a few
    3-element tables."""
    for t in _TABLES:
        min(tuple(p[t[3 * q[i] + q[j]]] for i in range(3) for j in range(3)) for p, q in _PERMS)


class CpuGauge:
    def __init__(self):
        self.samples = []   # (start, seconds) of each timed unit, in time order
        self._starts = None
        self._on = threading.Event()
        self._closed = False
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        clock = time.perf_counter
        while self._on.wait() and not self._closed:
            time.sleep(PERIOD_S)
            if not self._on.is_set():
                continue
            t0 = clock()
            _unit()
            self.samples.append((t0, clock() - t0))

    @contextlib.contextmanager
    def watch(self):
        """Samples while the block runs; yields its [start, end]."""
        span = [time.perf_counter(), None]
        self._on.set()
        try:
            yield span
        finally:
            span[1] = time.perf_counter()
            self._on.clear()

    def close(self):
        """Ends sampling; ``seconds`` may be asked from then on."""
        self._closed = True
        self._on.set()
        self._thread.join()
        self._starts = [t for t, _ in self.samples]

    def speeds(self):
        """Speed at the 2nd percentile and at the median sample, as shares of
        the reference speed, for the record."""
        durations = sorted(d for _, d in self.samples)
        if not durations:
            return float("nan"), float("nan")
        return REFERENCE_UNIT_S / durations[len(durations) // 50], \
            REFERENCE_UNIT_S / statistics.median(durations)

    def seconds(self, start, end):
        """Length of [start, end] at the reference speed."""
        starts = self._starts
        if not starts:
            return end - start
        i, j = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
        if i == j:  # shorter than PERIOD_S: the speed the nearest sample saw
            k = min((k for k in (i - 1, i) if 0 <= k < len(starts)),
                    key=lambda k: abs(starts[k] - start))
            return (end - start) * REFERENCE_UNIT_S / self.samples[k][1]
        total, prev = 0.0, start
        inside = self.samples[i:j]
        for n, (t, d) in enumerate(inside):
            nxt = (t + inside[n + 1][0]) / 2 if n + 1 < len(inside) else end
            total += (nxt - prev) * REFERENCE_UNIT_S / d
            prev = nxt
        return total
