"""The machine's speed, sampled while the questions run.

The benchmark runs on a shared machine whose speed drifts over minutes: a
fixed loop of fraction arithmetic took from 15 ms to 29 ms per call within
two and a half minutes, with nothing else of ours running, and the same
200 questions took from 14 s to 21 s in runs a minute apart.  That drift is
wider than any bound a regression check could use.

A ``Sampler`` therefore interrupts the run every ``INTERVAL`` seconds of
wall time and times a fixed probe, none of whose code is ``rip``'s: a
Gauss-Jordan elimination, the kind of work a simplex pivot does, over a
matrix of fractions for exact questions and of floats for float ones (the
two kinds of arithmetic slow down by different amounts).  The probes take
turns.  A question's time has the probes that fell inside it taken out,
and is then multiplied by ``REFERENCE[mode]`` over the median probe time
within ``PAD`` seconds of the question: it reads as seconds at the speed
at which the probes take ``REFERENCE`` seconds.  Set-up, which runs before the sampler starts,
is scaled by ``spot_factor``: probes timed between its samples.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.2
PAD = 1.0
MODES = ("rational", "float")

# seconds each probe takes on the reference machine of the README: the
# 10th percentile of 600 back-to-back calls
REFERENCE = {"rational": 0.0098, "float": 0.0054}


def _matrix(size, number):
    return [
        [number(Fraction((3 * i + 5 * j) % 11 + 1, (i + 2 * j) % 7 + 1))
         if (7 * i + 3 * j) % 4 else number(0) for j in range(2 * size)]
        for i in range(size)
    ]


PROBES = {"rational": _matrix(12, Fraction), "float": _matrix(44, float)}


def eliminate(matrix):
    """Gauss-Jordan elimination on a copy of ``matrix``, row by row."""
    rows = [row[:] for row in matrix]
    for i in range(len(rows)):
        pivot = next(k for k, v in enumerate(rows[i]) if v)
        inv = 1 / rows[i][pivot]
        row = rows[i] = [v * inv for v in rows[i]]
        nonzeros = [(k, v) for k, v in enumerate(row) if v]
        for other in rows:
            f = other[pivot]
            if other is not row and f:
                for k, v in nonzeros:
                    other[k] = other[k] - f * v
    return rows


def spot_factor():
    """The exact ``REFERENCE`` over the median of five exact probes timed back to back."""
    durations = []
    for _ in range(5):
        started = time.perf_counter()
        eliminate(PROBES["rational"])
        durations.append(time.perf_counter() - started)
    return REFERENCE["rational"] / statistics.median(durations)


class Sampler:
    """Times the probes on a wall-clock timer while it is entered."""

    def __init__(self):
        self.samples = {mode: ([], []) for mode in MODES}  # start times, durations
        self.spent = 0.0  # seconds spent probing, to take out of timed intervals
        self._turn = 0
        self._previous = None

    def _sample(self, signum, frame):
        mode = MODES[self._turn]
        self._turn = 1 - self._turn
        started = time.perf_counter()
        eliminate(PROBES[mode])
        took = time.perf_counter() - started
        starts, durations = self.samples[mode]
        starts.append(started)
        durations.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, mode, start, end):
        """The factor for a question of ``mode`` timed from ``start`` to ``end``.

        Uses the probes of that mode within ``PAD`` seconds of the
        interval, or the three nearest when fewer fall there.
        """
        starts, durations = self.samples[mode]
        lo = bisect.bisect_left(starts, start - PAD)
        hi = bisect.bisect_right(starts, end + PAD)
        if hi - lo < 3:
            middle = bisect.bisect_left(starts, (start + end) / 2)
            hi = min(len(starts), max(0, middle - 1) + 3)
            lo = max(0, hi - 3)
        return REFERENCE[mode] / statistics.median(durations[lo:hi])
