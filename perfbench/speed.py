"""
Reference speed of the interpreter, sampled all through a timed run.

The box's speed drifts by tens of percent, over tens of milliseconds
as well as over minutes, since other machines share its host.  So
while a run is timed, a SIGALRM handler times a fixed piece of
pure-Python reference work every `INTERVAL_S` of wall time.  `clock()`
leaves out the time those samples take, and `factor()` turns a time
measured during the run into seconds at a fixed reference speed: the
speed at which the reference work takes `REFERENCE_S`.  Scaled times
stay put when the whole box slows down, and still move when the
library does more or less work.

The samples are evenly spread in time, so the mean of the reference
speeds they measure (the inverse of their times) is the box's mean
speed over the run, and the run's work is its measured time times
that speed.

The reference work is written here, not taken from the library, so no
change to the library can change it.  It does what the library does
most: builds small tuples from generator expressions, looks them up in
dictionaries and calls small Python functions.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# Seconds the reference work took on the box the benchmark was written
# on, at its usual speed; it only fixes the scale of scaled times.
REFERENCE_S = 0.0014
INTERVAL_S = 0.05
_ROUNDS = 600

_stolen_s = 0.0
_samples: list[float] = []


def _compose(g, h):
    return tuple(g[x] for x in h)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def reference_work() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    seen = {}
    p = (0, 1, 2, 3, 4, 5, 6)
    q = (1, 2, 0, 4, 3, 6, 5)
    for i in range(_ROUNDS):
        p = _compose(q, p)
        r = _inverse(p)
        key = (p, r[i % 7])
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def clock() -> float:
    """`time.perf_counter()` without the time taken by samples."""
    return time.perf_counter() - _stolen_s


def _sample(signum, frame) -> None:
    global _stolen_s
    t0 = time.perf_counter()
    reference_work()
    _samples.append(time.perf_counter() - t0)
    _stolen_s += time.perf_counter() - t0


@contextlib.contextmanager
def sampling():
    """Samples the reference speed while the block runs, in one
    process and one thread."""
    _samples.clear()
    previous = signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sample_count() -> int:
    return len(_samples)


def factor() -> float:
    """Reference seconds per second measured, over the samples of the
    last `sampling()` block."""
    return REFERENCE_S * statistics.fmean(1 / s for s in _samples)


def reference_ms() -> float:
    """Median time of a sample of the last `sampling()` block."""
    return statistics.median(_samples) * 1e3
