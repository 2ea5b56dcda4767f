"""Host-speed normalisation: a fixed probe sampled all through a session.

A shared host runs the same work at speeds up to ~1.7x apart and
switches between them every second or so, so raw session times spread
by more than any useful bound.  A timer signal (``SIGALRM``, every
``INTERVAL_S``) interrupts the session and runs a fixed probe in the
session's own thread; its time tracks the speed the host gives the
session at that moment.  The probe is string and dict handling in pure
Python plus a small numpy sort, the program's kinds of work, and uses
nothing of the repository.  It runs twice per sample and only the
second run is timed, so its data is in cache and the time does not
depend on what the program left in the caches: no change to the
program can move the probe.

An operation's *normalised* time is its wall time less the probes that
ran inside it, times ``REFERENCE_S`` over the mean probe time around
it: the seconds it would have taken at the host speed at which the
probe takes ``REFERENCE_S``.  Operations of a few milliseconds (the
edits after a batch's first) run with the timer signal held, so no
probe interrupts them; the probe held back runs right after.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy

#: seconds between samples
INTERVAL_S = 0.05
#: timed probe seconds at the reference speed (its typical time in the
#: fast state of the 2-core Xeon KVM guest the benchmark was tuned on);
#: it scales every reported time alike, never the ratio of two trees
REFERENCE_S = 0.001
#: probes averaged for an operation at the least: every probe inside
#: it, topped up with the probes nearest to it in time
MIN_PROBES = 8

_KEYS = [f"{i % 997:03d}-{(i * 7919) % 10007}" for i in range(600)]
_VALUES = numpy.random.default_rng(7).integers(0, 1 << 20, size=6000)
_rng = random.Random(5)
_TABLE_KEYS = [f"v{_rng.randrange(10**9)}-{i}" for i in range(5000)]
_TABLE = {key: i for i, key in enumerate(_TABLE_KEYS)}
_LOOKUPS = [_TABLE_KEYS[_rng.randrange(len(_TABLE_KEYS))] for _ in range(3000)]


_COUNTS: dict = {}


def _probe() -> int:
    # allocates no object the garbage collector tracks, so sampling does
    # not move the program's collections
    counts = _COUNTS
    counts.clear()
    for key in _KEYS:
        head = key[:3]
        counts[head] = counts.get(head, 0) + len(key)
    numpy.argsort(_VALUES, kind="stable")
    total = len(counts)
    for _ in range(3):
        for key in _LOOKUPS:
            total += _TABLE[key]
    return total


class Sampler:
    """Samples the probe every ``INTERVAL_S`` between ``start`` and
    ``stop``, keeping ``(started, probe seconds, sample seconds)`` per
    sample: the timed second run, and both runs together."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _probe()  # brings the probe's data back into cache
        timed = time.perf_counter()
        _probe()
        ended = time.perf_counter()
        self.samples.append((started, ended - timed, ended - started))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @contextlib.contextmanager
    def held(self):
        """Defers any probe due inside the block until it ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


Sample = Tuple[float, float, float]


def probe_seconds_inside(
    intervals: Sequence[Tuple[float, float]], samples: Sequence[Sample]
) -> float:
    """Seconds of sampling inside the intervals."""
    return sum(
        s[2] for s in samples if any(start <= s[0] < end for start, end in intervals)
    )


def normalise(
    intervals: Sequence[Tuple[float, float]],
    samples: Sequence[Sample],
    reference_s: float = REFERENCE_S,
    min_probes: int = MIN_PROBES,
) -> List[float]:
    """Normalised seconds of each ``(start, end)`` operation interval.

    Each interval's wall time less the samples that started inside it,
    scaled by ``reference_s`` over the mean probe time of its samples:
    those inside it, or, when fewer than ``min_probes``, the
    ``min_probes`` samples nearest to it in time."""
    if len(samples) < min_probes:
        raise ValueError(f"{len(samples)} probes ran during the session, need {min_probes}")
    seconds = []
    for start, end in intervals:
        inside = [s for s in samples if start <= s[0] < end]
        window = inside
        if len(inside) < min_probes:
            window = sorted(
                samples,
                key=lambda s: 0.0 if start <= s[0] < end else min(abs(s[0] - start), abs(s[0] - end)),
            )[:min_probes]
        net = end - start - sum(s[2] for s in inside)
        seconds.append(net * reference_s / statistics.mean(s[1] for s in window))
    return seconds
