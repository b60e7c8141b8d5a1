"""Host-speed sampling, so that timings compare across a shared host's speeds.

On a shared host one core runs the same Python code at speeds up to 1.7x
apart, switching every 0.5 to 5 seconds as other tenants come and go.  A
median over a 30-second run does not average that out: two runs of the same
code minutes apart differ by a third.

``Sampler`` measures the host's speed while the program runs, on the same
core and at the same moments.  A ``SIGALRM`` every ``INTERVAL_S`` seconds of
wall time runs one fixed reference chunk (pure-Python float work with calls,
list indexing and a small numpy product, like the simulator's inner loops)
and records how long it took.  Python runs the handler between two byte-codes
of the main thread, so the chunks interleave with the program's own work.
``normalize`` then takes the time spent in chunks out of an interval and
scales what is left by the mean speed of the chunks inside it: the result is
the program's time in seconds on a host where one chunk takes
``NOMINAL_CHUNK_S``.  A program that does half the work reads half the time
at any host speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
NOMINAL_CHUNK_S = 5e-4
CHUNK_ITERATIONS = 1000
MIN_SAMPLES = 5

_VECTOR = np.array([0.3, 0.2, 0.1])


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def chunk() -> float:
    """The reference work: a damped oscillator stepped ``CHUNK_ITERATIONS`` times."""
    acc, x, v = 0.0, 0.1, 0.0
    buf = [0.0] * 4
    for i in range(CHUNK_ITERATIONS):
        force = -4.0 * x - 0.1 * v + math.sin(0.001 * i)
        v += 1e-3 * force
        x += 1e-3 * v
        buf[i & 3] = x
        acc += math.exp(-abs(x)) + buf[(i + 1) & 3]
        if i % 16 == 0:
            acc += float(np.dot(_VECTOR, _VECTOR))
    return acc


class Sampler:
    """Runs ``chunk`` on a wall-clock timer and keeps (start, duration) pairs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        started = _now()
        chunk()
        self.samples.append((started, _now() - started))

    def start(self) -> None:
        for _ in range(20):  # fill caches before the first timed chunk
            chunk()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def normalize(self, start: float, end: float, speed_from=None) -> dict:
        """The interval [start, end) without its chunks, at nominal host speed.

        ``speed_from`` is an optional (start, end) whose chunks give the
        speed, for an interval that began before sampling did.  Returns the
        raw seconds, the seconds without chunks, the host's speed relative to
        nominal (above 1 is faster) and the nominal seconds.
        """
        inside = [d for t, d in self.samples if start <= t < end]
        lo, hi = speed_from or (start, end)
        speeds = [d for t, d in self.samples if lo <= t < hi]
        if len(speeds) < MIN_SAMPLES:
            speeds = [d for _, d in self.samples]
        if len(speeds) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(speeds)} host-speed samples")
        program_s = (end - start) - sum(inside)
        # Samples are uniform in wall time, so the mean of 1/duration is the
        # host's mean speed over the interval.
        speed = NOMINAL_CHUNK_S * statistics.fmean(1.0 / d for d in speeds)
        return {
            "raw_s": end - start,
            "program_s": program_s,
            "host_speed": speed,
            "nominal_s": program_s * speed,
            "samples": len(speeds),
        }

