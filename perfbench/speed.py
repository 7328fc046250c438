"""The speed of the core a pass runs on, sampled while the pass runs.

On a shared host the same pass can take 1.5x longer from one minute to the
next, because other tenants' load slows the core, not because the program
changed.  ``SpeedProbe`` runs a fixed reference loop every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler, in the pass's own thread,
and records how long the loop took.  Those samples track the core's speed
while the pass runs, and ``reference_seconds`` rescales the pass's wall
seconds to a core on which the loop takes ``REFERENCE_LOOP_S``.  A child's
set-up is rescaled the same way, from samples taken when its script starts
and when it is ready.

The loop is integer arithmetic and lookups in a dict built once, so it
allocates nothing the cyclic garbage collector tracks and calls nothing from
hopfkit: a change to hopfkit cannot change how long the loop takes, apart
from the cache lines the pass leaves behind.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
LOOP_STEPS = 1000
# Seconds the loop is taken to last on the reference core.  On a 2-vCPU Xeon
# at 2.1 GHz it took 0.25-0.45 ms as the host's load moved.
REFERENCE_LOOP_S = 0.00025

_TABLE = {i: 7 * i for i in range(64)}


def reference_loop() -> int:
    x, acc = 1, 0
    for _ in range(LOOP_STEPS):
        x = (x * 1103515245 + 12345) % 2147483648
        acc += _TABLE[x & 63]
    return acc


class SpeedProbe:
    """Samples the reference loop before, during (on a timer) and after the
    ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def probe_seconds(self) -> float:
        """Seconds spent in the loop, to take off the wall time of the block."""
        return sum(self.samples)

    def reference_seconds(self, work_s: float) -> float:
        """``work_s`` wall seconds rescaled to the reference core.

        The work done in a stretch of wall time is proportional to the core's
        speed, the reciprocal of the loop's time, so the samples are averaged
        as speeds.  That also keeps a sample stretched by a context switch
        from counting for much."""
        mean_speed = sum(1 / s for s in self.samples) / len(self.samples)
        return work_s * REFERENCE_LOOP_S * mean_speed
