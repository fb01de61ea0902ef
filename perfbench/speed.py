"""Machine-speed sampling, so that timings from a drifting host compare.

On a shared 2-core host, identical code ran up to 50% slower for tens of
seconds at a time, and raw pass times spread 20-35% between runs. While a
pass runs, SIGALRM fires every TICK_S and the handler times ``snippet``, a
fixed pure-Python loop that no change to nlcmfo can speed up or slow down.
Its mean time over an interval measures how fast the machine ran *during
that interval*, and

    factor = REFERENCE_S / mean snippet time

turns times from that interval into seconds at the reference speed: the
whole pass for pass times, each run's own interval for per-run times.

The snippet touches no arrays: a numpy-based one ran 2.4x slower inside
CSV export than inside a search (cache state left by the program), which
made the factor depend on the workload.  This loop reads within 20% across
the four workloads' phases, and slower only where pool workers share the
cores.  The handler draws no random numbers and touches no program state,
so outputs are unchanged; it costs about 0.3% of a pass.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.02
# mean snippet time inside a pass on the reference machine (2 cores)
REFERENCE_S = 5.0e-5


def snippet() -> int:
    total = 0
    for i in range(600):
        total += i * i
    return total


class SpeedSampler:
    """Context manager: samples the snippet time while the block runs."""

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        snippet()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start=float("-inf"), end=float("inf")):
        """REFERENCE_S / mean snippet time of ticks in [start, end), or None."""
        window = [d for t, d in self.samples if start <= t < end]
        return REFERENCE_S / statistics.fmean(window) if window else None

    def run_factors(self, start: float, runtimes) -> list:
        """Factors of runs executed back to back from ``start`` in this process.

        A run with no tick in its interval takes the whole block's factor.
        """
        whole = self.factor() or 1.0
        factors = []
        for runtime in runtimes:
            factors.append(self.factor(start, start + runtime) or whole)
            start += runtime
        return factors
