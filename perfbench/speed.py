"""Host-speed tracking: the benchmark's defence against noisy hosts.

On a shared machine the same work can take half again as long when
other tenants are busy.  A :class:`Speedometer` samples the host's
speed *while* a pass runs: a real-time interval timer interrupts the
main thread every :data:`INTERVAL_S` and the handler runs one fixed
pure-Python :func:`calibration_slice`, noting when it started and how
long it took.  Every slice is the same work, so its duration tracks
the host's speed at that moment, under the interference the workload
itself sees.

:meth:`Speedometer.reference_seconds` turns a measured interval into
*reference-host seconds*: the slices that ran inside it are removed,
and the rest is scaled by :data:`REFERENCE_SLICE_S` over the mean
slice duration of the interval.  The slice never calls into the
simulator, so a faster simulator still shows as faster.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Timer period between two calibration slices.
INTERVAL_S = 0.05
#: Loop iterations of one slice (about a millisecond).
SLICE_LOOPS = 15_000
#: Slice duration on the reference host: an idle x86-64 cloud vCPU
#: running CPython 3.11.
REFERENCE_SLICE_S = 0.001
#: Fewest slices an interval needs for its own speed estimate; shorter
#: intervals use the speed of the whole pass.
MIN_SLICES = 3


def calibration_slice() -> float:
    """Run the fixed slice of pure-Python work; returns its seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(SLICE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate(slices: int = 30) -> float:
    """Median slice duration right now, outside any pass."""
    return statistics.median(calibration_slice() for _ in range(slices))


class Speedometer:
    """Timer-driven calibration slices, usable as a context manager."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        #: Running sums of ``durations``, one longer than it.
        self._sums = [0.0]
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        duration = calibration_slice()
        self.starts.append(start)
        self.durations.append(duration)
        self._sums.append(self._sums[-1] + duration)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slices(self, begin: float, end: float) -> tuple[int, float]:
        """(count, total seconds) of the slices started in [begin, end)."""
        first = bisect.bisect_left(self.starts, begin)
        last = bisect.bisect_left(self.starts, end)
        return last - first, self._sums[last] - self._sums[first]

    def mean_slice(self, begin: float, end: float) -> float:
        """Mean slice duration over [begin, end), or the reference."""
        count, total = self.slices(begin, end)
        return total / count if count else REFERENCE_SLICE_S

    def reference_seconds(self, begin: float, end: float,
                          fallback: float) -> float:
        """Reference-host seconds of the interval [begin, end).

        *fallback* is the mean slice duration to scale by when the
        interval holds fewer than :data:`MIN_SLICES` slices.
        """
        count, total = self.slices(begin, end)
        mean = total / count if count >= MIN_SLICES else fallback
        return (end - begin - total) * REFERENCE_SLICE_S / mean
