"""Host calibration and the small statistics the benchmark reports.

On the shared 2-vCPU virtual machine the bounds were set on, identical work
swings 1.2-1.5x in wall time while steal time stays near zero.  A fixed
loop timed back to back shows why: each vCPU moves between a fast and a
slow regime (about 6.5 ms against 10.5 ms for the same loop) that lasts
1 to 10 seconds, even with the process pinned to one CPU.  CPU time equals
wall time, so CPU-time clocks do not help, and a reference timed only at
the edges of a 6-second job misses the regime changes inside it.

The benchmark therefore runs a :class:`Speedometer`: a background thread
that times a fixed pure-Python reference probe every 20 ms.  A CPU-bound
job is reported *calibrated*::

    calibrated = raw * PROBE_NOMINAL_S / median(probe times in the job's window)

where the window is the job's own interval, widened symmetrically until it
holds at least :data:`MIN_WINDOW_PROBES` probes: a 3 ms job is judged by
the probes just before and after it, a 6 s job by the ~300 taken during
it.  ``PROBE_NOMINAL_S`` is a committed constant, about the probe's time
in that machine's fast regime, so calibrated values keep their units.  The probe holds
the interpreter lock while it runs, so with the process pinned to one CPU
(:func:`pin_to_one_cpu`) it measures the speed of the CPU the job runs on.
It takes about 2% of the CPU, the same on every commit.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import statistics
import threading
import time
from typing import Callable, Sequence

#: Nominal probe time (seconds): calibrated times read as if every probe in
#: the job's window had taken exactly this long.
PROBE_NOMINAL_S = 0.0003

#: Seconds between two probes.
PROBE_INTERVAL_S = 0.02

#: Fewest probes a calibration window holds.
MIN_WINDOW_PROBES = 9

_PROBE_KEYS = 300
_PROBE_LEN = 3_000


def pin_to_one_cpu() -> int | None:
    """Pin this process to the lowest CPU it may run on; returns that CPU.

    Returns ``None`` where the platform has no affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Background sampler of the reference probe; use as a context manager."""

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        rng = random.Random(20220)
        self._keys = [rng.randrange(_PROBE_KEYS) for _ in range(_PROBE_LEN)]
        self._checksum = self._work()
        self._interval = interval
        self._lock = threading.Lock()
        self.times: list[float] = []  # probe midpoints, ascending
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e2ebench-probe", daemon=True)

    def _work(self) -> int:
        counts: dict[int, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        return len(counts)

    def probe(self) -> None:
        """Time the reference once and record it."""
        started = time.perf_counter()
        checksum = self._work()
        ended = time.perf_counter()
        if checksum != self._checksum:
            raise RuntimeError("reference probe returned a different checksum")
        with self._lock:
            self.times.append((started + ended) / 2.0)
            self.durations.append(ended - started)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.probe()

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)

    def window(self, start: float, end: float) -> list[float]:
        """Probe durations in ``[start, end]``, widened to the minimum count."""
        with self._lock:
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            while hi - lo < MIN_WINDOW_PROBES and (lo > 0 or hi < len(self.times)):
                lo = max(0, lo - 1)
                hi = min(len(self.times), hi + 1)
            return self.durations[lo:hi]

    def wait_past(self, moment: float) -> None:
        """Block until enough probes after ``moment`` exist to close its window."""
        needed = MIN_WINDOW_PROBES // 2 + 1
        deadline = time.perf_counter() + 5.0
        while time.perf_counter() < deadline:
            if len(self.times) - bisect.bisect_right(self.times, moment) >= needed:
                return
            time.sleep(self._interval)

    def summary(self) -> dict[str, float]:
        """Median and quartile spread of every probe so far."""
        durations = self.durations or [float("nan")]
        return {
            "probe_median_us": statistics.median(durations) * 1e6,
            "probe_spread": quartile_spread(durations),
            "probes": len(self.durations),
        }


class Timed:
    """One timed interval: raw seconds and, once settled, its calibration."""

    __slots__ = ("start", "end", "factor")

    def __init__(self, start: float, end: float) -> None:
        self.start = start
        self.end = end
        self.factor: float | None = None  # calibrated / raw, set by Clock.settle()

    @property
    def raw(self) -> float:
        return self.end - self.start

    @property
    def calibrated(self) -> float:
        if self.factor is None:
            raise RuntimeError("calibrated time read before Clock.settle()")
        return self.raw * self.factor


class Clock:
    """Times intervals now and calibrates them once later probes exist."""

    def __init__(self, speedometer: Speedometer) -> None:
        self.speedometer = speedometer
        self._pending: list[Timed] = []

    def track(self, start: float, end: float) -> Timed:
        """An interval timed elsewhere; calibrated by :meth:`settle`."""
        timing = Timed(start, end)
        self._pending.append(timing)
        return timing

    def timed(self, fn: Callable[[], object]) -> tuple[object, Timed]:
        """``(fn(), timing)``; the timing is calibrated by :meth:`settle`."""
        started = time.perf_counter()
        result = fn()
        return result, self.track(started, time.perf_counter())

    def settle(self) -> None:
        """Fix the calibration factor of every interval timed so far."""
        if not self._pending:
            return
        self.speedometer.wait_past(self._pending[-1].end)
        for timing in self._pending:
            timing.factor = calibrate(1.0, self.speedometer.window(timing.start, timing.end))
        self._pending = []


def calibrate(raw: float, probes: Sequence[float]) -> float:
    """``raw`` normalised by the median probe time of its window."""
    if not probes:
        raise ValueError("calibration needs at least one probe")
    return raw * PROBE_NOMINAL_S / statistics.median(probes)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values or min(values) <= 0:
        raise ValueError("geomean needs a non-empty list of positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def tail_percentile(values: Sequence[float], min_beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``: of ``n`` sorted samples, the one at
    index ``n - min_beyond - 1`` has exactly ``min_beyond`` samples beyond
    it.  Raises ``ValueError`` unless there are more than ``min_beyond``.
    """
    if len(values) <= min_beyond:
        raise ValueError(f"a tail needs more than {min_beyond} samples, got {len(values)}")
    ordered = sorted(values)
    index = len(ordered) - min_beyond - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else float("inf")
