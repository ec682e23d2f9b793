"""Machine-speed calibration: a reference clock for timings.

The benchmark runs on small shared virtual machines whose speed drifts
by tens of percent over seconds, in two ways.  Neighbours load the same
cores and memory, which makes the same work cost more CPU time; and the
host takes the virtual CPUs away now and then (steal time), which
stretches wall-clock time and no CPU time at all.

So a fixed probe, the same work every time, is timed at regular points
of each run: an interpreter loop, the chunked small-K FP32 accumulation
``TiledGemm.multiply`` does, and a blake2b digest of the kind
``PreparedCache`` keys operands with.  Its CPU time on the calling
thread is the machine's current cost of that work.  Each probe also
reads the kernel's CPU-time counters (``/proc/stat``) for steal time.

:meth:`Calibrator.clock` turns the probes into a *reference clock*:
around each probe, one wall-clock second counts as
``(1 - steal) * REFERENCE_S / probe`` reference seconds, with ``probe``
the median probe time and ``steal`` the stolen share of the CPU time
the machine wanted (busy or stolen), both within :data:`WINDOW_S` of
that moment.  Durations on the reference clock are what the same work
would take on an unshared machine whose probe takes exactly
``REFERENCE_S``.  A change to repro's code changes the workload and not
the probe, so it still shows in full.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager

import numpy as np

#: Probe CPU time that defines reference speed (seconds).
REFERENCE_S = 0.006
#: Half-width of the time window whose probes set the local speed.
WINDOW_S = 1.0
#: Period of background probing while a served phase runs.
PERIOD_S = 0.2


class Calibrator:
    """Times the probe on demand or from a helper thread.

    Samples are appended from at most one thread at a time: the caller's,
    or the helper's while :meth:`background` runs.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4096, 64)).astype(np.float32)
        self._b = rng.standard_normal((64, 64)).astype(np.float32)
        self._blob = rng.integers(0, 256, 2_000_000, dtype=np.uint8).tobytes()
        #: ``(time, probe CPU seconds, wanted CPU jiffies, stolen jiffies)``.
        self.samples: list[tuple[float, float, int, int]] = []

    def probe(self) -> float:
        """Run the probe once on this thread; record and return its CPU time."""
        wall = time.perf_counter()
        start = time.thread_time()
        squares = 0
        for i in range(5000):
            squares += i * i
        acc = np.zeros((self._a.shape[0], self._b.shape[1]), dtype=np.float32)
        for k0 in range(0, self._a.shape[1], 8):
            acc += self._a[:, k0 : k0 + 8] @ self._b[k0 : k0 + 8, :]
        hashlib.blake2b(self._blob).digest()
        cpu = time.thread_time() - start
        wanted, stolen = _cpu_jiffies()
        self.samples.append(((wall + time.perf_counter()) / 2.0, cpu, wanted, stolen))
        return cpu

    @contextmanager
    def background(self, period: float = PERIOD_S):
        """Probe every ``period`` seconds on a helper thread while the block runs."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(period):
                self.probe()

        helper = threading.Thread(target=loop, name="perfbench-calibrate", daemon=True)
        helper.start()
        try:
            yield self
        finally:
            stop.set()
            helper.join()

    def clock(self) -> "ReferenceClock":
        """The reference clock defined by the probes taken so far."""
        return ReferenceClock(sorted(self.samples))


def _cpu_jiffies() -> tuple[int, int]:
    """CPU time wanted (busy or stolen) and stolen so far, in jiffies (0, 0 if unknown)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0, 0
    # cpu user nice system idle iowait irq softirq steal [guest guest_nice]
    counts = [int(f) for f in fields[1:9]]
    if len(counts) < 8:
        return 0, 0
    return sum(counts) - counts[3] - counts[4], counts[7]


class ReferenceClock:
    """Maps wall-clock instants (``time.perf_counter``) to reference time."""

    def __init__(self, samples: list[tuple[float, float, int, int]]) -> None:
        if not samples:
            raise ValueError("no calibration probes were taken")
        times, costs, wanted, stolen = (np.array(column) for column in zip(*samples))
        factors = []
        for t in times:
            near = np.flatnonzero(np.abs(times - t) <= WINDOW_S)
            first, last = near[0], near[-1]
            asked = wanted[last] - wanted[first]
            steal = (stolen[last] - stolen[first]) / asked if asked > 0 else 0.0
            factors.append((1.0 - steal) * REFERENCE_S / np.median(costs[near]))
        self.factors = np.array(factors)
        self.probe_median_s = float(np.median(costs))
        self.steal_share = float((stolen[-1] - stolen[0]) / max(wanted[-1] - wanted[0], 1))
        self.probes = len(samples)
        # Sample i governs the stretch between its neighbours' midpoints.
        self._edges = (times[1:] + times[:-1]) / 2.0
        widths = np.diff(self._edges)
        self._cum = np.concatenate(([0.0], np.cumsum(widths * self.factors[1:-1])))

    def at(self, t):
        """Reference time of wall-clock instant(s) ``t`` (arbitrary origin)."""
        t = np.asarray(t, dtype=float)
        if not self._edges.size:
            mapped = t * self.factors[0]
            return float(mapped) if mapped.ndim == 0 else mapped
        k = np.searchsorted(self._edges, t, side="right") - 1
        before = k < 0
        k = np.clip(k, 0, None)
        inside = self._cum[k] + (t - self._edges[k]) * self.factors[k + 1]
        mapped = np.where(before, (t - self._edges[0]) * self.factors[0], inside)
        return float(mapped) if mapped.ndim == 0 else mapped

    def duration(self, start, end):
        """Reference duration of wall-clock interval(s) ``[start, end]``."""
        return self.at(end) - self.at(start)
