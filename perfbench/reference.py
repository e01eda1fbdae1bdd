"""Machine-speed reference for normalising the timing metrics.

The vCPUs this benchmark was developed on change speed by up to 1.7x
within seconds and drift over minutes (other tenants on the host; steal
time stays 0, and CPU time grows with wall time, so neither explains or
removes it). While a measured process runs, the benchmark's driver
process times a fixed reference workload every ``SPACING_S`` seconds
from a thread of its own: a short mix of interpreter work and small
NumPy gathers and dot products, like the solver's update loop. A timing
metric is reported at reference speed: a time measured between
``t0`` and ``t1`` is multiplied by ``NOMINAL_S / mean(samples taken
between t0 and t1)`` (a rate is divided by it), so a run on a slowed
host reads as it would at nominal speed.

The reference code belongs to the benchmark, never to the program, so
a change to the program cannot move it; and it runs in another process
than the program, so it never holds the program's interpreter lock.
Timestamps are ``time.perf_counter()``, which on Linux reads the
monotonic clock every process shares.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

#: The reference workload's time on the development box's fast phase
#: (an Intel Xeon vCPU at 2.1 GHz). It only fixes the unit: metrics read
#: like seconds on that machine at that speed.
NOMINAL_S = 0.00055
#: Pause between two samples: about 2% of one CPU.
SPACING_S = 0.025
#: Samples a factor averages at least, taken nearest the interval when
#: fewer fall inside it (a burst can be shorter than the spacing).
NEAREST = 3

_X = np.linspace(0.0, 1.0, 256)
_IDX = np.arange(0, 256, 37)


def sample() -> float:
    """Seconds one pass of the reference workload takes now."""
    started = perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(280):
        cols = _IDX + (i & 31)
        acc += float(_X[cols] @ _X[cols])
        table[i & 63] = acc
    return perf_counter() - started


class Sampler:
    """Context manager sampling the reference from a background thread;
    ``samples`` holds ``(midpoint, seconds)`` pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        sample()  # warm the code paths
        while not self._stop.wait(SPACING_S):
            started = perf_counter()
            seconds = sample()
            self.samples.append((started + seconds / 2, seconds))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False

    def factor(self, t0: float, t1: float) -> float:
        """``NOMINAL_S / mean`` of the samples taken between ``t0`` and
        ``t1``, or of the ``NEAREST`` samples closest to that interval
        when fewer fell inside: multiply a time measured then by this,
        or divide a rate, to read it at reference speed."""
        if not self.samples:
            raise RuntimeError("no reference samples were taken")
        times = np.array([t for t, _ in self.samples])
        seconds = np.array([s for _, s in self.samples])
        distance = np.maximum(np.maximum(t0 - times, times - t1), 0.0)
        inside = distance == 0.0
        if inside.sum() < NEAREST:
            inside = np.argsort(distance, kind="stable")[:NEAREST]
        return NOMINAL_S / float(seconds[inside].mean())
