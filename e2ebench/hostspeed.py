"""Host-speed reference for the benchmark's CPU-bound timings.

On the small shared VMs the benchmark is run on, the speed of the same
code moves by up to ~1.4x: it flips every few seconds and the mix drifts
over tens of minutes, so a whole set of runs can read 40% slower than a
set taken an hour earlier.  Thread CPU time moves with wall time, so this
is contention for the core, which any other code running at that moment
feels too.

:class:`HostSpeed` times a fixed probe -- one conv-sized float32 GEMM plus
small-array NumPy calls, the mix a training step is made of -- many times
between the measured operations.  It calls nothing in the library, so no
change to the library can move it.  A time measured between two probe
batches, divided by :meth:`HostSpeed.factor` of those probes, is that time
at the reference speed (probe time :data:`REF_PROBE_S`).
"""
from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

#: probe time (s) of the reference speed, about the median of a 2-CPU
#: 2.1 GHz Xeon VM; it only scales the reported times
REF_PROBE_S = 0.0020


class HostSpeed:
    """Probe timings of one process, in the order they were taken."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((96, 288)).astype(np.float32)
        self._b = rng.standard_normal((288, 1152)).astype(np.float32)
        self._small = rng.standard_normal((32, 16)).astype(np.float32)
        #: duration (s) of every probe
        self.samples: List[float] = []
        self.probe()               # first call pays for lazy set-up
        self.samples.clear()

    def probe(self, n: int = 1) -> float:
        """Run the probe ``n`` times; returns the time they took."""
        t_start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            c = self._a @ self._b
            np.maximum(c, 0, out=c)
            c.sum(axis=1)
            for _ in range(300):
                (self._small * 1.5 + self._small).sum()
            self.samples.append(time.perf_counter() - t0)
        return time.perf_counter() - t_start

    def mark(self) -> int:
        """Position for :meth:`factor`."""
        return len(self.samples)

    def factor(self, start: int = 0, stop: Optional[int] = None) -> float:
        """How many times slower than the reference speed the probes
        ``samples[start:stop]`` ran (their mean: the measured operations
        take the mix of fast and slow spells, and so does a mean)."""
        return float(np.mean(self.samples[start:stop])) / REF_PROBE_S
