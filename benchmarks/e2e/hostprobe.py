"""How fast the host is running right now, from a fixed piece of numpy work.

This guest shares its cores with other tenants, and its speed moves by 20-40 %
in phases that last from seconds to many minutes (README, *Steadiness*): ten
runs that straddle one phase change spread by the size of the step, whatever
their length.  Every workload slows by about the same factor, so the benchmark
times a fixed piece of work that shares nothing with the program, in the gaps
where every session is idle, and reports its timed end-to-end metrics at the
speed of a reference host: ``time x speed``, where ``speed`` is the reference
burst time over the burst time seen.

A burst is half compute, half memory, like the program: modular multiplies on a
cache-resident ``(3, 4096)`` int64 stack (the shape of an HE kernel's inner
loop) and random gathers from a touched 64 MB table (page walks and memory
latency, which key-switch key walks and fresh buffers pay).
"""

import statistics
import time

import numpy as np

MODULUS = np.int64(1073479681)
MULTIPLIES, GATHERS = 200, 20


class HostProbe:
    #: Seconds one burst takes on the reference host: this guest (2.1 GHz
    #: Xeon, numpy 2.4) in a calm phase.  It only sets the scale.
    reference_s = 0.0215

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, MODULUS, size=(3, 4096))
        self.table = np.arange(1 << 23)        # written, so really there
        self.index = rng.integers(0, self.table.size, size=1 << 16)

    def burst(self) -> float:
        """Seconds one burst took (about 22 ms)."""
        start = time.perf_counter()
        for _ in range(MULTIPLIES):
            (self.rows * self.rows) % MODULUS
        for _ in range(GATHERS):
            self.table[self.index].sum()
        return time.perf_counter() - start

    def speed(self, bursts=None) -> float:
        """Host speed against the reference (1.0 = as fast), from the median
        of *bursts*, or of three taken now."""
        if bursts is None:
            bursts = [self.burst() for _ in range(3)]
        return self.reference_s / statistics.median(bursts)
