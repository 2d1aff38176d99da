"""How fast the host runs, from a fixed kernel that does not touch couder.

The machine the benchmark was built on is shared: for tens of seconds to
minutes at a time every process on it runs up to about 1.5 times slower,
although it keeps its CPU.  A run samples this kernel right after every
half second or so of operations, outside the timed section, and
``run.py`` divides the times of those operations by the sample's
``factor()``: they then read as at the host speed under which the kernel
takes ``REFERENCE_S``.  The kernel mixes the kinds of work the program
does: a small HiGHS solve, a heap-driven shortest-path search in the
interpreter, and small numpy array operations.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np
from scipy.optimize import linprog

#: Kernel time in the fast spells of the machine named in README.md.
REFERENCE_S = 0.0065
#: Kernel repeats per sample.
REPEATS = 3


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.uniform(size=(60, 120))
        self._c = -rng.uniform(size=120)
        n = 400
        self._adj = [[(int(w), float(c)) for w, c in
                      zip(rng.integers(0, n, 6), rng.uniform(1.0, 10.0, 6))]
                     for _ in range(n)]
        self._x = np.arange(5000.0)
        self._kernel()  # the first run loads code and fills caches

    def _kernel(self) -> None:
        linprog(self._c, A_ub=self._a, b_ub=np.ones(60), bounds=(0, 1),
                method="highs")
        dist = [math.inf] * len(self._adj)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w, c in self._adj[v]:
                if d + c < dist[w]:
                    dist[w] = d + c
                    heapq.heappush(heap, (d + c, w))
        x = self._x
        for _ in range(50):
            x = np.sqrt(x + 1.0)

    def factor(self) -> float:
        """How many times slower than the reference the host runs now:
        the fastest of a few kernel runs over ``REFERENCE_S``."""
        fastest = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            fastest = min(fastest, time.perf_counter() - start)
        return fastest / REFERENCE_S
