"""Host speed, measured beside the program with a fixed pure-Python kernel.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 70% over periods of seconds to tens of seconds (other tenants'
load), with almost no CPU steal.  Raw times of one commit then spread by a
quarter or more from run to run.  So every pass is interleaved with short
runs of a kernel that never changes: after each item (at most every
``INTERVAL_S``) and around the pass.  The pass's *speed factor* is
``REFERENCE_S`` over the kernel's median time in that pass, and the
pass's times are reported multiplied by it: times at the reference speed,
the speed at which this host runs the kernel when it is quiet.

The kernel does what the program does most (tuple keys in dicts, small
polynomial products, integer arithmetic) and touches no ``skeinkit``
code, so a change to the program cannot change it.  Time spent in it is
kept apart and subtracted from a pass's wall and CPU time.
"""

from __future__ import annotations

import statistics
import time

# Median time of ``kernel()`` on the reference machine (2-core Xeon share,
# Python 3.11, quiet).  Only the ratio to it matters; the value is fixed
# so that reported times are comparable between commits and runs.
REFERENCE_S = 0.00095
INTERVAL_S = 0.02
EDGE_SAMPLES = 5  # kernel runs before and after every pass


def kernel() -> int:
    memo = {}
    for i in range(1500):
        key = (i % 97, (i * 7919) % 1009, i & 7)
        memo[key] = memo.get(key, 0) + i
    p = {(i, j): (i * 3 + j) % 7 - 3 for i in range(-4, 5) for j in range(6)}
    q = {(i, j): (i + j) % 5 - 2 for i in range(-2, 3) for j in range(4)}
    prod = {}
    for (a, b), c in p.items():
        for (e, f), g in q.items():
            k = (a + e, b + f)
            prod[k] = prod.get(k, 0) + c * g
    s = 0
    for i in range(3000):
        s = (s * 31 + i) % 1000003
    return len(memo) + len(prod) + s


class Speed:
    """Kernel timings for one pass, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._last = time.perf_counter()

    def sample(self, n: int = 1) -> None:
        c0, w0 = time.process_time(), time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.wall_s += self._last - w0
        self.cpu_s += time.process_time() - c0

    def maybe(self) -> None:
        """Sample once if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
