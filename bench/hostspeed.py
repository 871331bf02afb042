"""A fixed reference kernel that measures how fast the host runs right now.

The box the benchmark runs on is shared, and its speed drifts by 20-50 %
over minutes: every layer and the set-up slow down together, and so does
this kernel.  The benchmark times the kernel in every gap between rounds
and reports each time at the host speed where one kernel pass takes
`REFERENCE_S`: a round that took `t` seconds next to kernel passes of
median `k` seconds is reported as ``t * REFERENCE_S / k``.

The kernel does not touch nnrates, so a change to the program cannot move
it.  It mixes the program's three kinds of work in about equal
shares: numpy calls on arrays of 10^4 doubles (draw, sort, search,
cumulative sum), pure-Python dict, sort and JSON work, and scalar float
code (a bisection on `math.erfc`, like the boundary scan).
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# about the kernel's median pass on the reference box
REFERENCE_S = 0.035


def _level(x: float, centre: float) -> float:
    return 0.5 * math.erfc((centre - x) / 0.3) + math.exp(-x * x)


def kernel_seconds() -> float:
    """Time one pass of the kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    acc = 0.0
    for _ in range(10):
        x = rng.random(10_000)
        order = np.argsort(x, kind="stable")
        acc += float(np.searchsorted(x[order], 0.5)) + float(np.cumsum(x)[-1])
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    acc += len(json.dumps(sorted(counts.items())))
    for j in range(1000):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _level(mid, j / 1000.0) < 0.7:
                lo = mid
            else:
                hi = mid
        acc += lo
    return time.perf_counter() - start


def sample(repeats: int) -> list[float]:
    """Time `repeats` passes back to back."""
    return [kernel_seconds() for _ in range(repeats)]


def scale(*gaps: list[float]) -> float:
    """Factor that takes a time measured next to these passes to the reference speed."""
    return REFERENCE_S / statistics.median([t for gap in gaps for t in gap])
