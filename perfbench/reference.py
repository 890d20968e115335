"""Fixed reference kernel that gauges the host's speed during a run.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, as neighbours come and go. Samples of this kernel are taken
between operations throughout the timed loop, and the bounded end-to-end
timings are reported in units of its median time ("ref"): drift slows the
kernel and the library alike and cancels in the ratio, while a change to
the library moves only the numerator. The raw seconds are reported too.

The kernel imitates the hot loops of the workloads and never calls the
library: slicing and copying small numpy arrays and counting in a dict
(strand synthesis, breaking and alignment), and multiply-add on
thousand-digit integers (exact RLL counting).
"""

from __future__ import annotations

import time

import numpy as np

_ROWS = np.random.default_rng(0).integers(0, 4, size=(2000, 100), dtype=np.int8)


def kernel() -> int:
    """One pass of fixed work; returns a checksum so nothing is skipped."""
    counts: dict[tuple[int, int], int] = {}
    pieces = []
    for i, row in enumerate(_ROWS):
        cut = 5 + (i * 7) % 90
        head, rest = row[:cut].copy(), row[cut:].copy()
        pieces.append(head)
        pieces.append(rest)
        key = (int(head[0]), len(rest))
        counts[key] = counts.get(key, 0) + 1
    state = [1, 0, 0, 0]
    for _ in range(1600):
        total = sum(state)
        state = [28 * total, 56 * state[0], 56 * state[1], 56 * state[2]]
    return len(counts) + len(pieces) + sum(state) % 1_000_003


def sample() -> float:
    """Seconds taken by one pass of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
