"""Host speed calibration: a fixed kernel timed next to every op.

The figures are taken on a shared 2-vCPU virtual machine whose speed
drifts over minutes: one round of nullspace ops repeated for 5 minutes
averaged 0.73x to 1.54x their medians over 5 s windows, and means over
25 s windows had a coefficient of variation of 0.16 (0.13 to 0.15 over
40 to 75 s), with CPU time tracking wall time.  No run length averages
that out.  So a fixed kernel, owned by the benchmark and independent of
the package, is timed before every op, and op times are rescaled to a
host on which the kernel takes ``REFERENCE_S``.  The kernel mixes what the package spends
its time on: Python-level pivot selection with small numpy row
operations, dense rank-one updates of a 1 MB tableau, and small dense
solves.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.006   # kernel time on the reference host
WINDOW = 2            # ops on each side whose kernel times set an op's scale

_RNG = np.random.default_rng(20240601)
_SMALL = _RNG.standard_normal((24, 48))
_LARGE = _RNG.standard_normal((250, 500))
_SOLVE = _RNG.standard_normal((40, 40)) + 40.0 * np.eye(40)
_RHS = _RNG.standard_normal((40, 2))


def _pivots(start, steps):
    t = start.copy()
    m = t.shape[0]
    for k in range(steps):
        r = k % m
        j = int(np.argmax(np.abs(t[r])))
        t[r] /= t[r, j]
        col = t[:, j].copy()
        col[r] = 0.0
        t -= np.outer(col, t[r])
        rows = np.nonzero(t[:, j] > -1.0)[0]
        _ = [float(x) for x in t[rows[:8], 0]]
    return t


def kernel():
    """Wall seconds of one pass of the calibration kernel."""
    t0 = perf_counter()
    _pivots(_SMALL, 150)
    _pivots(_LARGE, 4)
    for _ in range(30):
        np.linalg.solve(_SOLVE, _RHS)
    return perf_counter() - t0


def scales(kernel_times):
    """Per-op factor REFERENCE_S / (median kernel time of the op and its
    WINDOW neighbours on each side)."""
    out = []
    n = len(kernel_times)
    for i in range(n):
        near = kernel_times[max(0, i - WINDOW):min(n, i + WINDOW + 1)]
        out.append(REFERENCE_S / statistics.median(near))
    return out
