"""Speed normalisation of op times against a fixed interpreter kernel.

The host the bounds were set on (2 shared vCPUs) runs interpreter-bound
code at a speed that wanders by 10-30% over minutes and by up to 2x in
bursts, while LAPACK-bound code barely moves. A kernel that never calls
the library (``kernel``) is timed before the first op and after every op;
each op's wall time is then scaled by ``REFERENCE_KERNEL_S`` over the mean
of the two kernel times next to it. The result reads as the op's time on
the reference host at its usual speed, so a library change still moves it
in full while the host's drift largely cancels.

Workloads in ``NORMALISED`` are interpreter-bound (sweeps, ladders) and are
scaled; the others are LAPACK/ARPACK-bound, and scaling them by an
interpreter kernel only adds noise, so their factor is 1.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel() time on the reference host (2 vCPUs at 2.0 GHz)
REFERENCE_KERNEL_S = 0.024
NORMALISED = ("full-sweep", "rwa-sweep", "ladder")

_SMALL = np.arange(16.0).reshape(4, 4)


def _step(i: int, table: dict) -> float:
    table[i & 127] = i
    return (i * i % 7) * 0.5


def kernel() -> float:
    """Wall time of a fixed mix of interpreter work: a loop with calls,
    dict stores and arithmetic, and small numpy calls."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(60_000):
        acc += _step(i, table)
    for _ in range(2_000):
        acc += float((_SMALL @ _SMALL)[0, 1])
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale of an op timed between kernel runs of ``before`` and ``after`` s."""
    return 2.0 * REFERENCE_KERNEL_S / (before + after)

