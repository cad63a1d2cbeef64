"""A fixed piece of reference work, timed between a workload's operations.

The host this benchmark was written on changes speed by up to 1.6x over
seconds to minutes (other tenants share its cores), and CPU time drifts
with wall time, so neither removes it.  Timing this fixed work right
before and after each operation measures the host's speed at that
moment; dividing an operation's time by it gives the time the operation
would take on a host that runs this work in one unit (``ref``).

The work mixes what dznd's steps do: an interpreted loop over small
numpy arrays and dict updates, and dense SVDs.  It never calls dznd, and
it binds ``svd`` at import, so the tracer's patches do not reach it.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import svd

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((64, 64))
_LARGE = _RNG.standard_normal((192, 192))
_LOOP = 4000


def reference_seconds() -> float:
    """Wall seconds of one run of the reference work (about 20 ms on a
    2.1 GHz Xeon vCPU)."""
    started = time.perf_counter()
    x = np.zeros(8)
    table = {}
    for i in range(_LOOP):
        x = x * 0.5 + 1.0
        table[i % 97] = float(x[0]) + i
    svd(_LARGE)
    for _ in range(4):
        svd(_SMALL)
    return time.perf_counter() - started
