"""A fixed calibration kernel that expresses run times in reference seconds.

The benchmark runs on shared hosts whose speed drifts by a third over a
few minutes, for every program alike.  Just before each timed CLI
invocation the worker times this kernel once; it uses nothing of the
``schoenberg`` package, so a change to the package cannot move it.  The
kernel time against ``REFERENCE_S`` gives the host's speed at that
moment, and the invocation's rate is scaled to a reference host that
runs the kernel in ``REFERENCE_S``:

    items per reference second = items per second * kernel seconds / REFERENCE_S

The benchmark reports the median of that over a run's invocations.

The kernel mixes the kinds of work the CLI does: an interpreted loop with
complex arithmetic, many small numpy calls, a small LAPACK eigenvalue
problem and JSON encoding.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Median kernel time on the host the benchmark was defined on (a 2-vCPU
# VM, Python 3.11, numpy 2.4, one BLAS thread).  Fixed: changing it
# rescales every end-to-end time.
REFERENCE_S = 0.03

_MATRIX = np.random.default_rng(0).standard_normal((10, 10))
_ZEROS = np.exp(2j * np.pi * np.arange(8) / 8) * 0.9
_RECORD = {"id": "KT", "n": 8, "lhs": 0.123456789, "rhs": 0.987654321, "holds": True, "equality": False}


def kernel() -> float:
    acc = 0.0
    z = 0.3 + 0.4j
    for _ in range(13):
        for k in range(300):
            z = z * (0.99 + 0.01j) + 1e-3 * k
            acc += abs(z)
        for _ in range(30):
            coeffs = np.poly(_ZEROS)
            acc += float(np.abs(np.polyval(coeffs, _ZEROS)).max())
        acc += float(np.abs(np.linalg.eigvals(_MATRIX)).max())
        acc += len(json.dumps([_RECORD] * 40))
    return acc


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
