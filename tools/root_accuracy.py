"""Accuracy of ``find_roots_batch`` against 60-digit ``mpmath.polyroots`` of the same coefficients.

    python3 tools/root_accuracy.py

Solves 8 rows per cell, five classes at n in {6, 16, 32, 48, 63} and Wilkinson's
polynomial, with the package of this checkout (``src``), and prints one table
row per cell:

* ``gaussian``: zeros z ~ CN(0, 1);
* ``unit-modulus``: zeros exp(2 pi i U), U uniform on [0, 1);
* ``derivative``: p' of ``from_roots`` of n + 1 Gaussian zeros;
* ``half-clustered``: Gaussian zeros whose first n/2 are z_0 + 1e-3 z_j;
* ``char-poly``: ``matrices.char_poly`` of D S for Gaussian zeros, its
  order-32 guard lifted;
* ``wilkinson``: ``from_roots`` of 1, 2, ..., 20 (n = 20 only), the
  classic ill-conditioned row, 8 times.

The error of a row is the greedy pairing distance between its roots and
the 60-digit roots over max(1, max |root|).  A cell shows the worst row, the
worst backward error |p(r)| / e(r) of the rows that passed the gate (e the
Horner bound that ``find_roots_batch`` gates on) and the rows that failed
it, whose errors are left out.  Each cell draws from
``default_rng`` seeded by the class and n, so two checkouts solve the
same rows.  It takes a few minutes, most of it in mpmath, so it is not
part of the test suite.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schoenberg import matrices, rootfind  # noqa: E402
from schoenberg.errors import ConvergenceError  # noqa: E402
from schoenberg.poly import derivative, from_roots  # noqa: E402

CLASSES = ("gaussian", "unit-modulus", "derivative", "half-clustered", "char-poly", "wilkinson")
DEGREES = (6, 16, 32, 48, 63)
CELLS = [(kind, n) for kind in CLASSES[:-1] for n in DEGREES] + [("wilkinson", 20)]
ROWS = 8


def gaussian(rng, n):
    return rng.standard_normal(2 * n).view(complex) / np.sqrt(2)


def coefficients(kind, n, rng):
    """Ascending coefficients of one degree-n row of ``kind``."""
    if kind == "gaussian":
        return from_roots(gaussian(rng, n))
    if kind == "unit-modulus":
        return from_roots(np.exp(2j * np.pi * rng.uniform(size=n)))
    if kind == "derivative":
        return derivative(from_roots(gaussian(rng, n + 1)))
    if kind == "wilkinson":
        return from_roots(np.arange(1.0, n + 1))
    z = gaussian(rng, n)
    if kind == "half-clustered":
        z[: n // 2] = z[0] + 1e-3 * z[: n // 2]
        return from_roots(z)
    with mock.patch.object(matrices, "MAX_CHAR_POLY_ORDER", n):
        return matrices.char_poly(matrices.build_D(z) @ matrices.build_S(n))


def reference_roots(c):
    """The roots of ascending coefficients c to 60 digits, as doubles."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpc(x.real, x.imag) for x in c[::-1]], maxsteps=2000, extraprec=400)
    return np.array([complex(r) for r in roots])


def cell(kind, n):
    """Worst row error, worst gated backward error and failed rows of one 8-row cell."""
    rng = np.random.default_rng([CLASSES.index(kind), n])
    c = np.array([coefficients(kind, n, rng) for _ in range(ROWS)])
    failed = np.zeros(ROWS, dtype=bool)
    try:
        roots = rootfind.find_roots_batch(c)
    except ConvergenceError as err:
        roots, failed[err.rows] = err.best, True
    p, _, e = rootfind._eval_with_bound(c[~failed], roots[~failed])
    backward = np.divide(np.abs(p), e, out=np.zeros(p.shape), where=p != 0)
    errors = [
        rootfind.match_multisets(r, ref) / max(1.0, np.abs(ref).max())
        for r, ref in zip(roots[~failed], (reference_roots(row) for row in c[~failed]))
    ]
    return max(errors, default=np.nan), np.max(backward, initial=0.0), int(failed.sum())


def main():
    print("| class | n | worst error | worst backward error | failed rows |")
    print("|---|---|---|---|---|")
    for kind, n in CELLS:
        error, backward, failed = cell(kind, n)
        print(f"| {kind} | {n} | {error:.1e} | {backward:.1e} | {failed} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
