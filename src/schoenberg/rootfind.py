"""Critical points and polynomial roots, both as LAPACK eigenvalues.

The critical points of p(z) = prod (z - z_j) are the spectrum of the
compression Q^T diag(z) Q, Q an orthonormal basis of the complement of
the all-ones vector (Pereira 2003; Malamud 2005).
:func:`critical_points_batch` takes LAPACK's eigenvalues w for u = (x - c) / s,
x = 2**e z the zeros in their frame (each row's largest |re| or |im| in [1/2, 1)),
c the centroid and s = max |x - c|, and returns 2**-e (c + s w).  So every finite
row solves, the points of 2**k z are those of z times 2**k, rounded once, and no
coefficients of p', starting points or retries are needed.  LAPACK's zgeev is called
directly, through the numpy gufunc behind ``np.linalg.eigvals``
(:func:`_eigvals`): a matrix it cannot converge leaves NaN points in its
own row, which then fails the gate, while its batch mates are solved as
if alone.  One Newton step on
f(x) = sum 1/(x - u_j) = p'(x)/p(x) polishes each point where it lowers
the backward error |f(w)| / sum |w - u_j|^-2, which must pass ``tol_root``.
One pass over the w - u_j gives the error, the step and that denominator,
from which the snap onto repeated zeros bounds each point's distance to them.

:func:`find_roots_batch` solves general polynomials from their coefficients
(``matrices.eigenvalues`` of characteristic polynomials) in each row's frame: with E_j the exponent
of c_j and k = -floor((E_0 - E_d) / d), it solves c_j 2**(k (d - j)) for y = 2**k x, whose geometric
mean modulus |c_0 / c_d|**(1/d) is within a factor 4 of 1, so the roots of 2**k z are those of z
times 2**k, bit for bit.  The roots are :func:`_eigvals` of the framed row's companion matrix (ones
on the subdiagonal, -c_j / c_d in the last column), which LAPACK balances, so they are exact roots of
nearby coefficients (Edelman & Murakami 1995); four Newton steps polish each.  Each root r passes the
backward-error gate |p(r)| / e(r) <= ``tol_root``, e the running bound of the Horner sums.  A cluster
of m roots gets the usual reduced accuracy tol**(1/m); an exactly zero low-order coefficient block is
split off first (lossless).

Everything is deterministic, and a row solved inside a batch yields
bit-identical results to the same row solved alone.  That lets both
solvers, the moduli solve and the multiset matching split a large stack
into row blocks (:func:`_in_blocks`) whose (rows, k, k) work arrays hold
at most ``_BUDGET`` elements each, so their memory is bounded in bytes,
not in rows, at any degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .config import TOL_ROOT
from .errors import ConvergenceError, InvalidInputError
from .poly import _frame, as_zeros

__all__ = [
    "RootSolverSettings",
    "find_roots",
    "find_roots_batch",
    "critical_points",
    "critical_points_batch",
    "moduli_critical_points",
    "moduli_critical_points_batch",
    "match_multisets",
    "match_multisets_batch",
    "cluster_sizes",
]

_EPS = float(np.finfo(float).eps)

# Elements of each (rows, k, k) work array of one kernel call: 2**14
# complex values are 256 KiB, whatever the degree k.
_BUDGET = 1 << 14


def _in_blocks(solve, size, *stacks, budget=None):
    """``solve(*stacks)`` row block by row block, at most ``max(1, budget // size)`` rows each, joined.

    ``size`` elements is a row's work, ``budget`` (``_BUDGET`` unless given) a block's.  ``solve`` maps
    (rows, ...) stacks to rows, each row on its own, so the joined result is that of one call.
    """
    step = max(1, (budget or _BUDGET) // max(1, size))
    rows = stacks[0].shape[0]
    if rows <= step:
        return solve(*stacks)
    parts = [solve(*(stack[lo : lo + step] for stack in stacks)) for lo in range(0, rows, step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


@dataclass(frozen=True)
class RootSolverSettings:
    """Acceptance tolerance of the root solvers.

    ``tol_root`` is the backward-error gate of :func:`critical_points_batch`
    and of :func:`find_roots_batch`.
    """

    tol_root: float = TOL_ROOT

    def __post_init__(self):
        if not 0 < self.tol_root < np.inf:
            raise InvalidInputError(f"tol_root must be positive and finite, got {self.tol_root!r}")

    def tightened(self) -> "RootSolverSettings":
        """The gate tightened 100x, for re-verifying counterexample candidates."""
        return RootSolverSettings(tol_root=self.tol_root / 100.0)


DEFAULT_SETTINGS = RootSolverSettings()


def _as_coeff_batch(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 1:
        c = c[np.newaxis, :]
    if c.ndim != 2 or c.shape[-1] < 1:
        raise InvalidInputError(f"bad coefficient array shape {np.shape(coeffs)}")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coefficients must be finite")
    if np.any(c[:, -1] == 0):
        raise InvalidInputError("leading coefficient must be nonzero")
    return c


def _eval_with_bound(coeffs, x):
    """Horner evaluation of p, p' and the running magnitude bound.

    The bound ``e`` tracks the size of the intermediate sums, so
    ``_EPS * e`` estimates the attainable round-off floor of ``|p(x)|``.
    """
    ax = np.abs(x)
    p = np.empty_like(x)
    p[...] = coeffs[..., -1, np.newaxis]
    dp = np.zeros_like(x)
    e = np.abs(p)
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        np.multiply(dp, x, out=dp)
        dp += p
        np.multiply(p, x, out=p)
        p += coeffs[..., k, np.newaxis]
        np.multiply(e, ax, out=e)
        e += np.abs(p)
    return p, dp, e


def _newton_polish(coeffs, x):
    """Four Newton steps from x, keeping each root's iterate of least |p|."""
    p, dp, _ = _eval_with_bound(coeffs, x)
    best_x, best_p = x, np.abs(p)
    for _ in range(4):
        step = np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
        x = best_x - step
        p, dp, _ = _eval_with_bound(coeffs, x)
        better = np.abs(p) < best_p
        best_x = np.where(better, x, best_x)
        best_p = np.where(better, np.abs(p), best_p)
    return best_x


def _solve_uniform(coeffs):
    """Roots of a batch of same-degree polynomials with c_0 != 0, not gated, each row solved in its frame (see above)."""
    d = coeffs.shape[1] - 1
    e = _frame(coeffs[:, ::d, np.newaxis])[1]  # -E_0 and -E_d
    k = -((e[:, 1] - e[:, 0]) // d)
    c = _frame(coeffs[:, :, np.newaxis], (k * np.arange(d, -1, -1))[:, :, np.newaxis])[0][:, :, 0]
    companion = np.zeros((c.shape[0], d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -c[:, :-1] / c[:, -1:]
    return _frame(_newton_polish(c, _eigvals(companion)), -k)[0]


def find_roots_batch(coeffs, settings: RootSolverSettings | None = None):
    """Roots (with multiplicity) of a batch of same-degree polynomials.

    ``coeffs`` has shape (b, d+1), ascending order; returns shape (b, d).  Each row is solved in its
    frame, so coefficients of 2**k-scaled roots give 2**k times the roots, bit for bit, wherever the
    framed coefficients are normal.  Row blocks of the element budget bound the (rows, d, d) companion
    matrices.  Raises :class:`ConvergenceError` if any root r fails the backward-error test
    ``|p(r)| / e(r) <= tol_root``, e the running bound of the Horner sums (0 where p(r) = 0); the
    error carries the polished roots of every row, the worst backward error and the indices of the
    failed rows.  A row whose evaluation overflows, or whose matrix LAPACK cannot converge, fails that
    test with backward error inf, and is reported only through the error, never by a numpy warning.
    """
    settings = settings or DEFAULT_SETTINGS
    c = _as_coeff_batch(coeffs)
    b, d1 = c.shape
    d = d1 - 1
    roots = np.zeros((b, d), dtype=complex)
    if d == 0:
        return roots
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Split off exact roots at the origin (zero low-order coefficients).
        first_nz = np.argmax(c != 0, axis=1)
        for m in np.unique(first_nz):
            rows = np.flatnonzero(first_nz == m)
            sub = c[rows][:, m:]
            if sub.shape[1] > 1:
                roots[rows[:, np.newaxis], np.arange(d - m)] = _in_blocks(_solve_uniform, (d - m) ** 2, sub)
        p, _, e = _eval_with_bound(c, roots)
        # NaN (inf / inf, or an overflowed p) where the evaluation overflows: the error is unbounded.
        error = np.max(np.divide(np.abs(p), e, out=np.zeros(p.shape), where=p != 0), axis=1)
        error = np.nan_to_num(error, nan=np.inf)
    failed = np.flatnonzero(~(error <= settings.tol_root))
    if failed.size:
        worst = float(np.max(error))
        raise ConvergenceError(
            f"root backward error {worst:.3e} above tol_root {settings.tol_root:.1e} in {failed.size} of {b} rows",
            best=roots,
            residual=worst,
            rows=failed,
        )
    return roots


def find_roots(coeffs, settings: RootSolverSettings | None = None):
    """Roots of a single polynomial given by ascending coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise InvalidInputError("find_roots expects a single coefficient vector")
    if c.shape[0] < 2:
        raise InvalidInputError("need degree >= 1 to have roots")
    return find_roots_batch(c[np.newaxis, :], settings)[0]


def critical_points(zeros, settings: RootSolverSettings | None = None):
    """Critical points (zeros of p') of the monic polynomial with given zeros.

    Returns exactly n - 1 points with multiplicity.  With u = (2**e z - c) / s the normalized zeros
    of the zeros' frame (finite for all finite zeros) and f(x) = sum 1/(x - u_j) = p'(x)/p(x), each
    point w passes the backward-error gate ``|f(w)| / sum |w - u_j|**-2 <= tol_root``: to first order,
    w is a critical point of zeros within ``tol_root * 2**-e s`` of z.  The error is 0 where w equals a
    zero, then a repeated one.  This is :func:`critical_points_batch` on a batch of one.
    """
    z = as_zeros(zeros)
    if z.ndim != 1:
        raise InvalidInputError("critical_points expects a single configuration; use critical_points_batch")
    return critical_points_batch(z[np.newaxis, :], settings)[0]


def critical_points_batch(zs, settings: RootSolverSettings | None = None):
    """Critical points of a (b, n) stack of configurations, or of one as a batch of one; returns (b, n-1).

    Each row is solved in its own frame, so every finite row has points.  Each kernel
    call solves at most ``max(1, _BUDGET // n**2)`` rows, which bounds its
    (rows, n - 1, n) work arrays in bytes.  If any row fails the gate of
    :func:`critical_points`, the :class:`ConvergenceError` carries all b rows
    of points, the worst backward error and the indices of the failed rows.
    """
    settings = settings or DEFAULT_SETTINGS
    z = np.atleast_2d(as_zeros(zs))
    out, error = _in_blocks(lambda block: _compression_eigenvalues(block, settings.tol_root), z.shape[1] ** 2, z)
    worst = np.maximum.reduce(error, axis=None, initial=0.0)
    if not worst <= settings.tol_root:
        failed = np.flatnonzero(~(error <= settings.tol_root))
        raise ConvergenceError(
            f"critical point backward error {worst:.3e} above tol_root in {failed.size} of {z.shape[0]} rows",
            best=out,
            residual=float(worst),
            rows=failed,
        )
    return out


def _eigvals(m):
    """Eigenvalues of a (b, k, k) stack of complex matrices: LAPACK's zgeev, by numpy's gufunc.

    This is what ``np.linalg.eigvals`` calls, without its wrapper's checks,
    which the kernel's matrices pass by construction (square, complex and
    finite), and without its error state: a matrix that LAPACK cannot
    converge gets NaN eigenvalues and raises the FP-invalid flag, where
    the wrapper would raise one ``LinAlgError`` for the whole stack.
    """
    return _umath_linalg.eigvals(m, signature="D->D")


@lru_cache(maxsize=64)
def _complement_basis(n: int) -> np.ndarray:
    """Orthonormal n x (n-1) basis Q of the complement of the all-ones vector.

    Columns 2..n of the Householder reflector I - 2 v v^T / v^T v with
    v = 1 + sqrt(n) e_1, which maps e_1 to -1/sqrt(n); hence Q Q^T = I - J/n.
    """
    v = np.ones(n)
    v[0] += np.sqrt(n)
    q = (np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v))[:, 1:]
    q.flags.writeable = False
    return q


def _normalize(z):
    """Centroid c, radius s = max |x - c|, u = (x - c) / s and e of each row x = 2**e z of a (b, n) stack's ``_frame``.

    All are finite for a finite row; u is ldexp(x - c, -k) / m for s = m 2**k, m in [1/2, 1), so no 1/s overflows.
    """
    x, e = _frame(z)
    c = np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    d = np.subtract(x, c, order="C")
    s = np.maximum.reduce(np.abs(d), axis=1, keepdims=True)
    m, k = np.frexp(s)  # m = 0 where s = 0: u is 0 there, and c + s w is c
    return c, s, np.ldexp(d.view(float), -k).view(complex) / np.maximum(m, 0.5), e


def _backward_error(u, w, newton=True):
    """Backward error of each point w as a critical point of the zeros u, its Newton step and its weight.

    With f(x) = sum 1/(x - u_j), the error is |f(w)| / sum |w - u_j|**-2,
    its limit 0 where w equals a zero.  The step f/f' is 0 there, and None
    unless ``newton``.  The weight is that denominator, NaN at a zero;
    below d**-2, w is farther than d from all zeros.
    """
    inv = w[..., np.newaxis] - u[..., np.newaxis, :]
    np.reciprocal(inv, out=inv)
    f = np.add.reduce(inv, axis=-1)
    square = np.square(inv.view(float))  # re**2 and im**2 side by side
    weight = np.add.reduce(square[..., 0::2] + square[..., 1::2], axis=-1)
    error = np.abs(f) / weight
    step = -f / np.add.reduce(np.multiply(inv, inv, out=inv), axis=-1) if newton else None
    # The weights are >= 0, so their sum is NaN only if one is.  1/0 is NaN:
    # some w equals a zero, or w is NaN.
    if math.isnan(np.add.reduce(weight, axis=None)):
        on_zero = (w[..., np.newaxis] == u[..., np.newaxis, :]).any(axis=-1)
        error[on_zero] = 0.0
        if newton:
            step[on_zero] = 0.0
    return error, step, weight


def _compression_eigenvalues(z, tol):
    """Critical points of a (b, n) stack and the worst backward error of each row."""
    n = z.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c, s, u, e = _normalize(z)
        q = _complement_basis(n)
        w = _eigvals((q.T * u[:, np.newaxis, :]) @ q)
        error, step, weight = _backward_error(u, w)
        polished = w - step
        polished_error, _, polished_weight = _backward_error(u, polished, newton=False)
    better = polished_error < error
    np.copyto(w, polished, where=better)
    np.copyto(error, polished_error, where=better)
    np.copyto(weight, polished_weight, where=better)
    error = np.maximum.reduce(error, axis=1)
    # An (n-1)-fold eigenvalue is resolved only to about eps**(1/(n-1)).
    # Points that close to the centroid are read as c itself, n - 1 times,
    # when the power sums sum u_j**k, k < n, vanish to tol: c is then the
    # (n-1)-fold critical point of a regular n-gon that close to u.
    radius = np.abs(w)
    limit = 2.0 * (n * _EPS) ** (1.0 / (n - 1))
    if np.fmin.reduce(radius, axis=None, initial=np.inf) <= limit:  # some point is that close (fmin skips NaN)
        near = (radius.max(axis=1) <= limit).nonzero()[0]
        powers = np.cumprod(np.repeat(u[near, np.newaxis, :], n - 1, axis=1), axis=1)
        moment = np.abs(powers.sum(axis=2)).max(axis=1) / n
        polygon = moment <= tol
        w[near[polygon]] = 0.0
        error[near[polygon]] = moment[polygon]
        weight[near[polygon]] = np.inf
    # A zero of multiplicity m is a critical point m - 1 times, which the
    # eigenvalues find to round-off: a point within 8 n eps of a zero is it.
    # Only a point whose weight allows a zero within twice that is measured;
    # the largest weight is NaN if some point is on a zero.
    out = _frame(c + s * w, -e)[0]
    snap = 8 * n * _EPS
    if not np.maximum.reduce(weight, axis=None, initial=0.0) < (2.0 * snap) ** -2:
        i, k = (~(weight < (2.0 * snap) ** -2)).nonzero()
        gap = np.abs(w[i, k, np.newaxis] - u[i])
        j = gap.argmin(axis=1)
        on_zero = gap[np.arange(i.size), j] <= snap
        out[i[on_zero], k[on_zero]] = z[i[on_zero], j[on_zero]]
    return out, error


def moduli_critical_points(zeros):
    """Critical points of the moduli polynomial q(z) = prod (z - |z_j|).

    They are the eigenvalues of the real symmetric compression
    Q^T diag(|z|) Q.  Cauchy interlacing, the matrix form of the Rolle
    argument, puts one in each gap between consecutive sorted moduli, and
    a modulus of multiplicity m is one m - 1 times.  The result is real,
    nonnegative and sorted descending.
    """
    z = as_zeros(zeros)
    if z.ndim != 1:
        raise InvalidInputError("moduli_critical_points expects a single configuration")
    return moduli_critical_points_batch(z[np.newaxis, :])[0]


def moduli_critical_points_batch(zs):
    """Batched moduli-polynomial critical points; returns (b, n-1) floats.

    Like the critical points, a large stack is solved in row blocks of
    the element budget.
    """
    z = np.atleast_2d(as_zeros(zs))
    return _in_blocks(_moduli_eigenvalues, z.shape[1] ** 2, z)


def _moduli_eigenvalues(z):
    x, e = _frame(z)  # in the frame, LAPACK scales no matrix by a factor of its own
    q = _complement_basis(z.shape[1])
    xi = np.linalg.eigvalsh((q.T * np.abs(x)[:, np.newaxis, :]) @ q)
    with np.errstate(over="ignore"):  # a point past the double range is inf, never a numpy warning
        return np.ldexp(np.maximum(xi[:, ::-1], 0.0), -e)


def match_multisets(a, b) -> float:
    """Greedy nearest-pair matching distance between two equal-size multisets.

    Repeatedly pairs the globally closest unmatched points and returns the
    largest pairing distance; 0 iff the multisets are identical.
    """
    av = np.asarray(a, dtype=complex).ravel()
    bv = np.asarray(b, dtype=complex).ravel()
    if av.size != bv.size:
        raise InvalidInputError(f"multiset size mismatch: {av.size} vs {bv.size}")
    return float(match_multisets_batch(av[np.newaxis, :], bv[np.newaxis, :])[0])


def match_multisets_batch(a, b) -> np.ndarray:
    """Row-wise :func:`match_multisets` of two (b, m) stacks; returns (b,) distances."""
    av = np.asarray(a, dtype=complex)
    bv = np.asarray(b, dtype=complex)
    if av.ndim != 2 or av.shape != bv.shape:
        raise InvalidInputError(f"expected two (b, m) stacks of one shape, got {av.shape} and {bv.shape}")
    # The (rows, m, m) distances are matched a row block at a time.
    return _in_blocks(_greedy_match, av.shape[1] ** 2, av, bv)


def _greedy_match(av, bv):
    rows, m = av.shape
    dist = np.abs(av[:, :, np.newaxis] - bv[:, np.newaxis, :])
    worst = np.zeros(rows)
    r = np.arange(rows)
    for _ in range(m):
        i, j = np.divmod(np.argmin(dist.reshape(rows, m * m), axis=1), m)
        worst = np.maximum(worst, dist[r, i, j])
        dist[r, i, :] = np.inf
        dist[r, :, j] = np.inf
    return worst


def cluster_sizes(points, tol: float) -> np.ndarray:
    """Size of the tolerance-cluster containing each point.

    Points within ``tol`` of each other (transitively) form one cluster; a
    cluster of size m limits attainable root accuracy to about tol_root**(1/m),
    so matching tolerances should be loosened accordingly.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    reach = (np.abs(pts[:, np.newaxis] - pts[np.newaxis, :]) <= tol).astype(int)
    # Squaring doubles the path length covered: the transitive closure.
    for _ in range(int(np.ceil(np.log2(max(pts.size, 2))))):
        reach = (reach @ reach > 0).astype(int)
    return reach.sum(axis=1)
