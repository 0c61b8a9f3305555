"""Simultaneous complex root finding and critical-point extraction.

The solver is Aberth-Ehrlich iteration on all roots at once, initialized
on a circle just outside the Cauchy root bound with a seeded angular
offset (to break the symmetry of configurations like roots of unity),
followed by a short Newton polish.  There is no cluster deflation: the
simultaneous iteration handles multiple roots, at the usual reduced
accuracy tol**(1/m) for a cluster of size m.  Roots at the origin are the
one exception: an exactly zero low-order coefficient block is split off
before iterating, which is lossless.

Everything is deterministic given ``RootSolverSettings.rng_seed``, and a
polynomial solved inside a batch yields bit-identical roots to the same
polynomial solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SEED, TOL_ROOT
from .errors import ConvergenceError, InvalidInputError
from .poly import as_zeros, derivative, from_roots

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

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RootSolverSettings:
    """Knobs of the simultaneous root solver."""

    max_iterations: int = 250
    tol_root: float = TOL_ROOT
    initial_radius_factor: float = 0.25
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.tol_root <= 0:
            raise InvalidInputError("tol_root must be positive")

    def tightened(self, factor: float = 100.0) -> "RootSolverSettings":
        """Same settings with tol_root divided by ``factor`` (re-verification)."""
        return RootSolverSettings(
            max_iterations=2 * self.max_iterations,
            tol_root=self.tol_root / factor,
            initial_radius_factor=self.initial_radius_factor,
            rng_seed=self.rng_seed,
        )


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
        dp = dp * x + p
        p = p * x + coeffs[..., k, np.newaxis]
        e = e * ax + np.abs(p)
    return p, dp, e


def _cauchy_bound(coeffs):
    """Per-polynomial bound: every root has modulus < 1 + max|c_k / c_d|."""
    d = coeffs.shape[-1] - 1
    if d == 0:
        return np.zeros(coeffs.shape[:-1])
    return 1.0 + np.max(np.abs(coeffs[..., :-1] / coeffs[..., -1:]), axis=-1)


def residual_scale(coeffs):
    """Residual normalization ``|c_d| * max(1, cauchy bound)**d``.

    ``|p(r)| <= tol_root * residual_scale`` is the acceptance test for a
    computed root r; the scale accounts for how large p legitimately is on
    the disk that contains all roots.
    """
    c = np.asarray(coeffs, dtype=complex)
    d = c.shape[-1] - 1
    return np.abs(c[..., -1]) * np.maximum(1.0, _cauchy_bound(c)) ** d


def _initial_estimates(coeffs, settings):
    b, d1 = coeffs.shape
    d = d1 - 1
    radius = (1.0 + settings.initial_radius_factor) * np.maximum(
        _cauchy_bound(coeffs), 1e-3
    )
    rng = np.random.Generator(np.random.PCG64(settings.rng_seed))
    # One global offset: independent of batch size, so batch == single.
    offset = rng.uniform(0.0, 2.0 * np.pi)
    angles = 2.0 * np.pi * np.arange(d) / d + offset
    return radius[:, np.newaxis] * np.exp(1j * angles)[np.newaxis, :]


def _aberth_iterate(coeffs, x, settings):
    """Run the simultaneous iteration; returns the final estimates.

    A polynomial leaves the iteration once all its estimates are at the
    round-off floor or stalled twice running, exactly where it would stop if
    solved alone, so its roots never depend on the rest of the batch.
    """
    d = x.shape[-1]
    out = np.empty_like(x)
    active = np.arange(x.shape[0])
    stalled_prev = np.zeros(x.shape, dtype=bool)
    for _ in range(settings.max_iterations):
        p, dp, e = _eval_with_bound(coeffs, x)
        at_floor = np.abs(p) <= 4.0 * _EPS * e
        done = at_floor.all(axis=1)
        if done.any():
            out[active[done]] = x[done]
            if done.all():
                return out
            moving = ~done
            active, coeffs, x, p, dp, at_floor, stalled_prev = (
                v[moving] for v in (active, coeffs, x, p, dp, at_floor, stalled_prev)
            )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
            pair = x[:, :, np.newaxis] - x[:, np.newaxis, :]
            inv = np.where(pair != 0, 1.0 / np.where(pair == 0, 1.0, pair), 0.0)
            repulse = inv.sum(axis=2)
            denom = 1.0 - newton * repulse
            corr = np.where(denom != 0, newton / np.where(denom == 0, 1.0, denom), newton)
        # Coincident estimates exert no repulsion; spread them slightly.
        collided = (pair == 0).sum(axis=2) > 1
        if np.any(collided):
            nudge = (1.0 + np.abs(x)) * 1e-12 * np.exp(2j * np.pi * np.arange(d) / d)
            x = np.where(collided, x + nudge, x)
        corr = np.where(at_floor, 0.0, corr)
        x = x - corr
        stalled = np.abs(corr) <= 1e-16 * (1.0 + np.abs(x))
        done = (at_floor | (stalled & stalled_prev)).all(axis=1)
        if done.any():
            out[active[done]] = x[done]
            if done.all():
                return out
            moving = ~done
            active, coeffs, x, stalled = (v[moving] for v in (active, coeffs, x, stalled))
        stalled_prev = stalled
    out[active] = x
    return out


def _newton_polish(coeffs, x, steps: int = 2):
    p, dp, _ = _eval_with_bound(coeffs, x)
    best_x, best_p = x, np.abs(p)
    for _ in range(steps):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        x = best_x - step
        p, dp, _ = _eval_with_bound(coeffs, x)
        better = np.abs(p) < best_p
        best_x = np.where(better, x, best_x)
        best_p = np.where(better, np.abs(p), best_p)
    return best_x


def _solve_uniform(coeffs, settings, initial=None):
    """Roots of a batch of same-degree polynomials, no residual enforcement."""
    b, d1 = coeffs.shape
    d = d1 - 1
    if d == 0:
        return np.zeros((b, 0), dtype=complex)
    if d == 1:
        return (-coeffs[:, :1] / coeffs[:, 1:]).astype(complex)
    x = _initial_estimates(coeffs, settings) if initial is None else np.array(initial, dtype=complex)
    x = _aberth_iterate(coeffs, x, settings)
    return _newton_polish(coeffs, x)


def find_roots_batch(coeffs, settings: RootSolverSettings | None = None, initial=None):
    """Roots (with multiplicity) of a batch of same-degree polynomials.

    ``coeffs`` has shape (b, d+1), ascending order; returns shape (b, d).
    Raises :class:`ConvergenceError` if any polynomial fails the residual
    test ``|p(r)| <= tol_root * residual_scale``; the error carries the
    best iterates of every row, the worst scaled residual and the indices
    of the failed rows.
    """
    settings = settings or DEFAULT_SETTINGS
    c = _as_coeff_batch(coeffs)
    b, d1 = c.shape
    d = d1 - 1
    roots = np.zeros((b, d), dtype=complex)
    if d == 0:
        return roots
    if initial is not None:
        roots = _solve_uniform(c, settings, initial=np.atleast_2d(initial))
    else:
        # Split off exact roots at the origin (zero low-order coefficients).
        first_nz = np.argmax(c != 0, axis=1)
        for m in np.unique(first_nz):
            rows = np.flatnonzero(first_nz == m)
            sub = c[rows][:, m:]
            if sub.shape[1] > 1:
                roots[rows[:, np.newaxis], np.arange(d - m)] = _solve_uniform(sub, settings)
    p, _, _ = _eval_with_bound(c, roots)
    scaled = np.max(np.abs(p), axis=1) / residual_scale(c)
    failed = np.flatnonzero(~(scaled <= settings.tol_root))
    if failed.size:
        worst = float(np.max(scaled))
        raise ConvergenceError(
            f"root iteration residual {worst:.3e} above tol_root {settings.tol_root:.1e} "
            f"after {settings.max_iterations} iterations in {failed.size} of {b} rows",
            best=roots,
            residual=worst,
            rows=failed,
        )
    return roots


def find_roots(coeffs, settings: RootSolverSettings | None = None, initial=None):
    """Roots of a single polynomial given by ascending coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise InvalidInputError("find_roots expects a single coefficient vector")
    if c.shape[0] < 2:
        raise InvalidInputError("need degree >= 1 to have roots")
    init = None if initial is None else np.asarray(initial, dtype=complex)[np.newaxis, :]
    return find_roots_batch(c[np.newaxis, :], settings, initial=init)[0]


def critical_points(zeros, settings: RootSolverSettings | None = None, initial=None):
    """Critical points (zeros of p') of the monic polynomial with given zeros.

    Returns exactly n - 1 points with multiplicity.  Each computed point w
    satisfies ``|p'(w)| <= tol_root * max(1, max|z|)**(n-1)``.
    """
    settings = settings or DEFAULT_SETTINGS
    z = as_zeros(zeros)
    if z.ndim != 1:
        raise InvalidInputError("critical_points expects a single configuration; use critical_points_batch")
    return critical_points_batch(z[np.newaxis, :], settings, initial=initial)[0]


def critical_points_batch(zs, settings: RootSolverSettings | None = None, chunk: int = 8192, initial=None):
    """Critical points of a (b, n) stack of configurations; returns (b, n-1).

    Every row is solved; if any fails, the :class:`ConvergenceError` carries
    all b rows of iterates and the indices of the failed ones.
    """
    settings = settings or DEFAULT_SETTINGS
    z = as_zeros(zs)
    if z.ndim == 1:
        z = z[np.newaxis, :]
    b, n = z.shape
    out = np.empty((b, n - 1), dtype=complex)
    scaled = np.empty(b)
    failed = np.zeros(b, dtype=bool)
    for lo in range(0, b, chunk):
        hi = min(lo + chunk, b)
        zc = z[lo:hi]
        dp = derivative(from_roots(zc))
        init = None if initial is None else np.atleast_2d(initial)[lo:hi]
        try:
            w = find_roots_batch(dp, settings, initial=init)
        except ConvergenceError as err:
            w = err.best
            failed[lo + err.rows] = True
        # Enforce the configuration-scale residual bound, which is tighter
        # than the generic coefficient-based one checked by the solver.
        pv, _, _ = _eval_with_bound(dp, w)
        scale = np.maximum(1.0, np.max(np.abs(zc), axis=1)) ** (n - 1)
        scaled[lo:hi] = np.max(np.abs(pv), axis=1) / scale
        out[lo:hi] = w
    failed = np.flatnonzero(failed | ~(scaled <= settings.tol_root))
    if failed.size:
        worst = float(np.max(scaled))
        raise ConvergenceError(
            f"critical point residual {worst:.3e} above tol_root in {failed.size} of {b} rows",
            best=out,
            residual=worst,
            rows=failed,
        )
    return out


def moduli_critical_points(zeros, settings: RootSolverSettings | None = None):
    """Critical points of the moduli polynomial q(z) = prod (z - |z_j|).

    All roots of q are real and nonnegative, so Rolle interlacing pins one
    critical point inside each gap between consecutive sorted moduli (and a
    repeated modulus of multiplicity m is itself a critical point m - 1
    times).  Each interior point is the unique sign change of q'/q, located
    by bisection; the result is exactly real and sorted descending.
    """
    z = as_zeros(zeros)
    if z.ndim != 1:
        raise InvalidInputError("moduli_critical_points expects a single configuration")
    return moduli_critical_points_batch(z[np.newaxis, :])[0]


def moduli_critical_points_batch(zs, rel_tol: float = 1e-13, max_steps: int = 120):
    """Batched moduli-polynomial critical points; returns (b, n-1) floats."""
    z = as_zeros(zs)
    if z.ndim == 1:
        z = z[np.newaxis, :]
    r = np.sort(np.abs(z), axis=-1)
    lo = r[:, :-1].copy()
    hi = r[:, 1:].copy()
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        interior = (mid > lo) & (mid < hi) & (hi - lo > rel_tol * np.maximum(1.0, hi))
        if not np.any(interior):
            break
        # q'/q at mid: sum over all moduli of 1/(mid - r_j).  mid is strictly
        # inside a root-free gap, so no term blows up where interior holds.
        diff = mid[:, :, np.newaxis] - r[:, np.newaxis, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            fm = np.where(interior, (1.0 / diff).sum(axis=2), 0.0)
        lo = np.where(interior & (fm > 0), mid, lo)
        hi = np.where(interior & (fm <= 0), mid, hi)
    xi = 0.5 * (lo + hi)
    return np.sort(xi, axis=-1)[:, ::-1]


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
    m = pts.size
    close = np.abs(pts[:, np.newaxis] - pts[np.newaxis, :]) <= tol
    labels = -np.ones(m, dtype=int)
    current = 0
    for i in range(m):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            for k in np.flatnonzero(close[j] & (labels < 0)):
                labels[k] = current
                stack.append(k)
        current += 1
    counts = np.bincount(labels)
    return counts[labels]
