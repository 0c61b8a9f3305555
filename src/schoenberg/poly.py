"""Complex polynomials built from their zeros.

Conventions used throughout the library:

* a *root configuration* is a 1-D complex array ``z`` of length n >= 2,
  the zeros of the monic polynomial ``prod (x - z_j)``;
* polynomial coefficients are stored ascending, constant term first, so
  ``coeffs[k]`` multiplies ``x**k`` and ``coeffs[-1]`` is the leading
  coefficient (exactly 1 for polynomials built from roots);
* every function accepts a trailing batch: arrays of shape ``(..., n)``
  are treated as stacks of configurations and give stacked results.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "as_zeros",
    "from_roots",
    "derivative",
    "polyval",
    "elementary_symmetric",
    "elementary_symmetric_all",
    "recenter",
    "centroid_residual",
    "is_collinear",
]


def as_zeros(zeros, min_length: int = 2) -> np.ndarray:
    """Validate and return a root configuration as a complex array.

    Entries must be finite and the trailing axis must have length at least
    ``min_length`` (2 by default: a degree-1 polynomial has no critical
    point to study).
    """
    z = np.asarray(zeros, dtype=complex)
    if z.ndim == 0 or z.shape[-1] < min_length:
        raise InvalidInputError(
            f"need at least {min_length} zeros, got shape {np.shape(zeros)}"
        )
    if not np.isfinite(z).all():
        raise InvalidInputError("zeros must be finite (no NaN or infinity)")
    return z


def from_roots(zeros) -> np.ndarray:
    """Ascending coefficients of the monic polynomial with the given zeros.

    The coefficient of ``x**(n-k)`` is ``(-1)**k e_k(zeros) = e_k(-zeros)``,
    so this is :func:`elementary_symmetric_all` of the negated zeros,
    reversed: the linear factors are multiplied in input order (no
    sorting), so the result is deterministic; reordering the zeros changes
    the rounding by at most a few ulps.
    """
    return elementary_symmetric_all(-as_zeros(zeros))[..., ::-1]


def derivative(coeffs) -> np.ndarray:
    """Term-by-term derivative; degree drops by exactly one.

    A constant polynomial returns the zero polynomial ``[0]`` (degenerate,
    there is nothing to differentiate).
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape[-1] <= 1:
        return np.zeros(c.shape[:-1] + (1,), dtype=complex)
    k = np.arange(1, c.shape[-1])
    return c[..., 1:] * k


def polyval(coeffs, x) -> np.ndarray:
    """Evaluate ascending-coefficient polynomials by Horner's rule.

    ``coeffs`` has shape ``(..., d+1)`` and ``x`` any shape broadcastable
    against the batch axes of ``coeffs``.
    """
    c = np.asarray(coeffs, dtype=complex)
    x = np.asarray(x, dtype=complex)
    out = np.broadcast_arrays(c[..., -1], x)[0].copy()
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * x + c[..., k]
    return out


def elementary_symmetric_all(values) -> np.ndarray:
    """All elementary symmetric functions e_0..e_m of the trailing axis.

    Uses the running product expansion of ``prod (1 + v_j t)`` (stable for
    mixed-magnitude inputs, unlike the Newton-identity route).  ``e_0`` is
    always 1.
    """
    v = np.asarray(values)
    if not np.iscomplexobj(v):
        v = v.astype(float)
    m = v.shape[-1]
    e = np.zeros(v.shape[:-1] + (m + 1,), dtype=v.dtype)
    e[..., 0] = 1.0
    for j in range(m):
        e[..., 1 : j + 2] = e[..., 1 : j + 2] + v[..., j, np.newaxis] * e[..., : j + 1]
    return e


def elementary_symmetric(values, k: int):
    """The k-th elementary symmetric function of a list of scalars."""
    v = np.asarray(values)
    m = v.shape[-1]
    if not 0 <= k <= m:
        raise InvalidInputError(f"elementary symmetric index {k} out of range 0..{m}")
    return elementary_symmetric_all(v)[..., k]


def recenter(zeros) -> np.ndarray:
    """Translate a configuration so its centroid sits at the origin.

    Idempotent up to round-off, with ``sum(z) == 0`` to machine precision.
    The centroid is formed in the zeros' ``_frame``: finite for finite zeros.
    """
    x, e = _frame(as_zeros(zeros))
    return _frame(x - np.mean(x, axis=-1, keepdims=True), -e)[0]


def centroid_residual(zeros):
    """Scaled centroid magnitude ``|sum z| / max |z|``, 0 for all-zero zeros.

    Taken in the zeros' ``_frame``, so it is the same at every scale.  Gate for the inequalities
    that assume a centered configuration: values at or below ``config.TOL_CENTER`` count as centered.
    """
    u, _ = _frame(as_zeros(zeros))
    size = np.max(np.abs(u), axis=-1)
    res = np.divide(np.abs(np.sum(u, axis=-1)), size, out=np.zeros_like(size), where=size > 0)
    return float(res) if res.ndim == 0 else res


def _frame(z, e=None) -> tuple:
    """``(2**e z, e)`` for complex ``z``, exact where 2**e z is normal; e defaults to each row's frame, its largest |re| or |im| in [1/2, 1)."""
    x = np.ascontiguousarray(z).view(float)
    e = -np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1] if e is None else e
    return np.ldexp(x, e).view(complex), e


def is_collinear(zeros, tol: float = 1e-10) -> bool:
    """True when all zeros lie on one straight line in the complex plane.

    Checks that every ratio ``(z_j - z_0) / (z_ref - z_0)``, taken in the zeros' ``_frame`` so
    alike at every scale, is real to ``tol``, where ``z_ref`` is the point farthest from ``z_0``; a
    configuration of coincident points counts as collinear.
    """
    z = as_zeros(zeros)
    if z.ndim != 1:
        raise InvalidInputError("is_collinear expects a single configuration")
    z, _ = _frame(z)
    d = z - z[0]
    scale = np.max(np.abs(z))
    ref = np.argmax(np.abs(d))
    if abs(d[ref]) <= tol * scale:
        return True
    r = d / d[ref]
    return bool(np.all(np.abs(r.imag) <= tol * np.maximum(1.0, np.abs(r))))
