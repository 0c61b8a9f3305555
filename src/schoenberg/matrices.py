"""Dense matrix side of the zero/critical-point correspondence.

The central objects are the diagonal matrix D of the zeros, the rank
(n-1) projection S = I - J/n (J the all-ones matrix), and words in D,
D*, S.  The spectrum of D S is {0} union the critical points, which is
what ties matrix trace inequalities to polynomial geometry; traces of
explicit words serve as brute-force oracles for the closed-form bounds.

Every function that takes a configuration also takes a (b, n) stack of
them and then works slice by slice on (b, n, n) stacks; a single
configuration is a stack of one.  With S = Q Q^T for an orthonormal
basis Q of the complement of the all-ones vector, spec(D S) is
spec(Q^T D Q) union {0}, and ``rootfind.critical_points_batch`` computes
the critical points as exactly those compression eigenvalues, polished,
snapped and gated.  The spectrum check compares them with the raw
eigenvalues of the n x n matrix D S itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError
from .poly import _frame, _unit_frame, as_zeros
from .rootfind import RootSolverSettings, _eigvals, _in_blocks, _normalize, critical_points_batch, find_roots, match_multisets_batch

__all__ = [
    "build_S",
    "build_D",
    "sds_matrix",
    "trace_word",
    "char_poly",
    "eigenvalues",
    "SpectrumComparison",
    "verify_spectrum",
    "is_normal",
]

# Conditioning guard for the characteristic-polynomial recurrence.
MAX_CHAR_POLY_ORDER = 32


def build_S(n: int) -> np.ndarray:
    """The projection S = I - J/n: 1 - 1/n on the diagonal, -1/n elsewhere."""
    if n < 1:
        raise InvalidInputError("matrix order must be at least 1")
    return np.eye(n, dtype=complex) - np.full((n, n), 1.0 / n, dtype=complex)


def _configurations(zeros) -> np.ndarray:
    z = as_zeros(zeros)
    if z.ndim > 2:
        raise InvalidInputError(f"expected a configuration or a (b, n) stack, got shape {z.shape}")
    return z


def build_D(zeros) -> np.ndarray:
    """Diagonal matrix of a root configuration; a (b, n, n) stack for a (b, n) stack."""
    z = _configurations(zeros)
    n = z.shape[-1]
    d = np.zeros(z.shape + (n,), dtype=complex)
    d[..., np.arange(n), np.arange(n)] = z
    return d


def sds_matrix(zeros) -> np.ndarray:
    """The compressed product S D S whose normality encodes collinearity."""
    z = _configurations(zeros)
    s = build_S(z.shape[-1])
    return s @ build_D(z) @ s


def _as_square(m, *, stack: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]:
        what = "a square matrix or a stack of them" if stack else "a square matrix"
        raise InvalidInputError(f"expected {what}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    return a


def trace_word(factors):
    """Trace of the left-to-right product of square matrices.

    Brute-force oracle: the product is carried out by explicit
    multiplication, no algebraic simplification.  A factor is an (n, n)
    matrix or a (b, n, n) stack; stacks multiply slice by slice, a lone
    matrix standing in every slice.  Returns a complex when every factor
    is a matrix, else the (b,) array of the slices' traces.
    """
    mats = [_as_square(f, stack=True) for f in factors]
    if not mats:
        raise InvalidInputError("trace_word needs at least one factor")
    n = mats[0].shape[-1]
    if any(m.shape[-1] != n for m in mats):
        raise InvalidInputError("all factors must have the same order")
    if len({m.shape[0] for m in mats if m.ndim == 3}) > 1:
        raise InvalidInputError("stacked factors must have the same length")
    prod = mats[0]
    for m in mats[1:]:
        prod = prod @ m
    t = np.trace(prod, axis1=-2, axis2=-1)
    return complex(t) if t.ndim == 0 else t


def char_poly(matrix) -> np.ndarray:
    """Monic characteristic polynomial, ascending coefficients.

    Uses the Faddeev-LeVerrier recurrence, which is exact in rational
    arithmetic and adequate in double precision for small orders; orders
    above MAX_CHAR_POLY_ORDER are refused.
    """
    a = _as_square(matrix)
    n = a.shape[0]
    if n > MAX_CHAR_POLY_ORDER:
        raise UnsupportedSizeError(
            f"characteristic polynomial limited to order {MAX_CHAR_POLY_ORDER}, got {n}"
        )
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    eye = np.eye(n, dtype=complex)
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[n - k + 1] * eye
        coeffs[n - k] = -np.trace(a @ mk) / k
    return coeffs


def eigenvalues(matrix, settings: RootSolverSettings | None = None) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial."""
    return find_roots(char_poly(matrix), settings)


@dataclass(frozen=True)
class SpectrumComparison:
    """``matrix_eigenvalues`` of D S against ``expected``, {0} union the solver's critical points.

    For a (b, n) stack the fields are (b, n), (b, n) and (b,) arrays; for
    a single configuration (n,), (n,) and a float.
    """

    matrix_eigenvalues: np.ndarray
    expected: np.ndarray
    max_pair_distance: float | np.ndarray


def verify_spectrum(zeros, settings: RootSolverSettings | None = None) -> SpectrumComparison:
    """Check that D(I - J/n) has spectrum {0} union the critical points.

    Takes one configuration or a (b, n) stack.  The expected side is 0 plus the points of
    ``critical_points_batch``, where the ``verify`` command reads them.  The matrix side is LAPACK's
    eigenvalues of D S for the solver's normalized zeros u = (2**e z - c) / s plus 2: 0 and the
    critical points of u plus 2, all of modulus at least 1 as |u| <= 1.  The least is the structural 0,
    dropped, and the rest map back as 2**-e (c + s (x - 2)); unshifted, a critical point at 0 (zeros z
    and -z) would form a Jordan block with it and lose half its digits.  The report carries each
    configuration's greedy multiset-pairing distance between the sides.  The solves and the pairing run
    in row blocks of the element budget of ``rootfind``, so a large stack does not grow their work arrays.
    """
    z = _configurations(zeros)
    stack = z if z.ndim == 2 else z[np.newaxis, :]
    zero = np.zeros((stack.shape[0], 1), dtype=complex)
    expected = np.concatenate([zero, critical_points_batch(stack, settings)], axis=1)  # first: a row that fails the gate raises
    c, s, u, e = _normalize(stack)
    x = _in_blocks(lambda block: _eigvals(build_D(block + 2) @ build_S(block.shape[1])), stack.shape[1] ** 2, u)
    x = np.take_along_axis(x, np.argsort(np.abs(x), axis=1)[:, 1:], axis=1)
    eigs = np.concatenate([zero, _frame(c + s * (x - 2), -e)[0]], axis=1)
    distance = match_multisets_batch(eigs, expected)
    if z.ndim == 1:
        return SpectrumComparison(eigs[0], expected[0], float(distance[0]))
    return SpectrumComparison(eigs, expected, distance)


def is_normal(matrix, tol: float = 1e-10) -> bool:
    """Commutator test: ||M*M - MM*||_F <= tol * ||M||_F**2.

    For M = S D S this holds exactly when all zeros are collinear, the equality case of the
    even-order bounds.  Both sides have degree 2, so it runs in M's ``_unit_frame``, alike at every scale.
    """
    m = _as_square(matrix)
    m = _unit_frame(m.ravel())[0].reshape(m.shape)
    mh = m.conj().T
    comm = mh @ m - m @ mh
    scale = np.linalg.norm(m) ** 2
    return bool(np.linalg.norm(comm) <= tol * scale)
