"""Sendov-conjecture instances: power means of critical-point distances.

An instance is a polynomial (z - a) * prod (z - z_j) with a real,
0 <= a <= 1 and every z_j in the closed unit disk (the rotated normal
form; :func:`normalized_instance` maps an arbitrary distinguished zero to
it).  The quantities of interest are the distances |w_k - a| from the
critical points to the distinguished zero:

* Sendov's conjecture says min_k |w_k - a| <= 1, i.e. M_{-inf} <= 1;
* under the centroid-like hypothesis Re sum z_j >= ((n-2)/2) a both
  sum |w_k - a|^(-2) > n - 1 (C1, equivalent to M_{-2} < 1) and
  sum |w_k - a|^2 < n - 1 (C2, equivalent to M_2 < 1) hold;
* without the hypothesis M_2 <= 1 fails (e.g. (z - a)(z + 1)^(n-1) with a
  near 1), while no configuration with M_{-2} > 1 is known.  Whether
  M_{-2} <= 1 always holds is open; the probe only reports candidates and
  asserts nothing.

M_{-2}, M_2, C1, C2, the minimum distance and the exact-hit flag are
computed in one place, :func:`distance_columns`, from a batch of critical
points: :func:`special_case_batch` applies it after one batched solve, and
:func:`check_special_case` and the search objective to a batch of one.
:func:`probe_m_minus2` is :func:`special_case_batch` on a batch of one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import TOL_DISK
from .errors import InvalidInputError
from .poly import as_zeros
from .rootfind import DEFAULT_SETTINGS, RootSolverSettings, critical_points, critical_points_batch

__all__ = [
    "SendovInstance",
    "normalized_instance",
    "PowerMeanReport",
    "power_mean",
    "check_special_case",
    "SpecialCaseColumns",
    "distance_columns",
    "special_case_batch",
    "probe_m_minus2",
    "CRITICAL_HIT_TOL",
]

# |w_k - a| at or below this counts as a critical point sitting exactly on
# the distinguished zero, which settles the conjecture instance outright
# and would otherwise blow up the negative power means.
CRITICAL_HIT_TOL = 1e-11


@dataclass(frozen=True)
class SendovInstance:
    """Distinguished real zero a in [0, 1] plus the remaining unit-disk zeros."""

    a: float
    other_zeros: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise InvalidInputError(f"a must lie in [0, 1], got {self.a}")
        others = as_zeros(self.other_zeros, min_length=1)
        if others.ndim != 1:
            raise InvalidInputError("other_zeros must be a 1-D configuration")
        if np.max(np.abs(others)) > 1.0 + TOL_DISK:
            raise InvalidInputError("all other zeros must lie in the closed unit disk")
        object.__setattr__(self, "other_zeros", others)

    @property
    def n(self) -> int:
        return self.other_zeros.shape[0] + 1

    def zeros(self) -> np.ndarray:
        """Full configuration {a} union other_zeros."""
        return np.concatenate([[complex(self.a)], self.other_zeros])

    def hypothesis_margin(self) -> float:
        """Re sum z_j - ((n-2)/2) a; the special-case hypothesis is margin >= 0."""
        return float(np.sum(self.other_zeros.real) - 0.5 * (self.n - 2) * self.a)


def normalized_instance(a, other_zeros) -> SendovInstance:
    """Rotate an arbitrary distinguished zero onto the real segment [0, 1].

    A rotation of the plane preserves the zero/critical-point geometry, so
    any instance with |a| <= 1 has an equivalent with a real and
    nonnegative.
    """
    a = complex(a)
    rot = np.exp(-1j * np.angle(a)) if a != 0 else 1.0
    return SendovInstance(a=abs(a), other_zeros=np.asarray(other_zeros, dtype=complex) * rot)


def power_mean(values, p) -> float:
    """Power mean M_p = ((1/m) sum x_i**p)**(1/p) of positive reals.

    ``p = -inf`` gives the minimum and ``p = +inf`` the maximum; ``p = 0``
    is the geometric mean.  A zero value with p <= 0 is a domain error:
    callers are expected to treat exact critical-point hits separately.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise InvalidInputError("power mean of an empty list")
    if np.any(x < 0):
        raise InvalidInputError("power mean requires nonnegative values")
    p = float(p)
    if p <= 0 and np.any(x == 0):
        raise InvalidInputError("zero value with nonpositive exponent")
    if math.isinf(p):
        return float(x.min() if p < 0 else x.max())
    if p == 0:
        return float(np.exp(np.mean(np.log(x))))
    return float(np.mean(x**p) ** (1.0 / p))


@dataclass(frozen=True)
class PowerMeanReport:
    """Power means of |w_k - a| plus the special-case quantities.

    ``values[i]`` is M_{exponents[i]}; ``c1_value = sum |w_k - a|^-2`` and
    ``c2_value = sum |w_k - a|^2`` are the two sides compared against
    n - 1.  ``critical_hit`` marks an exact hit w_k = a (instance settled
    immediately; the negative-exponent means are reported as 0 by
    convention).
    """

    exponents: tuple
    values: tuple
    condition_holds: bool
    c1_value: float
    c2_value: float
    min_distance: float
    critical_hit: bool

    def sendov_holds(self) -> bool:
        """Whether the closed unit disk around a contains a critical point."""
        return self.critical_hit or self.min_distance <= 1.0


class SpecialCaseColumns(namedtuple("SpecialCaseColumns", "hit m_minus2 m2 c1 c2 min_distance")):
    """Per-instance (b,) columns of the special-case quantities.

    ``m_minus2``/``m2`` are M_{-2}/M_2 of |w_k - a|, ``c1 = sum |w_k - a|^-2``
    and ``c2 = sum |w_k - a|^2``.  ``hit`` marks an exact critical hit, where
    ``m_minus2`` is 0 and ``c1`` is inf by convention.
    """

    __slots__ = ()


def distance_columns(a_values, other_zeros, critical) -> SpecialCaseColumns:
    """Special-case quantities of b instances from their critical points.

    ``a_values`` has shape (b,), ``other_zeros`` and ``critical`` shape
    (b, n-1).  A critical point within ``CRITICAL_HIT_TOL`` of a, or a zero
    repeated at a (which forces a critical point there however much a
    root cluster smears the computed points), is an exact hit.
    """
    a = np.asarray(a_values, dtype=float)[:, np.newaxis]
    dist = np.abs(np.asarray(critical) - a)
    min_distance = dist.min(axis=1)
    hit = (min_distance <= CRITICAL_HIT_TOL) | (np.abs(np.asarray(other_zeros) - a).min(axis=1) <= CRITICAL_HIT_TOL)
    m = dist.shape[1]
    with np.errstate(divide="ignore"):
        c1 = np.sum(dist**-2.0, axis=1)
    c2 = np.sum(dist**2, axis=1)
    return SpecialCaseColumns(
        hit, np.where(hit, 0.0, (c1 / m) ** -0.5), (c2 / m) ** 0.5, np.where(hit, math.inf, c1), c2, min_distance
    )


def check_special_case(inst: SendovInstance, settings: RootSolverSettings | None = None) -> PowerMeanReport:
    """Evaluate the special-case hypothesis and conclusions for one instance.

    When ``condition_holds`` the report should satisfy C1 strictly
    (c1_value > n - 1), C2 strictly (c2_value < n - 1) and
    min_distance < 1; an exact critical hit settles the instance
    immediately.
    """
    w = critical_points(inst.zeros(), settings)
    columns = distance_columns([inst.a], inst.other_zeros[np.newaxis], w[np.newaxis])
    hit, m_minus2, m2, c1, c2, min_distance = (column[0].item() for column in columns)
    return PowerMeanReport(
        exponents=(-math.inf, -2.0, 2.0),
        values=(0.0 if hit else min_distance, m_minus2, m2),
        condition_holds=inst.hypothesis_margin() >= 0.0,
        c1_value=c1,
        c2_value=c2,
        min_distance=min_distance,
        critical_hit=hit,
    )


def probe_m_minus2(inst: SendovInstance, settings: RootSolverSettings | None = None) -> float:
    """M_{-2} of the critical-point distances of one instance.

    Returns 0.0 (by convention) when some critical point hits a exactly.
    This is :func:`special_case_batch` on a batch of one, so a value above
    1 has passed the tightened re-solve described there.
    """
    return float(special_case_batch([inst.a], inst.other_zeros[np.newaxis], settings).m_minus2[0])


def special_case_batch(a_values, other_zeros, settings: RootSolverSettings | None = None) -> SpecialCaseColumns:
    """Special-case columns of instances sharing one degree, from one batched solve.

    ``a_values`` has shape (b,), ``other_zeros`` shape (b, n-1).  An
    ``m_minus2`` above 1 is a counterexample candidate: every candidate
    row is solved again, all in one batch, with the solver's gate
    tightened 100x (``settings.tightened()``), and its columns are
    replaced by that solve's.  The eigenvalue solver is deterministic, so
    this re-solve is a stricter acceptance test, not an independent
    method; a candidate that fails the tightened gate raises
    :class:`ConvergenceError`.
    """
    settings = settings or DEFAULT_SETTINGS
    a = np.asarray(a_values, dtype=float)
    others = np.asarray(other_zeros, dtype=complex)
    full = np.concatenate([a[:, np.newaxis].astype(complex), others], axis=1)
    columns = distance_columns(a, others, critical_points_batch(full, settings))
    candidates = np.flatnonzero(columns.m_minus2 > 1.0)
    if candidates.size:
        refined = critical_points_batch(full[candidates], settings.tightened())
        for column, value in zip(columns, distance_columns(a[candidates], others[candidates], refined)):
            column[candidates] = value
    return columns
