"""The zero/critical-point inequalities, each written once in one table.

Each inequality bounds a power sum (or symmetric function) of the
critical-point moduli by an expression in the zeros.  ``_TABLE`` is the one
place an inequality is written: an :class:`Inequality` gives its id family,
its left-hand kernel (critical points), its right-hand side (the zeros'
sums, or the moduli polynomial's critical points ``xi``) and whether it
assumes a centered configuration.  To add one, append an entry; its
kernels map a :class:`_Sums` (plus k or r for a family) to one value per
configuration.  A kernel reads each power sum through the one cached rule,
``s.zp(r)`` for sum|z|^r and ``s.wp(r)`` for sum|w|^r, and every other
sum (the S bound, sum z^2, e_k) as a lazy attribute of ``_Sums``, so one
stack forms each sum once; a quantity ``_Sums`` lacks goes into ``_LAZY``.

Every evaluator selects from the table over a (b, n) batch:
:func:`evaluate_ensemble` evaluates every entry into one :class:`Column`
per id, :func:`full_report` is that on a batch of one, the ``eval_*``
functions evaluate a few entries on one configuration, and :func:`lookup`
resolves one id for the search objective.  :func:`row_reports` is the one
builder of the suite's reports: it turns a column table into each row's.
Reports carry both sides, the slack ``rhs - lhs`` and holds/equality
flags.

The centered-only forms (``CENTERED_IDS``) bound polynomials whose zeros
have their centroid at the origin, and the suite has one rule for them:
:func:`evaluate_ensemble` (so :func:`full_report`, sweeps and search)
evaluates them on the recentered zeros and the critical points solved from
that copy, and the general forms on the zeros as given.  Every suite report
is therefore applicable.  Only the ``eval_*`` functions, which take the
caller's critical points as they are, can flag a centered-only form as not
applicable, when the caller's configuration is off center.

Inequality identifiers
----------------------

==============  =============================================================
S0              order 2, centered:  sum|w|^2 <= ((n-2)/n) sum|z|^2
S               order 2, general: adds |sum z|^2 / n^2 to the S0 bound
BS              order 4, centered (de Bruin-Sharma form)
KT              order 4, centered, tighter (Kushel-Tyaglov form)
STAR            order 6, centered, from tr((A* A)^3) with A = SDS
STARSTAR        order 6, centered, tighter, from tr((A*)^3 A^3)
BSEN            order 1, general (de Bruijn-Springer / Erdos-Niven)
ST1             order 1, centered, sqrt((n-2)/n) factor; sharp
EK(k)           e_k(|w|) <= ((n-k)/n) e_k(|z|)
LOGMAJ(k)       weak log-majorization against the moduli polynomial
LXZ(r)          general order r >= 2 bound with (n-1)^(r-2) factors
IMPRO(r)        general order r >= 2 bound through the S right-hand side
==============  =============================================================

The order-6 right-hand sides also exist as brute-force matrix trace
oracles (:func:`star_trace_oracle`, :func:`starstar_trace_oracle`) for
independent verification of the closed forms.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .config import TOL_CENTER, TOL_EQ
from .errors import InvalidInputError, NumericConsistencyError
from .matrices import build_D, build_S, trace_word
from .poly import _frame, as_zeros, centroid_residual, elementary_symmetric_all, recenter
from .rootfind import (
    RootSolverSettings,
    critical_points_batch,
    moduli_critical_points,
    moduli_critical_points_batch,
)

__all__ = [
    "InequalityReport",
    "make_report",
    "row_reports",
    "Column",
    "Inequality",
    "lookup",
    "DEFAULT_ORDERS",
    "eval_order1",
    "eval_order2",
    "eval_order4",
    "eval_order6",
    "eval_symmetric",
    "eval_logmaj",
    "eval_general",
    "star_trace_oracle",
    "starstar_trace_oracle",
    "full_report",
    "evaluate_ensemble",
    "order6_bounds",
    "CENTERED_IDS",
]

# r exponents of the general-order forms in the suite.
DEFAULT_ORDERS = (2.0, 2.5, 3.0, 4.0, 6.0)


class InequalityReport(NamedTuple):
    """One evaluated inequality instance.

    ``slack = rhs - lhs``; ``holds`` allows slack down to
    ``-tol_eq * max(1, |rhs|)`` and ``equality`` flags ``|slack|`` within the
    same margin, so equality implies holds.  ``centered_required`` marks
    forms that assume a centered configuration and ``centered_satisfied``
    whether the evaluated configuration actually was; a report is
    *applicable* unless it required centering and did not have it.
    """

    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    centered_required: bool = False
    centered_satisfied: bool = True
    aux: dict | None = None

    @property
    def applicable(self) -> bool:
        return self.centered_satisfied or not self.centered_required


def make_report(
    iid: str,
    lhs: float,
    rhs: float,
    tol_eq: float = TOL_EQ,
    centered_required: bool = False,
    centered_satisfied: bool = True,
) -> InequalityReport:
    """Assemble a report from the two sides, deriving slack and flags."""
    lhs, rhs = float(lhs), float(rhs)
    slack = rhs - lhs
    margin = tol_eq * max(1.0, abs(rhs))
    return InequalityReport(
        iid, lhs, rhs, slack, slack >= -margin, abs(slack) <= margin, centered_required, centered_satisfied
    )


class Column(namedtuple("Column", "lhs rhs centered_required")):
    """One inequality over a batch: both sides as (b,) arrays."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# sums of the zeros and of the critical points

def _abs2(c):
    return c.real * c.real + c.imag * c.imag


class _Sums:
    """Sums of a (b, n) stack of zeros ``z`` and of its critical points ``w``.

    Each ``_LAZY`` quantity is computed on first use, so one entry costs only
    what it reads, and :meth:`zp` and :meth:`wp`, the one power-sum rule,
    form each sum once per r.  ``xi`` may be given instead of computed.
    """

    _LAZY = {
        "m2": lambda s: _abs2(s.z),  # |z|^2
        "wm2": lambda s: _abs2(s.w),  # |w|^2
        "z2": lambda s: s.z * s.z,
        "t1": lambda s: s.z.sum(axis=-1),  # sum z
        "t2": lambda s: s.z2.sum(axis=-1),  # sum z^2
        "t3": lambda s: (s.z2 * s.z).sum(axis=-1),  # sum z^3
        "u": lambda s: (s.z * s.m2).sum(axis=-1),  # sum z |z|^2
        "v": lambda s: (s.z2 * s.m2).sum(axis=-1),  # sum z^2 |z|^2
        "bound_s": lambda s: (s.n - 2.0) / s.n * s.zp(2) + _abs2(s.t1) / s.n**2,  # the S right-hand side
        "ez": lambda s: elementary_symmetric_all(np.abs(s.z)),  # e_0..e_n of |z|
        "ew": lambda s: elementary_symmetric_all(np.abs(s.w)),  # e_0..e_{n-1} of |w|
        # running products of the largest |w| and of xi (sorted descending)
        "top_w": lambda s: np.cumprod(np.sort(np.abs(s.w), axis=-1)[..., ::-1], axis=-1),
        "xi": lambda s: moduli_critical_points_batch(s.z),
        "top_xi": lambda s: np.cumprod(s.xi, axis=-1),
    }
    # The terms |v|^r of a power sum from a2 = |v|^2, without a power for r in 1, 2, 4 and 6.
    _FAST_TERMS = {1: np.sqrt, 2: lambda a2: a2, 4: lambda a2: a2 * a2, 6: lambda a2: a2 * a2 * a2}

    def __init__(self, z, w=None, xi=None):
        self.z, self.w, self.n = z, w, z.shape[-1]
        self._powers = {}
        if xi is not None:
            self.xi = xi

    def __getattr__(self, name):
        if name not in self._LAZY:
            raise AttributeError(name)
        value = self._LAZY[name](self)
        setattr(self, name, value)
        return value

    def zp(self, r):
        """sum |z|^r of each row, formed once per r."""
        return self._power_sum("m2", r)

    def wp(self, r):
        """sum |w|^r of each row, formed once per r."""
        return self._power_sum("wm2", r)

    def _power_sum(self, squares: str, r):
        """sum |v|^r of each row from the lazy squared moduli ``squares`` of v, cached per (squares, r)."""
        if (squares, r) not in self._powers:
            a2 = getattr(self, squares)
            self._powers[squares, r] = (self._FAST_TERMS[r](a2) if r in self._FAST_TERMS else a2 ** (r / 2.0)).sum(axis=-1)
        return self._powers[squares, r]


# ---------------------------------------------------------------------------
# the table

def _rhs_star(s: _Sums):
    n = s.n
    return (
        (n - 6.0) / n * s.zp(6)
        + 6.0 / n**2 * s.zp(4) * s.zp(2)
        + 3.0 / n**2 * _abs2(s.u)
        - 2.0 / n**3 * s.zp(2) ** 3
    )


def _rhs_starstar(s: _Sums):
    n = s.n
    return (
        (n - 6.0) / n * s.zp(6)
        + 2.0 / n**2 * s.zp(4) * s.zp(2)
        + 4.0 / n**2 * (s.v * np.conj(s.t2)).real
        + 2.0 / n**2 * _abs2(s.u)
        + 1.0 / n**2 * _abs2(s.t3)
        - 2.0 / n**3 * s.zp(2) * _abs2(s.t2)
    )


def _rhs_lxz(s: _Sums, r: float):
    n = s.n
    return (n - 1.0) ** (r - 2.0) / n**r * np.abs(s.t1) ** r + (
        (n - 1.0) ** (r - 2.0) * (n - 2.0) / n ** (r / 2.0)
    ) * s.zp(2) ** (r / 2.0)


@dataclass(frozen=True)
class Inequality:
    """One inequality ``lhs <= rhs``, both sides evaluated over a batch.

    ``lhs`` and ``rhs`` map a :class:`_Sums` (plus the parameter ``value``
    for a family) to one value per configuration.  ``param`` is None for a
    fixed form, ``"k"`` for a family indexed by k = 1..n-1 and ``"r"`` for
    one indexed by a real order r >= 2; :meth:`bind` sets ``value``.
    """

    family: str
    lhs: Callable
    rhs: Callable
    centered: bool = False
    param: str | None = None
    value: int | float | None = None

    @property
    def iid(self) -> str:
        """The id :func:`lookup` resolves to this form: ``KT``, ``EK(3)``, ``LXZ(2.5)``."""
        if self.param is None:
            return self.family
        text = f"{self.value:g}"
        if float(text) != self.value:  # more than 6 significant digits: the shortest exact form
            text = repr(float(self.value))
        return f"{self.family}({text})"

    def bind(self, value, n: int) -> "Inequality":
        """The family member for ``value`` at degree n; a fixed form is returned as is."""
        if self.param is None:
            return self
        if self.param == "k" and not 1 <= value <= n - 1:
            raise InvalidInputError(f"k must be in 1..{n - 1}, got {value}")
        if self.param == "r" and not 2 <= value < np.inf:
            raise InvalidInputError(f"order r must be >= 2 and finite, got {value}")
        return replace(self, value=value)

    def sides(self, s: _Sums):
        """``(lhs, rhs)`` as (b,) arrays."""
        args = (s,) if self.param is None else (s, self.value)
        return self.lhs(*args), self.rhs(*args)

    def evaluate(self, zs, ws):
        """``(lhs, rhs)`` of a (b, n) stack and its (b, n-1) critical points, as given (no recentering)."""
        return self.sides(_Sums(zs, ws))


# In report order.
_TABLE = (
    Inequality("S0", lambda s: s.wp(2), lambda s: (s.n - 2.0) / s.n * s.zp(2), centered=True),
    Inequality("S", lambda s: s.wp(2), lambda s: s.bound_s),
    Inequality("BS", lambda s: s.wp(4), lambda s: (s.n - 4.0) / s.n * s.zp(4) + 2.0 / s.n**2 * s.zp(2) ** 2, centered=True),
    Inequality("KT", lambda s: s.wp(4), lambda s: (s.n - 4.0) / s.n * s.zp(4) + (s.zp(2) ** 2 + _abs2(s.t2)) / s.n**2, centered=True),
    Inequality("STAR", lambda s: s.wp(6), _rhs_star, centered=True),
    Inequality("STARSTAR", lambda s: s.wp(6), _rhs_starstar, centered=True),
    Inequality("BSEN", lambda s: s.wp(1), lambda s: (s.n - 1.0) / s.n * s.zp(1)),
    Inequality("ST1", lambda s: s.wp(1), lambda s: np.sqrt((s.n - 2.0) / s.n) * s.zp(1), centered=True),
    Inequality("EK", lambda s, k: s.ew[..., k], lambda s, k: (s.n - k) / s.n * s.ez[..., k], param="k"),
    Inequality("LOGMAJ", lambda s, k: s.top_w[..., k - 1], lambda s, k: s.top_xi[..., k - 1], param="k"),
    Inequality("LXZ", lambda s, r: s.wp(r), _rhs_lxz, param="r"),
    Inequality("IMPRO", lambda s, r: s.wp(r), lambda s, r: s.bound_s ** (r / 2.0), param="r"),
)

_BY_FAMILY = {entry.family: entry for entry in _TABLE}

# Forms whose right-hand side is only valid for centered configurations.
CENTERED_IDS = frozenset(entry.family for entry in _TABLE if entry.centered)


def lookup(iid: str, n: int) -> Inequality:
    """The inequality with id ``iid`` (``KT``, ``EK(3)``, ``LXZ(2.5)``...) at degree n."""
    family, paren, rest = iid.partition("(")
    entry = _BY_FAMILY.get(family)
    if entry is None or (entry.param is None) != (paren == "") or (paren and not rest.endswith(")")):
        raise InvalidInputError(f"unknown inequality id {iid!r}")
    if entry.param is None:
        return entry
    try:
        value = (int if entry.param == "k" else float)(rest[:-1])
    except ValueError:
        raise InvalidInputError(f"unknown inequality id {iid!r}") from None
    return entry.bind(value, n)


def _suite(n: int) -> list[Inequality]:
    """Every inequality at degree n, in report order."""
    fixed = [entry for entry in _TABLE if entry.param is None]
    by_k = [entry.bind(k, n) for entry in _TABLE if entry.param == "k" for k in range(1, n)]
    by_r = [entry.bind(r, n) for r in DEFAULT_ORDERS for entry in _TABLE if entry.param == "r"]
    return fixed + by_k + by_r


def _columns(forms, raw: _Sums, centered: _Sums) -> dict[str, Column]:
    """Both sides of each form, the centered-only forms read from ``centered`` and the others from ``raw``."""
    return {form.iid: Column(*form.sides(centered if form.centered else raw), form.centered) for form in forms}


def row_reports(table: dict[str, Column], tol_eq: float = TOL_EQ, centered: bool = True):
    """Each configuration's reports of a column table, one list per row, in table order.

    ``centered`` says whether the centered-only forms saw centered
    configurations.  A generator that turns one row of the stacked sides
    into Python floats at a time, so a caller holds one row's reports.
    """
    forms = [(iid, required, centered or not required) for iid, (_, _, required) in table.items()]
    lhs = np.stack([column.lhs for column in table.values()], axis=1)
    rhs = np.stack([column.rhs for column in table.values()], axis=1)
    for left, right in zip(lhs, rhs):
        yield [
            make_report(iid, a, b, tol_eq, required, ok)
            for (iid, required, ok), a, b in zip(forms, left.tolist(), right.tolist())
        ]


# ---------------------------------------------------------------------------
# single-configuration evaluators

def _checked_pair(zeros, critical):
    z = as_zeros(zeros)
    w = np.asarray(critical, dtype=complex)
    if z.ndim != 1 or w.ndim != 1:
        raise InvalidInputError("evaluators take one configuration; use evaluate_ensemble for batches")
    if w.shape[0] != z.shape[0] - 1:
        raise InvalidInputError(
            f"critical set must have length n-1 = {z.shape[0] - 1}, got {w.shape[0]}"
        )
    return z, w


def _single(zeros, critical, families, value=None, *, tol_eq, xi=None):
    """Reports of the given families (bound to ``value``) on one configuration, as is."""
    z, w = _checked_pair(zeros, critical)
    forms = [_BY_FAMILY[family].bind(value, z.shape[0]) for family in families]
    s = _Sums(z[np.newaxis], w[np.newaxis], xi)
    return next(row_reports(_columns(forms, s, s), tol_eq, bool(centroid_residual(z) <= TOL_CENTER)))


def eval_order2(zeros, critical, *, tol_eq: float = TOL_EQ):
    """Order-2 reports (S0 centered form, S general form)."""
    return tuple(_single(zeros, critical, ("S0", "S"), tol_eq=tol_eq))


def eval_order4(zeros, critical, *, tol_eq: float = TOL_EQ):
    """Order-4 reports (BS, KT); both assume a centered configuration."""
    return tuple(_single(zeros, critical, ("BS", "KT"), tol_eq=tol_eq))


def eval_order6(zeros, critical, *, tol_eq: float = TOL_EQ):
    """Order-6 reports (STAR, STARSTAR); both assume a centered configuration.

    STARSTAR is the tighter but more complicated bound; STARSTAR rhs <=
    STAR rhs always (a trace-inequality consequence), and both coincide
    with the left side exactly when the zeros are collinear.
    """
    return tuple(_single(zeros, critical, ("STAR", "STARSTAR"), tol_eq=tol_eq))


def eval_order1(zeros, critical, *, tol_eq: float = TOL_EQ):
    """Order-1 reports (BSEN general, ST1 centered)."""
    return tuple(_single(zeros, critical, ("BSEN", "ST1"), tol_eq=tol_eq))


def eval_symmetric(zeros, critical, k: int, *, tol_eq: float = TOL_EQ):
    """Elementary-symmetric report EK(k): e_k(|w|) <= ((n-k)/n) e_k(|z|)."""
    return _single(zeros, critical, ("EK",), k, tol_eq=tol_eq)[0]


def eval_logmaj(zeros, critical, k: int, *, tol_eq: float = TOL_EQ):
    """Weak log-majorization report LOGMAJ(k).

    Compares the product of the k largest critical-point moduli against
    the product of the k largest critical points of the moduli polynomial
    (both listed descending).  The report's ``aux`` carries the
    elementary-symmetric consequence e_k(|w|) <= e_k(xi).
    """
    z, w = _checked_pair(zeros, critical)
    xi = moduli_critical_points(z)
    (rep,) = _single(z, w, ("LOGMAJ",), k, tol_eq=tol_eq, xi=xi[np.newaxis])
    aux = {
        "esf_lhs": float(elementary_symmetric_all(np.abs(w))[k]),
        "esf_rhs": float(elementary_symmetric_all(xi)[k]),
    }
    return rep._replace(aux=aux)


def eval_general(zeros, critical, r: float, *, tol_eq: float = TOL_EQ):
    """General-order reports (LXZ(r), IMPRO(r)) for any real r >= 2.

    IMPRO is the tighter bound for n >= 3; the two right-hand sides agree
    identically when n = 2 or r = 2.
    """
    return tuple(_single(zeros, critical, ("LXZ", "IMPRO"), r, tol_eq=tol_eq))


# ---------------------------------------------------------------------------
# brute-force trace oracles for the order-6 right-hand sides

def _real_trace(t, x, e):
    """Real part of the traces ``t`` of words of degree 6 in the framed zeros ``x = 2**e z``, in the units of z."""
    imag = np.abs(np.imag(t))
    bad = imag > 1e-9 * np.max(np.abs(x), axis=-1) ** 6
    if np.any(bad):
        raise NumericConsistencyError(
            f"trace imaginary part {np.max(np.where(bad, imag, 0.0)):.3e} exceeds 1e-9 * scale^6"
        )
    with np.errstate(over="ignore"):  # a trace past the double range is inf, never a numpy warning
        r = np.ldexp(np.real(t), -6 * e)
    return float(r) if r.ndim == 0 else r


def _word_factors(zeros):
    """The zeros in their ``_frame``, its exponents, and S, D and D* of the framed zeros."""
    z = as_zeros(zeros)
    if z.ndim > 2:
        raise InvalidInputError("trace oracles take a configuration or a (b, n) stack")
    if np.any(centroid_residual(z) > TOL_CENTER):
        raise InvalidInputError("trace oracles require centered configurations")
    x, e = _frame(z)
    d = build_D(x)
    return x, e[..., 0], build_S(z.shape[-1]), d, d.conj().swapaxes(-1, -2)


def star_trace_oracle(zeros):
    """tr((S D* S D)^3) by explicit matrix products: the STAR right side.

    A float for one configuration, a (b,) array for a (b, n) stack.
    """
    x, e, s, d, dh = _word_factors(zeros)
    return _real_trace(trace_word([s, dh, s, d] * 3), x, e)


def starstar_trace_oracle(zeros):
    """tr((A*)^3 A^3) with A = SDS by explicit products: the STARSTAR right side.

    A float for one configuration, a (b,) array for a (b, n) stack.
    """
    x, e, s, d, dh = _word_factors(zeros)
    return _real_trace(trace_word([s, dh, s, dh, s, dh, s, d, s, d, s, d]), x, e)


def order6_bounds(zs):
    """Batched closed-form order-6 right-hand sides ``(STAR, STARSTAR)``.

    Only valid for centered configurations; no critical points needed.
    """
    s = _Sums(np.atleast_2d(as_zeros(zs)))
    return _rhs_star(s), _rhs_starstar(s)


# ---------------------------------------------------------------------------
# whole-suite evaluation

def evaluate_ensemble(zs, settings: RootSolverSettings | None = None) -> dict[str, Column]:
    """Every inequality of the table over a (b, n) stack of configurations.

    Returns a dict mapping each inequality id, in report order, to a
    :class:`Column` ``(lhs, rhs, centered_required)`` of length-b arrays.
    The centered-only forms are evaluated on the recentered configurations
    and their own critical points, the general forms on the configurations
    as given, so every entry is valid for every sample.
    """
    z = np.atleast_2d(as_zeros(zs))
    return _suite_columns(z, critical_points_batch(z, settings), settings)


def _suite_columns(z, w, settings: RootSolverSettings | None) -> dict[str, Column]:
    """:func:`evaluate_ensemble` of a (b, n) stack ``z`` whose critical points ``w`` are solved.

    The centered-only forms see the recentered stack and the critical
    points solved from it, the general forms ``(z, w)``.
    """
    zc = recenter(z)
    return _columns(_suite(z.shape[-1]), _Sums(z, w), _Sums(zc, critical_points_batch(zc, settings)))


def full_report(
    zeros, settings: RootSolverSettings | None = None, *, tol_eq: float = TOL_EQ
) -> list[InequalityReport]:
    """Every inequality report for one configuration, in report order.

    This is :func:`evaluate_ensemble` on a batch of one, so the centered-only
    forms are evaluated on the recentered configuration.
    """
    z = as_zeros(zeros)
    if z.ndim != 1:
        raise InvalidInputError("full_report takes a single configuration")
    return next(row_reports(evaluate_ensemble(z, settings), tol_eq))
