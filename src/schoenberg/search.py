"""Randomized ensembles and derivative-free search for extremal configurations.

Sampling is reproducible by construction: sample i of an ensemble is a
pure function of ``(ensemble.seed, i)`` through a single derived 64-bit
seed, so records can be regenerated from their seed alone.  The search
maximizes either an inequality slack ratio lhs/rhs (how close a
configuration comes to saturating a bound) or the M_{-2} power mean of a
Sendov instance, by Nelder-Mead (Nelder & Mead 1965) over the
real/imaginary parts of the zeros with projection back onto the
constraint set.

All starts of one search advance in lockstep, as rows of one stack of
simplices.  Each round evaluates the reflection, expansion and inside
contraction of every active row with one batched critical-point solve;
only the rows that shrink make a second.  The solver takes no starting
points and treats each row on its own; a row it cannot solve is scored
-inf.  Each row stops on its own, when its simplex spread falls below
``step_tol`` or its round budget is spent, so a start's record does not
depend on the other starts of its batch.  Any objective value above
1 + 1e-6 is a counterexample candidate, believed only if
:func:`verify_candidate` confirms it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_SEED, TOL_CENTER
from .errors import ConvergenceError, InvalidInputError, RejectedStartError
from .inequalities import CENTERED_IDS, evaluate_ensemble, lookup, make_report
from .poly import as_zeros, centroid_residual, recenter
from .rootfind import RootSolverSettings, critical_points, critical_points_batch  # noqa: F401 (perfbench wraps search.critical_points)
from .sendov import SendovInstance, distance_columns

__all__ = [
    "ENSEMBLE_KINDS",
    "Ensemble",
    "sample_seed",
    "sample_one",
    "sample",
    "sample_array",
    "SearchSettings",
    "SearchRecord",
    "maximize",
    "maximize_batch",
    "verify_candidate",
    "COUNTEREXAMPLE_MARGIN",
]

ENSEMBLE_KINDS = (
    "uniform-disk",
    "gaussian",
    "roots-of-unity-perturbed",
    "collinear",
    "sendov-boundary",
)

# Objective values above 1 + this margin trigger the counterexample protocol.
COUNTEREXAMPLE_MARGIN = 1e-6


@dataclass(frozen=True)
class Ensemble:
    """A reproducible stream of random configurations (or Sendov instances)."""

    kind: str
    n: int
    count: int
    seed: int = DEFAULT_SEED
    recenter: bool = False
    scale: float = 0.1  # perturbation size for roots-of-unity-perturbed

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise InvalidInputError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 2:
            raise InvalidInputError("ensemble degree n must be at least 2")
        if self.count < 1:
            raise InvalidInputError("ensemble count must be at least 1")
        if self.scale < 0:
            raise InvalidInputError("perturbation scale must be nonnegative")
        if self.kind == "sendov-boundary" and self.recenter:
            raise InvalidInputError("sendov-boundary instances cannot be recentered")


def sample_seed(seed: int, index: int) -> int:
    """Derived 64-bit per-sample seed: a stable hash of (seed, index)."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


def _rng(derived_seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derived_seed))


def _complex_normal(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def sample_one(ensemble: Ensemble, index: int):
    """Sample ``index`` of the ensemble: a zeros array, or a SendovInstance."""
    rng = _rng(sample_seed(ensemble.seed, index))
    n = ensemble.n
    kind = ensemble.kind
    if kind == "uniform-disk":
        radius = np.sqrt(rng.uniform(0.0, 1.0, n))
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        zeros = radius * np.exp(1j * angle)
    elif kind == "gaussian":
        zeros = _complex_normal(rng, n)
    elif kind == "roots-of-unity-perturbed":
        base = np.exp(2j * np.pi * np.arange(n) / n)
        zeros = base + ensemble.scale * _complex_normal(rng, n)
    elif kind == "collinear":
        center = _complex_normal(rng, None)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        offsets = rng.standard_normal(n)
        zeros = center + offsets * np.exp(1j * angle)
    else:  # sendov-boundary
        a = rng.uniform(0.0, 1.0)
        zeros = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n - 1))
        return SendovInstance(a=a, other_zeros=zeros)
    if ensemble.recenter:
        zeros = recenter(zeros)
    return zeros


def sample(ensemble: Ensemble):
    """Generator over the ensemble's samples, in index order."""
    for i in range(ensemble.count):
        yield sample_one(ensemble, i)


def sample_array(ensemble: Ensemble):
    """All samples stacked: a (count, n) array, or (a values, other zeros)."""
    items = list(sample(ensemble))
    if ensemble.kind == "sendov-boundary":
        a = np.array([inst.a for inst in items])
        others = np.array([inst.other_zeros for inst in items])
        return a, others
    return np.array(items)


# ---------------------------------------------------------------------------
# the objective: decode -> solve -> score over stacks of packed coordinates

class _Objective:
    """A maximized value of packed coordinates, evaluated over (rows, dim) stacks.

    Ratio objectives pack the real/imaginary parts of the zeros (all but the
    last for centered forms, whose last zero is the negated sum of the
    others).  ``M_MINUS2`` packs ``[a, re/im of the other zeros]`` and
    projects a onto [0, 1] and the other zeros onto the unit disk.  Decoded
    configurations are full (rows, n) zeros stacks; for ``M_MINUS2`` the
    first zero is a.
    """

    def __init__(self, objective_id: str, n: int, solver: RootSolverSettings):
        self.n = n
        self.solver = solver
        self.sendov = objective_id == "M_MINUS2"
        self.inequality = None if self.sendov else lookup(objective_id, n)
        self.centered = not self.sendov and self.inequality.centered

    def encode(self, start) -> np.ndarray:
        if self.sendov:
            free, head = start.other_zeros, [start.a]
        else:
            free, head = (start[:-1] if self.centered else start), []
        return np.concatenate([head, np.column_stack([free.real, free.imag]).ravel()])

    def decode(self, x) -> np.ndarray:
        v = x[:, 1:] if self.sendov else x
        v = v.reshape(x.shape[0], v.shape[1] // 2, 2)
        z = v[..., 0] + 1j * v[..., 1]
        if self.sendov:
            a = np.clip(x[:, :1], 0.0, 1.0)
            return np.concatenate([a.astype(complex), z / np.maximum(1.0, np.abs(z))], axis=1)
        if self.centered:
            z = np.concatenate([z, -z.sum(axis=1, keepdims=True)], axis=1)
        return z

    def solve(self, zs):
        """Critical points of a zeros stack and the mask of rows that passed the solver's gate."""
        ok = np.ones(zs.shape[0], dtype=bool)
        try:
            w = critical_points_batch(zs, self.solver)
        except ConvergenceError as err:
            w = err.best
            ok[err.rows] = False
        return w, ok

    def score(self, zs, w, ok=True) -> np.ndarray:
        """Objective values of a zeros stack from its critical points; -inf where undefined or unsolved."""
        if self.sendov:
            value = distance_columns(zs[:, 0].real, zs[:, 1:], w).m_minus2
        else:
            lhs, rhs = self.inequality.evaluate(zs, w)
            with np.errstate(divide="ignore", invalid="ignore"):
                value = np.where(np.isfinite(rhs) & (rhs > 1e-150) & np.isfinite(lhs), lhs / rhs, -np.inf)
        return np.where(ok, value, -np.inf)

    def reports(self, zs) -> list:
        """Report lists of a zeros stack, from one batched evaluation."""
        if self.sendov:
            columns = distance_columns(zs[:, 0].real, zs[:, 1:], critical_points_batch(zs, self.solver))
            side = float(self.n - 1)
            return [[make_report("C1", side, c1), make_report("C2", c2, side)] for c1, c2 in zip(columns.c1, columns.c2)]
        table, _ = evaluate_ensemble(zs, self.solver, recenter_centered=True)
        return [
            [make_report(iid, lhs[i], rhs[i], centered_required=required) for iid, (lhs, rhs, required) in table.items()]
            for i in range(zs.shape[0])
        ]


# ---------------------------------------------------------------------------
# lockstep Nelder-Mead with projection (projection happens in decode)

class _Ascent:
    """Per-row best points of a batch of ascents.

    ``evaluate`` minimizes the negated objective, as Nelder-Mead does, and
    records for each row its best point so far.
    """

    def __init__(self, obj: _Objective, x0, start):
        self.obj = obj
        self.best_f, self.best_x = start.copy(), x0.copy()

    def evaluate(self, points, rows):
        """Negated objective of ``points`` (m, k, dim), point j of row ``rows[i]`` at [i, j]; one solve."""
        m, k, dim = points.shape
        x = points.reshape(m * k, dim)
        zs = self.obj.decode(x)
        w, ok = self.obj.solve(zs)
        f = -self.obj.score(zs, w, ok).reshape(m, k)
        j = np.argmin(f, axis=1)
        i = np.arange(m)
        fj = f[i, j]
        better = fj < self.best_f[rows]
        self.best_f[rows[better]] = fj[better]
        self.best_x[rows[better]] = points[i[better], j[better]]
        return f


def _nelder_mead(ascent: _Ascent, x0, settings: SearchSettings):
    """Run every row's Nelder-Mead in lockstep; returns the rounds each row took.

    One round sorts every active simplex, retires the rows whose spread is
    below ``step_tol``, and evaluates the reflection, expansion and inside
    contraction of all remaining rows in one call; only the rows that then
    shrink make a second call.  Each row takes the steps it would take alone.
    """
    b, dim = x0.shape
    simplex = np.repeat(x0[:, np.newaxis, :], dim + 1, axis=1)
    diag = np.arange(dim)
    simplex[:, diag + 1, diag] += settings.initial_step * np.maximum(1.0, np.abs(x0))
    values = np.empty((b, dim + 1))
    values[:, 0] = ascent.best_f  # the start values, as nothing else is evaluated yet
    rows = np.arange(b)
    values[:, 1:] = ascent.evaluate(simplex[:, 1:], rows)
    rounds = np.zeros(b, dtype=int)
    for it in range(1, settings.max_iterations + 1):
        order = np.argsort(values[rows], axis=1, kind="stable")
        s = np.take_along_axis(simplex[rows], order[:, :, np.newaxis], axis=1)
        v = np.take_along_axis(values[rows], order, axis=1)
        rounds[rows] = it
        going = ~(np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) < settings.step_tol)
        rows, s, v = rows[going], s[going], v[going]
        if rows.size == 0:
            break
        centroid = s[:, :-1].mean(axis=1)
        worst = s[:, -1]
        trial = np.stack(
            [centroid + (centroid - worst), centroid + 2.0 * (centroid - worst), centroid + 0.5 * (worst - centroid)],
            axis=1,
        )
        fr, fe, fc = ascent.evaluate(trial, rows).T
        improved = fr < v[:, 0]
        expand = improved & (fe < fr)
        reflect = (improved & ~expand) | (~improved & (fr < v[:, -2]))
        contract = ~improved & ~reflect & (fc < v[:, -1])
        pick = np.where(expand, 1, np.where(contract, 2, 0))
        accept = expand | reflect | contract
        s[accept, -1] = trial[accept, pick[accept]]
        v[accept, -1] = np.choose(pick, (fr, fe, fc))[accept]
        shrink = np.flatnonzero(~accept)
        if shrink.size:
            best = s[shrink, :1]
            s[shrink, 1:] = best + 0.5 * (s[shrink, 1:] - best)
            v[shrink, 1:] = ascent.evaluate(s[shrink, 1:], rows[shrink])
        simplex[rows], values[rows] = s, v
    return rounds


@dataclass(frozen=True)
class SearchSettings:
    """Search budget and termination of each ascent."""

    max_iterations: int = 200
    step_tol: float = 1e-9
    initial_step: float = 0.1
    solver: RootSolverSettings = field(default_factory=RootSolverSettings)

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidInputError("max_iterations must be nonnegative")
        if not self.step_tol > 0:
            raise InvalidInputError("step_tol must be positive")
        if not self.initial_step > 0:
            raise InvalidInputError("initial_step must be positive")


@dataclass(frozen=True)
class SearchRecord:
    """Outcome of one ascent (or one scored sample)."""

    sample_seed: int
    zeros: np.ndarray
    a: float | None
    objective_id: str
    objective_value: float
    start_value: float
    iterations: int
    reports: list


def _checked_starts(objective_id: str, starts) -> tuple[list, int]:
    """The starts as configurations the objective accepts, and their common degree."""
    if objective_id == "M_MINUS2":
        if not all(isinstance(start, SendovInstance) for start in starts):
            raise InvalidInputError("M_MINUS2 objective needs SendovInstance starts")
        degrees = {start.n for start in starts}
    else:
        starts = [as_zeros(start) for start in starts]
        if objective_id in CENTERED_IDS and any(centroid_residual(start) > TOL_CENTER for start in starts):
            raise InvalidInputError(f"objective {objective_id} requires centered starts")
        degrees = {start.shape[0] for start in starts}
    if len(degrees) > 1:
        raise InvalidInputError(f"starts of one search must share one degree, got {sorted(degrees)}")
    return starts, degrees.pop()


def maximize_batch(objective_id: str, starts, settings: SearchSettings | None = None, *, sample_seeds=None) -> list:
    """Derivative-free ascents of one objective from many starts, run in lockstep.

    Returns one :class:`SearchRecord` per start, in order, or None for a
    start where the objective is undefined (that start is dropped).  All
    ascents advance together as rows of one stack of simplices: each
    Nelder-Mead round solves the trial points of every active row in one
    batched call, and the final reports of all ascents take one batched
    evaluation.  The solver treats each row on its own, a row it cannot
    solve is scored -inf, and each row stops on its own (simplex spread
    below ``step_tol``, or the round budget), so every record equals that
    of :func:`maximize` on its start alone, bit for bit.
    """
    settings = settings or SearchSettings()
    starts = list(starts)
    if not starts:
        return []
    starts, n = _checked_starts(objective_id, starts)
    seeds = [0] * len(starts) if sample_seeds is None else list(sample_seeds)
    records = [None] * len(starts)
    obj = _Objective(objective_id, n, settings.solver)
    x0 = np.array([obj.encode(start) for start in starts])
    zs = obj.decode(x0)
    w, ok = obj.solve(zs)
    start = -obj.score(zs, w, ok)
    kept = np.flatnonzero(np.isfinite(start))
    if kept.size == 0:
        return records
    ascent = _Ascent(obj, x0[kept], start[kept])
    rounds = _nelder_mead(ascent, x0[kept], settings)
    best = obj.decode(ascent.best_x)
    for i, zeros, value, start_value, its, reports in zip(
        kept, best, -ascent.best_f, -start[kept], rounds, obj.reports(best)
    ):
        records[i] = SearchRecord(
            sample_seed=seeds[i],
            zeros=zeros,
            a=float(zeros[0].real) if obj.sendov else None,
            objective_id=objective_id,
            objective_value=float(value),
            start_value=float(start_value),
            iterations=int(its),
            reports=reports,
        )
    return records


def maximize(objective_id: str, start, settings: SearchSettings | None = None, *, sample_seed: int = 0) -> SearchRecord:
    """Derivative-free ascent of one objective from one start configuration.

    ``start`` is a zeros array for ratio objectives or a
    :class:`SendovInstance` for ``M_MINUS2``.  Centered-form objectives
    keep the centroid at the origin by construction (the last zero is the
    negated sum of the others), so the start must be centered; Sendov
    coordinates are projected back onto a in [0, 1] and the unit disk.
    The returned record's objective value is never below the start value.

    This is :func:`maximize_batch` on a batch of one: the ascent stops
    when the simplex spread falls below ``step_tol`` or after
    ``max_iterations`` rounds.
    """
    (record,) = maximize_batch(objective_id, [start], settings, sample_seeds=[sample_seed])
    if record is None:
        raise RejectedStartError(f"objective {objective_id} undefined at the start configuration")
    return record


def verify_candidate(record: SearchRecord, settings: SearchSettings | None = None) -> float:
    """Re-score a record's objective with the solver's gate tightened 100x.

    Counterexample protocol: a value above ``1 + COUNTEREXAMPLE_MARGIN`` is
    only believed if this re-score still exceeds it.  The eigenvalue
    solver is deterministic, so the re-score equals the untightened score
    of the record's zeros, or is -inf where they fail the tightened gate:
    a stricter acceptance test, not an independent method.
    """
    settings = settings or SearchSettings()
    obj = _Objective(record.objective_id, len(record.zeros), settings.solver.tightened())
    zs = record.zeros[np.newaxis]
    w, ok = obj.solve(zs)
    return float(obj.score(zs, w, ok)[0])
