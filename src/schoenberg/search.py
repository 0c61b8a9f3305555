"""Randomized ensembles and derivative-free search for extremal configurations.

Sampling is reproducible by construction: sample i of an ensemble is a
pure function of ``(ensemble.seed, i)`` through a single derived 64-bit
seed, so records can be regenerated from their seed alone.  The search
maximizes either an inequality slack ratio lhs/rhs (how close a
configuration comes to saturating a bound) or the M_{-2} power mean of a
Sendov instance, by Nelder-Mead over the real/imaginary parts of the
zeros with projection back onto the constraint set.  Any objective value
above 1 + 1e-6 is a counterexample candidate and must be re-verified at
tightened root tolerance before being believed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_SEED, TOL_CENTER
from .errors import ConvergenceError, InvalidInputError, RejectedStartError
from .inequalities import CENTERED_IDS, full_report, lookup, make_report
from .poly import as_zeros, centroid_residual, recenter
from .rootfind import RootSolverSettings, critical_points
from .sendov import SendovInstance, check_special_case, distance_columns

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
# objectives

class _Objective:
    """A maximized value of packed coordinates; tracks the best configuration seen.

    Subclasses provide ``encode``, ``decode`` (coordinates to a
    configuration, projecting onto the constraint set), ``value`` and
    ``reports``.
    """

    def __init__(self, n: int, solver: RootSolverSettings):
        self.n = n
        self.solver = solver
        self.best_value = -np.inf
        self.best_config = None
        self._warm = None

    def _critical_points(self, zeros):
        """Critical points warm-started from the last solve, retried cold; None if both fail."""
        try:
            w = critical_points(zeros, self.solver, initial=self._warm)
        except ConvergenceError:
            try:
                w = critical_points(zeros, self.solver)
            except ConvergenceError:
                return None
        self._warm = w
        return w

    def __call__(self, x) -> float:
        config = self.decode(x)
        val = self.value(config)
        if val > self.best_value:
            self.best_value = val
            self.best_config = config
        return -val


class _RatioObjective(_Objective):
    """lhs/rhs of one inequality as a function of packed zero coordinates."""

    def __init__(self, iid: str, n: int, solver: RootSolverSettings):
        super().__init__(n, solver)
        self.inequality = lookup(iid, n)
        self.centered = self.inequality.centered

    def encode(self, zeros) -> np.ndarray:
        z = as_zeros(zeros)
        free = z[:-1] if self.centered else z
        return np.column_stack([free.real, free.imag]).ravel()

    def decode(self, x) -> np.ndarray:
        v = x.reshape(-1, 2)
        z = v[:, 0] + 1j * v[:, 1]
        if self.centered:
            z = np.concatenate([z, [-z.sum()]])
        return z

    def value(self, zeros) -> float:
        w = self._critical_points(zeros)
        if w is None:
            return -np.inf
        lhs, rhs = self.inequality.evaluate(zeros, w)
        if not np.isfinite(rhs) or rhs <= 1e-150 or not np.isfinite(lhs):
            return -np.inf
        return lhs / rhs

    def reports(self, zeros):
        return full_report(zeros, self.solver, recenter_centered=True)


class _MMinus2Objective(_Objective):
    """M_{-2} of |w_k - a| over Sendov instances, coordinates [a, re/im...]."""

    def encode(self, inst: SendovInstance) -> np.ndarray:
        zr = np.column_stack([inst.other_zeros.real, inst.other_zeros.imag]).ravel()
        return np.concatenate([[inst.a], zr])

    def decode(self, x) -> SendovInstance:
        a = float(np.clip(x[0], 0.0, 1.0))
        v = x[1:].reshape(-1, 2)
        z = v[:, 0] + 1j * v[:, 1]
        z = z / np.maximum(1.0, np.abs(z))
        return SendovInstance(a=a, other_zeros=z)

    def value(self, inst: SendovInstance) -> float:
        w = self._critical_points(inst.zeros())
        if w is None:
            return -np.inf
        return float(distance_columns([inst.a], inst.other_zeros[np.newaxis], w[np.newaxis]).m_minus2[0])

    def reports(self, inst: SendovInstance):
        rep, side = check_special_case(inst, self.solver), float(inst.n - 1)
        return [make_report("C1", side, rep.c1_value), make_report("C2", rep.c2_value, side)]


# ---------------------------------------------------------------------------
# Nelder-Mead with projection (projection happens inside the objective)

def _nelder_mead(f, x0, initial_step, step_tol, max_iterations):
    dim = x0.size
    simplex = np.empty((dim + 1, dim))
    simplex[0] = x0
    for i in range(dim):
        simplex[i + 1] = x0
        simplex[i + 1, i] += initial_step * max(1.0, abs(x0[i]))
    values = np.array([f(p) for p in simplex])
    rounds = 0
    for rounds in range(1, max_iterations + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        if np.max(np.abs(simplex[1:] - simplex[0])) < step_tol:
            break
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        fr = f(reflected)
        if fr < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            fc = f(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = [f(p) for p in simplex[1:]]
    return rounds


@dataclass(frozen=True)
class SearchSettings:
    """Search budget and termination for one ascent."""

    max_iterations: int = 200
    step_tol: float = 1e-9
    initial_step: float = 0.1
    solver: RootSolverSettings = field(default_factory=RootSolverSettings)


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


def maximize(objective_id: str, start, settings: SearchSettings | None = None, *, sample_seed: int = 0) -> SearchRecord:
    """Derivative-free ascent of one objective from one start configuration.

    ``start`` is a zeros array for ratio objectives or a
    :class:`SendovInstance` for ``M_MINUS2``.  Centered-form objectives
    keep the centroid at the origin by construction (the last zero is the
    negated sum of the others), so the start must be centered; Sendov
    coordinates are projected back onto a in [0, 1] and the unit disk.
    The returned record's objective value is never below the start value.
    """
    settings = settings or SearchSettings()
    if objective_id == "M_MINUS2":
        if not isinstance(start, SendovInstance):
            raise InvalidInputError("M_MINUS2 objective needs a SendovInstance start")
        obj = _MMinus2Objective(start.n, settings.solver)
    else:
        start = as_zeros(start)
        if objective_id in CENTERED_IDS and centroid_residual(start) > TOL_CENTER:
            raise InvalidInputError(f"objective {objective_id} requires a centered start")
        obj = _RatioObjective(objective_id, start.shape[0], settings.solver)
    x0 = obj.encode(start)
    f0 = obj(x0)
    if not np.isfinite(f0):
        raise RejectedStartError(f"objective {objective_id} undefined at the start configuration")
    start_value = -f0
    rounds = _nelder_mead(obj, x0, settings.initial_step, settings.step_tol, settings.max_iterations)
    best = obj.best_config
    if objective_id == "M_MINUS2":
        zeros, a = best.zeros(), best.a
    else:
        zeros, a = best, None
    return SearchRecord(
        sample_seed=sample_seed,
        zeros=zeros,
        a=a,
        objective_id=objective_id,
        objective_value=obj.best_value,
        start_value=start_value,
        iterations=rounds,
        reports=obj.reports(best),
    )


def verify_candidate(record: SearchRecord, settings: SearchSettings | None = None) -> float:
    """Recompute a record's objective at 100x tighter root tolerance.

    Counterexample protocol: a value above ``1 + COUNTEREXAMPLE_MARGIN`` is
    only believed if it survives this re-verification.
    """
    settings = settings or SearchSettings()
    tight = settings.solver.tightened()
    if record.objective_id == "M_MINUS2":
        obj = _MMinus2Objective(len(record.zeros), tight)
        return obj.value(SendovInstance(record.a, record.zeros[1:]))
    obj = _RatioObjective(record.objective_id, len(record.zeros), tight)
    return obj.value(record.zeros)
