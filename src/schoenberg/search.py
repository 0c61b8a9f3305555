"""Randomized ensembles and derivative-free search for extremal configurations.

Sampling is reproducible by construction: sample i of an ensemble is a
pure function of ``(ensemble.seed, i)`` through a single derived 64-bit
seed ``sample_seed(ensemble.seed, i)``, so records can be regenerated
from their seed alone.  ``_samples(ensemble, indices)`` is the one
stacked draw: it derives the seeds of many samples and their PCG64
states on one stack, bit for bit as numpy's ``SeedSequence`` would, and
returns the seeds with the (b, n) zeros stack, so every row equals
:func:`sample_one` of its index.  ``sample_one`` draws its single row
with numpy's own seeding, which is cheaper for one row.  Both draw
through ``_draw_rows``, where each sample's generator makes one call per
distribution and the draws stack as one array.  A sendov-boundary row is
``inst.zeros()``, a first.

The search maximizes either an inequality slack ratio lhs/rhs (how close
a configuration comes to saturating a bound) or the M_{-2} power mean of
a Sendov instance, by Nelder-Mead (Nelder & Mead 1965) over the
real/imaginary parts of the zeros with projection back onto the
constraint set; a ratio is scored in its zeros' exact power-of-two frame.

The starts of one search advance in lockstep, in ``rootfind._in_blocks``
row blocks.  One batched critical-point solve scores every start simplex;
then each round evaluates the reflection, expansion and inside
contraction of every active row with one more, and only the rows that
shrink make a second.  The solver takes no starting points and treats
each row on its own; a row it cannot solve is scored -inf.  Each row
stops on its own, when its simplex spread falls below the step tolerance
or its round budget is spent, so a start's record does not depend on the
other starts of its batch.  Any finite objective value above 1 + 1e-6 is
a counterexample candidate; ``_confirmed`` is the one rule that confirms
candidates, for every command, and :func:`verify_candidate` is it on one row.

A round is small-batch work: with KT at n = 6 and two starts (six trial
rows a call), it takes about 260 us on a 2-vCPU VM, timed stage by stage
inside whole searches.  About 75 us is LAPACK's eigenvalue solve, 80 us
the rest of the critical-point kernel, 40 us the scoring around the solve
and 55 us the Nelder-Mead bookkeeping with the decoding of its trial
points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_SEED, TOL_CENTER
from .errors import ConvergenceError, InvalidInputError, RejectedStartError
from .inequalities import CENTERED_IDS, evaluate_ensemble, lookup, row_reports
from .poly import _frame, as_zeros, centroid_residual, recenter
from .rootfind import RootSolverSettings, _in_blocks, critical_points, critical_points_batch  # noqa: F401 (perfbench wraps search.critical_points)
from .sendov import SendovInstance, distance_columns, special_case_reports

__all__ = [
    "ENSEMBLE_KINDS",
    "Ensemble",
    "sample_seed",
    "sample_one",
    "sample",
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

# A Nelder-Mead row retires when its simplex spread falls below the step
# tolerance; its start simplex steps coordinate x by the initial step times max(1, |x|).
_STEP_TOL = 1e-9
_INITIAL_STEP = 0.1
# Elements of one lockstep block's decoded simplices (rows, dim + 1, n): 1 MiB, 32 starts at n = 32.
_LOCKSTEP_BUDGET = 1 << 16


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
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.scale < np.inf:
            raise InvalidInputError(f"perturbation scale must be nonnegative and finite, got {self.scale}")
        if self.kind == "sendov-boundary" and self.recenter:
            raise InvalidInputError("sendov-boundary instances cannot be recentered")


def sample_seed(seed: int, index: int) -> int:
    """Derived 64-bit per-sample seed: a stable hash of (seed, index)."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1, np.uint64)[0])


# numpy's SeedSequence (numpy/random/bit_generator.pyx) on stacks: the same
# hashmix/mix of a pool of 4 uint32 words, computed on uint32 columns with
# one entry per row.  One row costs far more than numpy's own scalar path,
# so it serves stacks only; the tests hold it to numpy's results bit for bit.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hash of a uint32 column: XOR the constant, step it, multiply by it, xorshift."""

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hash_


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> np.uint32(16)


def _mixed_pool(entropy: list) -> list:
    """``SeedSequence(row).pool`` of each row, as 4 uint32 columns; ``entropy`` is the rows' uint32 word columns."""
    hash_ = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hash_(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_(word))
    return pool


def _generate_state(pool: list, n_words: int) -> np.ndarray:
    """``SeedSequence.generate_state(n_words, np.uint64)`` of each row of a mixed pool, as (rows, n_words)."""
    hash_ = _hasher(_INIT_B, _MULT_B)
    halves = [hash_(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * n_words)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(halves[::2], halves[1::2])], axis=1)


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words numpy reads a nonnegative int as (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _sample_seeds(seed: int, indices) -> list[int]:
    """``[sample_seed(seed, i) for i in indices]``, derived on one stack."""
    index = np.array(indices, dtype=np.uint64)
    head = _uint32_words(int(seed))
    out = np.empty(index.size, dtype=np.uint64)
    # An index of 2**32 or more is two entropy words; past the pool's 4 words the count changes the mix.
    wide = index > _MASK32
    for rows, n_words in ((~wide, 1), (wide, 2)):
        part = index[rows]
        if part.size:
            entropy = [np.full(part.size, word, dtype=np.uint32) for word in head]
            entropy += [(part >> np.uint64(32 * k)).astype(np.uint32) for k in range(n_words)]
            out[rows] = _generate_state(_mixed_pool(entropy), 1)[:, 0]
    return out.tolist()


@functools.cache
def _preset_seed_sequence() -> type:
    """A numpy ``ISeedSequence`` that hands PCG64 the state words it was made with.

    Made on first use: a subclass defined at import would load numpy.random eagerly.
    """

    class PresetSeedSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return PresetSeedSequence


def _rngs(derived_seeds) -> list[np.random.Generator]:
    """``[Generator(PCG64(s)) for s in derived_seeds]``: PCG64's seed words mixed on one stack, then numpy's own seeding."""
    seeds = np.array(derived_seeds, dtype=np.uint64)
    # A seed below 2**32 is one entropy word: its zero high word hashes as the pool's padding does.
    states = _generate_state(_mixed_pool([seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]), 4)
    preset = _preset_seed_sequence()
    return [np.random.Generator(np.random.PCG64(preset(state))) for state in states]


def _complex_normal(re, im):
    return (re + 1j * im) / np.sqrt(2.0)


def _draw_rows(ensemble: Ensemble, rngs) -> np.ndarray:
    """The (len(rngs), n) zeros stack, row i drawn from ``rngs[i]``; a sendov-boundary row is ``inst.zeros()``, a first.

    Each generator makes one call per distribution, in one fixed order, and
    the draws stack as one array of equal-length rows; the arithmetic then
    runs once on the stack, elementwise, so a row does not depend on the
    other rows of its stack.  ``uniform(0, t, k)`` is ``t * random(k)`` on
    the same stream, and one ``standard_normal`` call reads the stream as
    two shorter ones would.
    """
    n = ensemble.n
    kind = ensemble.kind
    if kind == "uniform-disk":  # n radii's uniforms, then n angles'
        u = np.array([rng.random(2 * n) for rng in rngs])
        zeros = np.sqrt(u[:, :n]) * np.exp(1j * (2.0 * np.pi * u[:, n:]))
    elif kind in ("gaussian", "roots-of-unity-perturbed"):  # n real parts, then n imaginary parts
        g = np.array([rng.standard_normal(2 * n) for rng in rngs])
        zeros = _complex_normal(g[:, :n], g[:, n:])
        if kind == "roots-of-unity-perturbed":
            zeros = np.exp(2j * np.pi * np.arange(n) / n) + ensemble.scale * zeros
    elif kind == "collinear":  # the center's two normals, the angle's uniform, n offsets
        g = np.array([np.concatenate((rng.standard_normal(2), [rng.random()], rng.standard_normal(n))) for rng in rngs])
        # The center is a Python complex, as numpy's complex division would round it differently.
        center = np.array([_complex_normal(re, im) for re, im in g[:, :2].tolist()])
        zeros = center[:, np.newaxis] + g[:, 3:] * np.exp(1j * (2.0 * np.pi * g[:, 2:3]))
    else:  # sendov-boundary: a's uniform, then n - 1 angles'
        u = np.array([rng.random(n) for rng in rngs])
        zeros = np.empty((len(u), n), dtype=complex)
        zeros[:, 0] = u[:, 0]
        zeros[:, 1:] = np.exp(1j * (2.0 * np.pi * u[:, 1:]))
    if ensemble.recenter:
        zeros = recenter(zeros)
    return zeros


def _samples(ensemble: Ensemble, indices) -> tuple[list[int], np.ndarray]:
    """The derived seeds of samples ``indices`` and their (len(indices), n) zeros stack, drawn on one stack."""
    seeds = _sample_seeds(ensemble.seed, indices)
    return seeds, _draw_rows(ensemble, _rngs(seeds))


def _sendov_instance(row) -> SendovInstance:
    """The SendovInstance of an a-first zeros row."""
    return SendovInstance(a=float(row[0].real), other_zeros=row[1:])


def sample_one(ensemble: Ensemble, index: int):
    """Sample ``index`` of the ensemble: a zeros array, or a SendovInstance."""
    # numpy's own seeding: for one row it costs far less than the stacked derivation.
    zeros = _draw_rows(ensemble, [np.random.Generator(np.random.PCG64(sample_seed(ensemble.seed, index)))])[0]
    return _sendov_instance(zeros) if ensemble.kind == "sendov-boundary" else zeros


def sample(ensemble: Ensemble):
    """Generator over the ensemble's samples, in index order."""
    for i in range(ensemble.count):
        yield sample_one(ensemble, i)


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
        self.solver = solver
        self.sendov = objective_id == "M_MINUS2"
        self.inequality = None if self.sendov else lookup(objective_id, n)
        self.centered = not self.sendov and self.inequality.centered

    def encode(self, zs) -> np.ndarray:
        """Packed coordinates of a (rows, n) zeros stack; the inverse of :meth:`decode`."""
        free = zs[:, 1:] if self.sendov else zs[:, :-1] if self.centered else zs
        x = np.stack([free.real, free.imag], axis=-1).reshape(zs.shape[0], -1)
        return np.concatenate([zs[:, :1].real, x], axis=1) if self.sendov else x

    def decode(self, x) -> np.ndarray:
        """The (rows, n) zeros stack of packed coordinates: their (re, im) pairs viewed as complex, then projected or completed."""
        z = np.ascontiguousarray(x[:, 1:] if self.sendov else x).view(complex)
        if self.sendov:
            a = np.clip(x[:, :1], 0.0, 1.0)
            return np.concatenate([a.astype(complex), z / np.maximum(1.0, np.abs(z))], axis=1)
        if self.centered:
            z = np.concatenate([z, -z.sum(axis=1, keepdims=True)], axis=1)
        return z

    def values(self, zs) -> np.ndarray:
        """Values of a zeros stack from one solve: a ratio solved and scored in its zeros'
        ``_frame``, M_MINUS2 in caller units; -inf where unsolved, undefined or not finite.
        """
        zs = zs if self.sendov else _frame(zs)[0]
        failed = None
        try:
            w = critical_points_batch(zs, self.solver)
        except ConvergenceError as err:
            w, failed = err.best, err.rows
        except InvalidInputError:  # some zeros are not finite: those rows score -inf, the others as alone
            finite = np.isfinite(zs).all(axis=1)
            if finite.all():
                raise
            f = np.full(zs.shape[0], -np.inf)
            if finite.any():
                f[finite] = self.values(zs[finite])
            return f
        f = distance_columns(zs, w).m_minus2 if self.sendov else self._ratios(zs, w)
        if failed is not None:
            f[failed] = -np.inf
        return f

    @np.errstate(all="ignore")
    def _ratios(self, zs, w) -> np.ndarray:
        lhs, rhs = self.inequality.evaluate(zs, w)
        return np.where(np.isfinite(rhs) & (rhs > 1e-150) & np.isfinite(lhs), lhs / rhs, -np.inf)

    def reports(self, zs):
        """The report list of each row of a zeros stack, from one batched evaluation."""
        if self.sendov:
            return special_case_reports(zs, distance_columns(zs, critical_points_batch(zs, self.solver)))
        return row_reports(evaluate_ensemble(zs, self.solver))


# ---------------------------------------------------------------------------
# lockstep Nelder-Mead with projection (projection happens in decode)

@np.errstate(over="ignore", invalid="ignore")
def _nelder_mead(obj: _Objective, x0, max_iterations: int):
    """Run one Nelder-Mead per row of ``x0`` in lockstep, minimizing the negated objective.

    One call scores every start simplex and drops the rows whose start is
    not finite.  Then a round sorts every active simplex, retires the rows
    whose spread is below the step tolerance, and evaluates the
    reflection, expansion and inside contraction of all other rows in one
    call; only the rows that then shrink make a second.  Each row takes the
    steps it would take alone.  A trial point whose coordinates or decoded
    zeros overflow scores -inf, without a warning.  Returns the kept rows
    with their negated start values, best values and points, and rounds.
    """
    b, dim = x0.shape
    simplex = np.repeat(x0[:, np.newaxis, :], dim + 1, axis=1)
    diag = np.arange(dim)
    simplex[:, diag + 1, diag] += _INITIAL_STEP * np.maximum(1.0, np.abs(x0))
    best_f, best_x = np.full(b, np.inf), x0.copy()

    def evaluate(points, rows):
        """Negated objective of ``points`` (m, k, dim), point j of row ``rows[i]`` at [i, j]; one solve."""
        f = -obj.values(obj.decode(points.reshape(-1, dim))).reshape(points.shape[:2])
        j = f.argmin(axis=1)
        fj = f[np.arange(f.shape[0]), j]
        better = fj < best_f[rows]  # each row's best point so far; a tie keeps the earlier one
        if better.any():
            i = better.nonzero()[0]
            best_f[rows[i]] = fj[i]
            best_x[rows[i]] = points[i, j[i]]
        return f

    values = evaluate(simplex, np.arange(b))
    kept = np.flatnonzero(np.isfinite(values[:, 0]))
    simplex, values, best_f, best_x = simplex[kept], values[kept], best_f[kept], best_x[kept]
    start = values[:, 0].copy()
    rows = pos = np.arange(kept.size)  # the active rows; simplex and values hold theirs only, at positions pos
    rounds = np.full(kept.size, max_iterations)
    # The reflection, expansion and inside contraction are centroid + t * step.
    t = np.array([1.0, 2.0, -0.5])[:, np.newaxis]
    for it in range(1, max_iterations + 1):
        order = values.argsort(axis=1, kind="stable")
        s, v = simplex[pos[:, np.newaxis], order], values[pos[:, np.newaxis], order]
        done = np.abs(s[:, 1:] - s[:, :1]).reshape(rows.size, dim * dim).max(axis=1) < _STEP_TOL
        if done.any():
            rounds[rows[done]] = it
            rows, s, v = rows[~done], s[~done], v[~done]
            pos = np.arange(rows.size)
        if rows.size == 0:
            break
        centroid = s[:, :-1].sum(axis=1) / dim
        step = centroid - s[:, -1]
        trial = centroid[:, np.newaxis] + t * step[:, np.newaxis]
        f = evaluate(trial, rows)
        fr, fe, fc = f.T
        improved = fr < v[:, 0]
        expand = improved & (fe < fr)  # else an improved row reflects
        reflected = improved | (fr < v[:, -2])  # the rows that take their reflection or expansion
        contracted = fc < v[:, -1]  # taken by a row that does not reflect
        accept = reflected | contracted
        pick = np.where(contracted > reflected, 2, expand)  # the trial point each accepting row takes; > is "and not"
        np.copyto(s[:, -1], trial[pos, pick], where=accept[:, np.newaxis])
        v[:, -1] = f[pos, pick]  # a shrinking row re-evaluates it below
        if not accept.all():
            shrink = (~accept).nonzero()[0]
            best = s[shrink, :1]
            s[shrink, 1:] = best + 0.5 * (s[shrink, 1:] - best)
            v[shrink, 1:] = evaluate(s[shrink, 1:], rows[shrink])
        simplex, values = s, v
    return kept, start, best_f, best_x, rounds


@dataclass(frozen=True)
class SearchSettings:
    """The round budget of each ascent and the solver settings of its solves."""

    max_iterations: int = 200
    solver: RootSolverSettings = field(default_factory=RootSolverSettings)

    def __post_init__(self):
        if self.max_iterations < 0:
            raise InvalidInputError("max_iterations must be nonnegative")


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


def _start_stack(objective_id: str, starts) -> np.ndarray:
    """The starts as one (b, n) zeros stack the objective accepts; a Sendov start's row is ``start.zeros()``."""
    if objective_id == "M_MINUS2":
        if not all(isinstance(start, SendovInstance) for start in starts):
            raise InvalidInputError("M_MINUS2 objective needs SendovInstance starts")
        rows = [start.zeros() for start in starts]
    else:
        rows = [as_zeros(start) for start in starts]
        if objective_id in CENTERED_IDS and any(centroid_residual(row) > TOL_CENTER for row in rows):
            raise InvalidInputError(f"objective {objective_id} requires centered starts")
    degrees = {row.shape[0] for row in rows}
    if len(degrees) > 1:
        raise InvalidInputError(f"starts of one search must share one degree, got {sorted(degrees)}")
    return np.array(rows)


def maximize_batch(objective_id: str, starts, settings: SearchSettings | None = None, *, sample_seeds=None) -> list:
    """Derivative-free ascents of one objective from many starts, run in lockstep.

    Returns one :class:`SearchRecord` per start, in order, labelled with
    its ``sample_seeds`` entry, or None for a start where the objective is
    undefined (that start is dropped).  All ascents advance together as
    rows of one stack of simplices: one batched call scores every start
    simplex, each Nelder-Mead round solves the trial points of every
    active row in one more, and the final reports of all ascents take one
    batched evaluation.  The lockstep runs in ``rootfind._in_blocks`` row
    blocks of at most ``_LOCKSTEP_BUDGET`` decoded zeros, so its memory
    is bounded.  The solver treats each row on its own, a row it cannot
    solve is scored -inf, and each row stops on its own, so every record
    equals that of :func:`maximize` on its start alone, bit for bit.
    """
    settings = settings or SearchSettings()
    starts = list(starts)
    seeds = [0] * len(starts) if sample_seeds is None else list(sample_seeds)
    if len(seeds) != len(starts):
        raise InvalidInputError(f"got {len(seeds)} sample seeds for {len(starts)} starts")
    if not starts:
        return []
    zs = _start_stack(objective_id, starts)
    obj = _Objective(objective_id, zs.shape[1], settings.solver)

    def lockstep(x0):  # the kept rows as a mask, so row blocks join as one call
        kept, *rest = _nelder_mead(obj, x0, settings.max_iterations)
        return np.isin(np.arange(x0.shape[0]), kept), *rest
    x0 = obj.encode(zs)
    mask, start, best_f, best_x, rounds = _in_blocks(lockstep, (x0.shape[1] + 1) * zs.shape[1], x0, budget=_LOCKSTEP_BUDGET)
    best = obj.decode(best_x)
    records = [None] * len(starts)
    for i, zeros, value, start_value, its, reports in zip(np.flatnonzero(mask), best, -best_f, -start, rounds, obj.reports(best)):
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
    when the simplex spread falls below the step tolerance or after
    ``max_iterations`` rounds.
    """
    (record,) = maximize_batch(objective_id, [start], settings, sample_seeds=[sample_seed])
    if record is None:
        raise RejectedStartError(f"objective {objective_id} undefined at the start configuration")
    return record


# A finite objective value above 1 + this margin is a counterexample candidate.
COUNTEREXAMPLE_MARGIN = 1e-6


def _confirmed(objective_id: str, zs, values, solver: RootSolverSettings) -> tuple[np.ndarray, np.ndarray]:
    """The counterexample rule: the (b,) confirmed mask of a zeros stack's ``values``, and the values re-scored.

    Only the candidates, finite values above ``1 + COUNTEREXAMPLE_MARGIN``,
    are re-scored (in a copy of ``values``), in one objective call at the
    solver's gate tightened 100x; a candidate is confirmed if its re-score
    still exceeds the margin.  The solver is deterministic, so a re-score
    equals the first score, or is -inf where the row fails the tightened
    gate and stays unconfirmed: a stricter acceptance test, not an independent method.
    """
    values = np.array(values, dtype=float)
    candidates = np.isfinite(values) & (values > 1.0 + COUNTEREXAMPLE_MARGIN)
    if candidates.any():
        values[candidates] = _Objective(objective_id, zs.shape[1], solver.tightened()).values(zs[candidates])
    return candidates & (values > 1.0 + COUNTEREXAMPLE_MARGIN), values


def verify_candidate(record: SearchRecord, settings: SearchSettings | None = None) -> float:
    """A record's objective value after the counterexample rule ``_confirmed`` on its one row.

    A candidate, a value above ``1 + COUNTEREXAMPLE_MARGIN``, is re-scored
    with the solver's gate tightened 100x and believed only if the
    re-score still exceeds the margin; it is -inf where the tightened gate
    fails.  A value that is no candidate is returned as it is.
    """
    settings = settings or SearchSettings()
    _, values = _confirmed(record.objective_id, record.zeros[np.newaxis], [record.objective_value], settings.solver)
    return float(values[0])
