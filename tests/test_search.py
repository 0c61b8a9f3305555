"""Ensemble sampling and the derivative-free ascent."""

import dataclasses
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from schoenberg import cli, search
from schoenberg.errors import InvalidInputError, RejectedStartError
from schoenberg.matrices import is_normal, sds_matrix
from schoenberg.poly import centroid_residual, recenter
from schoenberg.rootfind import RootSolverSettings, critical_points_batch
from schoenberg.search import (
    ENSEMBLE_KINDS,
    Ensemble,
    SearchSettings,
    maximize,
    maximize_batch,
    sample,
    sample_one,
    sample_seed,
    verify_candidate,
)
from schoenberg.sendov import SendovInstance


def test_ensemble_validation():
    with pytest.raises(InvalidInputError):
        Ensemble(kind="nope", n=4, count=1)
    with pytest.raises(InvalidInputError):
        Ensemble(kind="gaussian", n=1, count=1)
    with pytest.raises(InvalidInputError):
        Ensemble(kind="gaussian", n=4, count=0)
    with pytest.raises(InvalidInputError):
        Ensemble(kind="sendov-boundary", n=4, count=1, recenter=True)
    with pytest.raises(InvalidInputError):
        Ensemble(kind="gaussian", n=4, count=1, seed=-1)
    for scale in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidInputError, match=f"perturbation scale must be nonnegative and finite, got {scale}"):
            Ensemble(kind="roots-of-unity-perturbed", n=4, count=2, scale=scale)


def test_sample_streams_are_reproducible():
    for kind in ENSEMBLE_KINDS:
        ens = Ensemble(kind=kind, n=5, count=4, seed=901)
        first = list(sample(ens))
        second = list(sample(ens))
        for a, b in zip(first, second):
            if kind == "sendov-boundary":
                assert a.a == b.a
                np.testing.assert_array_equal(a.other_zeros, b.other_zeros)
            else:
                np.testing.assert_array_equal(a, b)


def test_sample_seed_is_index_stable():
    ens = Ensemble(kind="gaussian", n=4, count=10, seed=17)
    np.testing.assert_array_equal(sample_one(ens, 7), list(sample(ens))[7])
    assert sample_seed(17, 7) == sample_seed(17, 7)
    assert sample_seed(17, 7) != sample_seed(17, 8)
    assert sample_seed(18, 7) != sample_seed(17, 7)


@pytest.mark.parametrize("kind, recenter", [
    *((kind, False) for kind in ENSEMBLE_KINDS),
    *((kind, True) for kind in ENSEMBLE_KINDS if kind != "sendov-boundary"),
])
def test_draw_from_the_derived_seed_is_sample_one(kind, recenter):
    ens = Ensemble(kind=kind, n=6, count=5, seed=2024, recenter=recenter)
    seeds, stack = search._samples(ens, range(ens.count))
    assert seeds == [sample_seed(ens.seed, i) for i in range(ens.count)]
    assert stack.shape == (ens.count, ens.n)
    for i in range(ens.count):
        one = sample_one(ens, i)
        if kind == "sendov-boundary":
            assert type(one.a) is float
            one = one.zeros()
        assert stack[i].dtype == one.dtype and stack[i].tobytes() == one.tobytes()


def _spec_row(ens, index) -> np.ndarray:
    """Sample ``index``, drawn with one numpy call per variable on its own generator.

    The stream's executable spec: uniform-disk reads ``uniform(0, 1, n)`` then
    ``uniform(0, 2 pi, n)``, the normal kinds two ``standard_normal(n)``,
    collinear two ``standard_normal()``, ``uniform(0, 2 pi)`` and
    ``standard_normal(n)``, sendov-boundary ``uniform(0, 1)`` then
    ``uniform(0, 2 pi, n - 1)``.
    """
    rng = np.random.Generator(np.random.PCG64(sample_seed(ens.seed, index)))
    n = ens.n
    if ens.kind == "uniform-disk":
        u = rng.uniform(0.0, 1.0, n)
        zeros = np.sqrt(u) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    elif ens.kind in ("gaussian", "roots-of-unity-perturbed"):
        re = rng.standard_normal(n)
        zeros = (re + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        if ens.kind == "roots-of-unity-perturbed":
            zeros = np.exp(2j * np.pi * np.arange(n) / n) + ens.scale * zeros
    elif ens.kind == "collinear":
        re = rng.standard_normal()
        center = (re + 1j * rng.standard_normal()) / np.sqrt(2.0)  # a Python complex
        angle = np.array([rng.uniform(0.0, 2.0 * np.pi)])
        zeros = center + rng.standard_normal(n) * np.exp(1j * angle)
    else:
        a = rng.uniform(0.0, 1.0)
        zeros = np.concatenate([[complex(a)], np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n - 1))])
    return recenter(zeros) if ens.recenter else zeros


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("kind, recenter", [
    *((kind, False) for kind in ENSEMBLE_KINDS),
    *((kind, True) for kind in ENSEMBLE_KINDS if kind != "sendov-boundary"),
])
def test_draw_equals_its_executable_spec_byte_for_byte(kind, recenter, n, monkeypatch):
    # The stacked draw and sample_one make one call per distribution and
    # the spec one per variable, so a change of stream or of rounding in
    # either shows here, which comparing the two with each other misses.
    monkeypatch.setattr(cli, "_CHUNK", 4)
    for seed in (1729, 2**32 + 1729):
        ens = Ensemble(kind=kind, n=n, count=10, seed=seed, recenter=recenter)
        spec = np.array([_spec_row(ens, i) for i in range(ens.count)])
        chunks = list(cli._chunks(ens.count, lambda indices: search._samples(ens, indices)))
        assert [len(seeds) for seeds, _ in chunks] == [4, 4, 2]
        assert np.concatenate([zs for _, zs in chunks]).tobytes() == spec.tobytes()
        for i in range(ens.count):
            one = sample_one(ens, i)
            assert (one.zeros() if kind == "sendov-boundary" else one).tobytes() == spec[i].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 1729, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5])
def test_stacked_sample_seeds_equal_numpy(seed):
    # 2**96 + 5 is five entropy words with the index, past the pool of four.
    assert search._sample_seeds(seed, range(2000)) == [sample_seed(seed, i) for i in range(2000)]


@pytest.mark.parametrize("index", [2**32 - 1, 2**32, 2**40 + 3])
def test_stacked_sample_seeds_equal_numpy_on_wide_indices(index):
    indices = [0, index, 5, index + 1]
    for seed in (1729, 2**96 + 5):
        assert search._sample_seeds(seed, indices) == [sample_seed(seed, i) for i in indices]


def _assert_pcg64_states_equal_numpy(seeds):
    rngs = search._rngs(seeds)
    assert len(rngs) == len(seeds)
    for rng, seed in zip(rngs, seeds):
        assert rng.bit_generator.state == np.random.PCG64(seed).state


def test_stacked_pcg64_states_equal_numpy_at_word_edges():
    _assert_pcg64_states_equal_numpy([0, 2**32 - 1, 2**32, 2**64 - 1])


@hypothesis.settings(derandomize=True, max_examples=50, deadline=None)
@hypothesis.given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
def test_stacked_pcg64_states_equal_numpy(seeds):
    _assert_pcg64_states_equal_numpy(seeds)


def test_uniform_disk_stays_in_disk():
    ens = Ensemble(kind="uniform-disk", n=8, count=50, seed=3)
    zs = search._samples(ens, range(ens.count))[1]
    assert np.abs(zs).max() <= 1.0


def test_collinear_samples_are_collinear_and_normal():
    ens = Ensemble(kind="collinear", n=6, count=20, seed=5, recenter=True)
    for z in sample(ens):
        assert abs(z.sum()) <= 1e-12 * max(1, np.abs(z).max())
        assert is_normal(sds_matrix(z), tol=1e-10)


def test_roots_of_unity_zero_perturbation_is_exact():
    ens = Ensemble(kind="roots-of-unity-perturbed", n=6, count=3, seed=9, scale=0.0)
    base = np.exp(2j * np.pi * np.arange(6) / 6)
    for z in sample(ens):
        np.testing.assert_array_equal(z, base)
        assert abs(z.sum()) <= 1e-14


def test_sendov_boundary_samples():
    ens = Ensemble(kind="sendov-boundary", n=5, count=20, seed=11)
    zs = search._samples(ens, range(ens.count))[1]
    # Each row is the a-first zeros of the sampled instance.
    np.testing.assert_array_equal(zs, [inst.zeros() for inst in sample(ens)])
    a_vals, others = zs[:, 0], zs[:, 1:]
    assert (a_vals.imag == 0).all() and ((0 <= a_vals.real) & (a_vals.real <= 1)).all()
    np.testing.assert_allclose(np.abs(others), 1.0, atol=1e-14)


def test_maximize_st1_sharp_start_cannot_exceed_one():
    start = np.array([0, 0, 0, 1, -1], dtype=complex)
    rec = maximize("ST1", start, SearchSettings(max_iterations=50))
    assert rec.start_value == pytest.approx(1.0, abs=1e-9)
    assert rec.objective_value <= 1.0 + 1e-6
    assert rec.objective_value >= rec.start_value


def test_maximize_kt_collinear_start_stays_at_equality():
    start = recenter(np.array([0.3, -1.2, 0.9, 2.0], dtype=complex))
    rec = maximize("KT", start, SearchSettings(max_iterations=50))
    assert rec.start_value == pytest.approx(1.0, abs=1e-10)
    assert abs(rec.objective_value - 1.0) <= 1e-8


def test_maximize_m_minus2_paper_start():
    inst = SendovInstance(a=1.0, other_zeros=np.array([-1.0, -1.0]))
    rec = maximize("M_MINUS2", inst, SearchSettings(max_iterations=80))
    assert rec.objective_value <= 1.0 + 1e-8
    assert rec.objective_value >= rec.start_value
    assert rec.a is not None and 0 <= rec.a <= 1
    assert np.abs(rec.zeros[1:]).max() <= 1 + 1e-12


def test_maximize_monotone_and_constraints():
    rng = np.random.default_rng(201)
    ens = Ensemble(kind="uniform-disk", n=4, count=3, seed=77, recenter=True)
    for i, start in enumerate(sample(ens)):
        rec = maximize("STAR", start, SearchSettings(max_iterations=40), sample_seed=sample_seed(77, i))
        assert rec.objective_value >= rec.start_value
        assert centroid_residual(rec.zeros) <= 1e-10
        assert rec.objective_value <= 1 + 1e-6
        assert rec.iterations >= 1
        assert rec.reports  # full report set attached


def test_maximize_uncentered_objective():
    rng = np.random.default_rng(203)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rec = maximize("S", z, SearchSettings(max_iterations=40))
    assert rec.objective_value <= 1 + 1e-6
    assert rec.objective_value >= rec.start_value


def test_maximize_rejects_degenerate_start():
    with pytest.raises(RejectedStartError):
        maximize("KT", np.zeros(4, dtype=complex), SearchSettings(max_iterations=5))


def test_maximize_requires_centered_start_for_centered_ids():
    with pytest.raises(InvalidInputError):
        maximize("KT", np.array([1.0, 2.0, 3.0]), SearchSettings(max_iterations=5))


def test_maximize_unknown_objective():
    with pytest.raises(InvalidInputError):
        maximize("WAT", np.array([1.0, -1.0]), SearchSettings(max_iterations=5))


def test_verify_candidate_reproduces_value(monkeypatch):
    inst = SendovInstance(a=0.9, other_zeros=np.exp(1j * np.array([0.5, 2.0, 4.0])))
    rec = maximize("M_MINUS2", inst, SearchSettings(max_iterations=30))
    calls = []
    solve = search.critical_points_batch
    monkeypatch.setattr(search, "critical_points_batch", lambda zs, s: calls.append(s) or solve(zs, s))
    # A candidate is re-scored in one solve at the tightened gate; the
    # solver is deterministic, so its re-score is its zeros' own value.
    assert verify_candidate(dataclasses.replace(rec, objective_value=1.5)) == rec.objective_value < 1.0
    assert calls == [RootSolverSettings().tightened()]
    # A value that is no candidate is returned as it is, with no solve.
    assert verify_candidate(rec) == rec.objective_value
    assert len(calls) == 1


@pytest.mark.parametrize("changes", [{"max_iterations": -1}])
def test_search_settings_reject_bad_values(changes):
    with pytest.raises(InvalidInputError):
        SearchSettings(**changes)


def test_search_settings_zero_budget_scores_the_start_simplex():
    start = recenter(np.array([0.3, -1.2, 0.9, 2.0j], dtype=complex))
    rec = maximize("KT", start, SearchSettings(max_iterations=0))
    assert rec.iterations == 0 and rec.objective_value >= rec.start_value


@pytest.mark.parametrize(
    "objective, kind, n",
    [("KT", "uniform-disk", 5), ("S", "gaussian", 4), ("M_MINUS2", "sendov-boundary", 4), ("M_MINUS2", "sendov-boundary", 3)],
)
def test_batched_search_equals_single_ascents(monkeypatch, objective, kind, n):
    ens = Ensemble(kind=kind, n=n, count=3, seed=404, recenter=objective == "KT")
    starts = list(sample(ens))
    seeds = [sample_seed(404, i) for i in range(3)]
    if objective != "M_MINUS2":  # the objective is undefined at all-zeros
        starts.insert(1, np.zeros(n, dtype=complex))
        seeds.insert(1, 7)
    calls = []  # rows of each batched scoring
    values = search._Objective.values

    def counting(self, zs):
        calls.append(len(zs))
        return values(self, zs)

    monkeypatch.setattr(search._Objective, "values", counting)
    # A loose step tolerance lets the rows stop in different rounds.
    monkeypatch.setattr(search, "_STEP_TOL", 1e-3)
    settings = SearchSettings(max_iterations=150)
    batch = maximize_batch(objective, starts, settings, sample_seeds=seeds)
    assert len(batch) == len(starts)
    assert sum(rec is None for rec in batch) == (objective != "M_MINUS2")
    assert len({rec.iterations for rec in batch if rec is not None}) > 1
    # Call 0 scores every start simplex (dim + 1 points per start); then each
    # round makes a trial call (3 points per active row) and, if some row
    # shrinks, a shrink call (dim points per shrinking row).  With at most 3
    # active rows and dim not a multiple of 3, a call's row count tells which.
    dim = {"KT": 2 * n - 2, "S": 2 * n, "M_MINUS2": 2 * n - 1}[objective]
    assert calls[0] == len(starts) * (dim + 1) and dim % 3
    steps = [("trial", rows // 3) if rows % 3 == 0 and rows <= 9 else ("shrink", rows // dim) for rows in calls[1:]]
    assert [3 * m if kind == "trial" else dim * m for kind, m in steps] == calls[1:]
    trials = [m for kind, m in steps if kind == "trial"]
    assert any(0 < after < before for before, after in zip(trials, trials[1:]))  # a row retires, one goes on
    if objective == "M_MINUS2":  # the projection onto the constraints makes rows shrink
        assert any(
            (k1, k2) == ("trial", "shrink") and m2 < m1 for (k1, m1), (k2, m2) in zip(steps, steps[1:])
        )
    for start, seed, rec in zip(starts, seeds, batch):
        if rec is None:
            with pytest.raises(RejectedStartError):
                maximize(objective, start, settings)
            continue
        one = maximize(objective, start, settings, sample_seed=seed)
        np.testing.assert_array_equal(rec.zeros, one.zeros)
        assert (rec.sample_seed, rec.a, rec.objective_value, rec.start_value, rec.iterations) == (
            one.sample_seed, one.a, one.objective_value, one.start_value, one.iterations
        )
        assert rec.reports == one.reports


def test_lockstep_runs_in_row_blocks_and_joins_as_one_call(monkeypatch):
    # KT at n = 4 packs dim = 6 coordinates; a budget of 2 * 7 * 4 elements gives blocks of 2 starts.
    starts = list(sample(Ensemble(kind="uniform-disk", n=4, count=6, seed=11, recenter=True)))
    starts.insert(2, np.zeros(4, dtype=complex))  # undefined: dropped inside the second block
    seeds = list(range(len(starts)))
    settings = SearchSettings(max_iterations=40)
    whole = maximize_batch("KT", starts, settings, sample_seeds=seeds)
    blocks = []
    nelder_mead = search._nelder_mead

    def counting(obj, x0, budget):
        blocks.append(len(x0))
        return nelder_mead(obj, x0, budget)

    monkeypatch.setattr(search, "_nelder_mead", counting)
    monkeypatch.setattr(search, "_LOCKSTEP_BUDGET", 2 * 7 * 4)
    blocked = maximize_batch("KT", starts, settings, sample_seeds=seeds)
    assert blocks == [2, 2, 2, 1]
    assert [rec is None for rec in blocked] == [i == 2 for i in range(7)]
    for rec, one in zip(blocked, whole):
        if one is None:
            assert rec is None
            continue
        np.testing.assert_array_equal(rec.zeros, one.zeros)
        assert (rec.sample_seed, rec.objective_value, rec.start_value, rec.iterations, rec.reports) == (
            one.sample_seed, one.objective_value, one.start_value, one.iterations, one.reports
        )


@pytest.mark.parametrize("given", [1, 3])
def test_sample_seeds_must_match_the_starts(monkeypatch, given):
    starts = list(sample(Ensemble(kind="gaussian", n=4, count=2, seed=5)))
    solves = []
    monkeypatch.setattr(search, "critical_points_batch", lambda zs, settings: solves.append(len(zs)))
    with pytest.raises(InvalidInputError, match="sample seeds"):
        maximize_batch("S", starts, SearchSettings(max_iterations=5), sample_seeds=list(range(given)))
    assert solves == []


@pytest.mark.parametrize("objective, starts, message", [
    ("S", [np.ones(3, dtype=complex), np.ones(4, dtype=complex)], "share one degree"),
    ("M_MINUS2", [SendovInstance(a=0.5, other_zeros=np.array([1j, -1j])), np.array([0.5, 1j, -1j])], "SendovInstance"),
    ("M_MINUS2", [SendovInstance(a=0.5, other_zeros=np.array([1j, -1j])), SendovInstance(a=0.5, other_zeros=np.ones(3))],
     "share one degree"),
    ("KT", [np.array([1.0, -1.0, 0.0]), np.array([1.0, 2.0, 3.0])], "centered"),
])
def test_maximize_batch_rejects_starts_the_objective_cannot_take(objective, starts, message):
    with pytest.raises(InvalidInputError, match=message):
        maximize_batch(objective, starts, SearchSettings(max_iterations=5))


@pytest.mark.parametrize("objective", ["S", "KT", "M_MINUS2"])
def test_encode_and_decode_invert_each_other_on_stacks(objective):
    # Points inside the constraints, so decode projects nothing away.
    rng = np.random.default_rng(61)
    n = 5
    obj = search._Objective(objective, n, RootSolverSettings())
    if objective == "M_MINUS2":
        others = 0.9 * rng.uniform(0.1, 1.0, (4, n - 1)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (4, n - 1)))
        zs = np.column_stack([rng.uniform(0.0, 1.0, 4), others])
    else:
        zs = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        if obj.centered:
            zs[:, -1] = -zs[:, :-1].sum(axis=1)
    x = obj.encode(zs)
    assert x.shape == (4, {"S": 2 * n, "KT": 2 * n - 2, "M_MINUS2": 2 * n - 1}[objective])
    assert obj.decode(x).tobytes() == zs.tobytes()
    assert obj.encode(obj.decode(x)).tobytes() == x.tobytes()
    for row, packed in zip(zs, x):  # each row packs as (re, im) pairs, after a for M_MINUS2
        free = row[1:] if objective == "M_MINUS2" else row[:-1] if obj.centered else row
        head = [row[0].real] if objective == "M_MINUS2" else []
        assert packed.tobytes() == np.concatenate([head, np.column_stack([free.real, free.imag]).ravel()]).tobytes()


@pytest.mark.parametrize("objective", ["S", "KT"])
def test_decode_keeps_the_sign_of_a_zero_coordinate(objective):
    # The packed (re, im) pairs are viewed as complex, so -0.0 decodes as -0.0.
    obj = search._Objective(objective, 3, RootSolverSettings())
    z = obj.decode(np.array([[-0.0, 0.5, 0.25, -0.0] + ([] if obj.centered else [0.5, 0.5])]))[0]
    assert np.signbit(z[0].real) and not np.signbit(z[0].imag)
    assert np.signbit(z[1].imag) and not np.signbit(z[1].real)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("objective", ["KT", "S", "LXZ(2.5)"])
def test_values_score_each_ratio_row_once(monkeypatch, objective):
    # A row scaled by 2**600 has sides far out of range unless it is scored
    # in its power-of-two frame; every row is scored there, in one call.
    obj = search._Objective(objective, 6, RootSolverSettings())
    _, zs = search._samples(Ensemble(kind="uniform-disk", n=6, count=1, seed=77, recenter=True), range(1))
    zs = np.concatenate([zs, np.ldexp(zs.view(float), 600).view(complex)])
    solo = [obj.values(z[np.newaxis])[0] for z in zs]
    calls = []
    ratios = search._Objective._ratios

    def counting(self, zs, w):
        calls.append(len(zs))
        return ratios(self, zs, w)

    monkeypatch.setattr(search._Objective, "_ratios", counting)
    values = obj.values(zs)
    assert calls == [2]
    assert np.isfinite(values).all() and values.tolist() == solo and values[0] == values[1]


def test_failed_row_scores_minus_inf_and_leaves_batch_mates_alone(monkeypatch, nan_eigvals):
    # The eigenvalues of row 2 come back NaN, so only that row fails the
    # solver's gate; one call scores it -inf and its batch mates as alone.
    rng = np.random.default_rng(43)
    z = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    obj = search._Objective("S", 7, RootSolverSettings())
    solo = [obj.values(z[i : i + 1])[0] for i in range(4)]
    calls = []

    def counting(zs, settings):
        calls.append(len(zs))
        return critical_points_batch(zs, settings)

    monkeypatch.setattr(search, "critical_points_batch", counting)
    nan_eigvals(2)
    values = obj.values(z)
    assert calls == [4]
    assert values[2] == -np.inf and np.isfinite(values[[0, 1, 3]]).all()
    for i in (0, 1, 3):
        assert values[i] == solo[i]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("objective, rel", [("KT", 0), ("STAR", 0), ("S", 0), ("BSEN", 0), ("EK(3)", 0), ("LXZ(2.5)", 1e-15)])
def test_ratio_objective_is_scale_free(objective, rel):
    # Far inside k = -300..300 the sides of 2**k z overflow or fall below
    # the rhs guard.  The critical points scale exactly by 2**k, so the
    # ratio must not move: bit for bit for the integer-power forms, while
    # 2**(2.5 k) rounds for odd k.
    obj = search._Objective(objective, 6, RootSolverSettings())
    _, zs = search._samples(Ensemble(kind="uniform-disk", n=6, count=3, seed=1729, recenter=True), range(3))
    ks = np.arange(-300, 301)
    for z in zs:
        (want,) = obj.values(z[np.newaxis])
        assert np.isfinite(want)
        got = obj.values(np.ldexp(np.tile(z.view(float), (ks.size, 1)), ks[:, np.newaxis]).view(complex))
        if rel:
            np.testing.assert_allclose(got, want, rtol=rel, atol=0)
        else:
            assert (got == want).all(), ks[got != want]


@pytest.mark.filterwarnings("error")
def test_a_row_with_non_finite_zeros_scores_minus_inf_and_its_batch_mates_as_alone():
    # The solver's input check rejects the whole stack; the rows with finite
    # zeros are then scored in one more call, each as it is scored alone.
    _, zs = search._samples(Ensemble(kind="uniform-disk", n=6, count=3, seed=1729, recenter=True), range(3))
    zs[1, 2] = np.inf
    obj = search._Objective("KT", 6, RootSolverSettings())
    values = obj.values(zs)
    assert values[1] == -np.inf
    for i in (0, 2):
        assert np.isfinite(values[i]) and values[i] == obj.values(zs[i : i + 1])[0]


def test_maximize_batch_of_no_starts_is_empty():
    assert maximize_batch("KT", []) == []


@pytest.mark.filterwarnings("error")
def test_maximize_takes_a_start_far_below_unit_scale():
    _, zs = search._samples(Ensemble(kind="uniform-disk", n=6, count=1, seed=1729, recenter=True), range(1))
    rec = maximize("KT", 1e-40 * zs[0], SearchSettings(max_iterations=5))
    assert np.isfinite(rec.start_value) and rec.objective_value >= rec.start_value


@pytest.mark.filterwarnings("error")
def test_trial_points_that_overflow_score_minus_inf():
    # Near the top of the double range some trial points' coordinates, or
    # the last zero of the centered form, overflow.  Those trials score
    # -inf, without a warning, and the ascent goes on.
    z = 1e307 * np.array([1, -1, 1j, -1j, (1 + 1j) / 2, -(1 + 1j) / 2])
    obj = search._Objective("KT", 6, RootSolverSettings())
    _, start, best_f, _, _ = search._nelder_mead(obj, obj.encode(z[np.newaxis]), 200)
    assert np.isfinite(start).all() and best_f[0] <= start[0]
    # The final reports' sides overflow at this scale, which is not the search's to mend.
    with np.errstate(over="ignore", invalid="ignore"):
        rec = maximize("KT", z)
    assert np.isfinite(rec.start_value) and rec.objective_value >= rec.start_value


# The lockstep round as it stood before its per-call costs were cut: the
# executable spec that _nelder_mead must reproduce bit for bit.

def _spec_nelder_mead(obj, x0, max_iterations: int):
    b, dim = x0.shape
    simplex = np.repeat(x0[:, np.newaxis, :], dim + 1, axis=1)
    diag = np.arange(dim)
    simplex[:, diag + 1, diag] += search._INITIAL_STEP * np.maximum(1.0, np.abs(x0))
    best_f, best_x = np.full(b, np.inf), x0.copy()

    def evaluate(points, rows):
        f = -obj.values(obj.decode(points.reshape(-1, dim))).reshape(points.shape[:2])
        i, j = np.arange(f.shape[0]), f.argmin(axis=1)
        fj = f[i, j]
        better = fj < best_f[rows]
        best_f[rows[better]] = fj[better]
        best_x[rows[better]] = points[i[better], j[better]]
        return f

    values = evaluate(simplex, np.arange(b))
    kept = np.flatnonzero(np.isfinite(values[:, 0]))
    simplex, values, best_f, best_x = simplex[kept], values[kept], best_f[kept], best_x[kept]
    start = values[:, 0].copy()
    rows = np.arange(kept.size)
    rounds = np.full(kept.size, max_iterations)
    trials = np.empty((kept.size, 3, dim))
    for it in range(1, max_iterations + 1):
        order = np.argsort(values[rows], axis=1, kind="stable")
        s = simplex[rows[:, np.newaxis], order]
        v = values[rows[:, np.newaxis], order]
        going = ~(np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) < search._STEP_TOL)
        if not going.all():
            rounds[rows[~going]] = it
            rows, s, v = rows[going], s[going], v[going]
        if rows.size == 0:
            break
        centroid = s[:, :-1].sum(axis=1) / dim
        step = centroid - s[:, -1]
        trial = trials[: rows.size]
        np.add(centroid, step, out=trial[:, 0])
        np.add(centroid, 2.0 * step, out=trial[:, 1])
        np.subtract(centroid, 0.5 * step, out=trial[:, 2])
        fr, fe, fc = evaluate(trial, rows).T
        improved = fr < v[:, 0]
        expand = improved & (fe < fr)
        reflect = (improved & ~expand) | (~improved & (fr < v[:, -2]))
        contract = ~improved & ~reflect & (fc < v[:, -1])
        accept = expand | reflect | contract
        pick = expand + 2 * contract
        np.copyto(s[:, -1], trial[np.arange(rows.size), pick], where=accept[:, np.newaxis])
        v[:, -1] = np.choose(pick, (fr, fe, fc))
        shrink = np.flatnonzero(~accept)
        if shrink.size:
            best = s[shrink, :1]
            s[shrink, 1:] = best + 0.5 * (s[shrink, 1:] - best)
            v[shrink, 1:] = evaluate(s[shrink, 1:], rows[shrink])
        simplex[rows], values[rows] = s, v
    return kept, start, best_f, best_x, rounds


class _CountingObjective:
    """An objective that records the row count of each scoring call."""

    def __init__(self, obj):
        self.obj, self.calls = obj, []

    def decode(self, x):
        return self.obj.decode(x)

    def values(self, zs):
        self.calls.append(len(zs))
        return self.obj.values(zs)


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
@hypothesis.given(
    objective=st.sampled_from(["KT", "S0", "STAR", "M_MINUS2"]),
    n=st.integers(3, 7),
    starts=st.integers(1, 5),
    budget=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    step_tol=st.sampled_from([None, 1e-3]),
    dropped=st.sampled_from(["none", "one", "all"]),
)
# Rows of S0 at n = 3 retire on the step tolerance within the budget;
# rows of KT at n = 4 shrink several times.
@hypothesis.example(objective="S0", n=3, starts=3, budget=200, seed=1729, step_tol=None, dropped="none")
@hypothesis.example(objective="KT", n=4, starts=3, budget=200, seed=1729, step_tol=None, dropped="one")
def test_lockstep_round_equals_its_executable_spec_bit_for_bit(objective, n, starts, budget, seed, step_tol, dropped):
    sendov = objective == "M_MINUS2"
    ens = Ensemble(kind="sendov-boundary" if sendov else "uniform-disk", n=n, count=starts, seed=seed, recenter=not sendov)
    _, zs = search._samples(ens, range(starts))
    if dropped != "none" and not sendov:  # the objective is undefined at all-zeros: such rows are dropped
        zs = np.insert(zs, 1, 0.0, axis=0) if dropped == "one" else np.zeros_like(zs)
    obj = search._Objective(objective, n, RootSolverSettings())
    x0 = obj.encode(zs)
    got, want = _CountingObjective(obj), _CountingObjective(obj)
    with mock.patch.object(search, "_STEP_TOL", step_tol or search._STEP_TOL):
        result = search._nelder_mead(got, x0, budget)
        expected = _spec_nelder_mead(want, x0, budget)
    assert got.calls == want.calls  # the same solves, in the same order
    for a, b in zip(result, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
