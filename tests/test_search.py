"""Ensemble sampling and the derivative-free ascent."""

import numpy as np
import pytest

from schoenberg import search
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
    sample_array,
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


def test_uniform_disk_stays_in_disk():
    ens = Ensemble(kind="uniform-disk", n=8, count=50, seed=3)
    zs = sample_array(ens)
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
    a_vals, others = sample_array(ens)
    assert ((0 <= a_vals) & (a_vals <= 1)).all()
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


def test_verify_candidate_reproduces_value():
    inst = SendovInstance(a=0.9, other_zeros=np.exp(1j * np.array([0.5, 2.0, 4.0])))
    rec = maximize("M_MINUS2", inst, SearchSettings(max_iterations=30))
    refined = verify_candidate(rec)
    assert refined == pytest.approx(rec.objective_value, rel=1e-6)


@pytest.mark.parametrize(
    "changes",
    [{"max_iterations": -1}, {"step_tol": 0.0}, {"step_tol": -1e-9}, {"initial_step": 0.0}, {"initial_step": -0.1}],
)
def test_search_settings_reject_bad_values(changes):
    with pytest.raises(InvalidInputError):
        SearchSettings(**changes)


def test_search_settings_zero_budget_scores_the_start_simplex():
    start = recenter(np.array([0.3, -1.2, 0.9, 2.0j], dtype=complex))
    rec = maximize("KT", start, SearchSettings(max_iterations=0))
    assert rec.iterations == 0 and rec.objective_value >= rec.start_value


@pytest.mark.parametrize(
    "objective, kind, n",
    [("KT", "uniform-disk", 5), ("S", "gaussian", 4), ("M_MINUS2", "sendov-boundary", 4)],
)
def test_batched_search_equals_single_ascents(objective, kind, n):
    ens = Ensemble(kind=kind, n=n, count=3, seed=404, recenter=objective == "KT")
    starts = list(sample(ens))
    seeds = [sample_seed(404, i) for i in range(3)]
    if objective != "M_MINUS2":  # the objective is undefined at all-zeros
        starts.insert(1, np.zeros(n, dtype=complex))
        seeds.insert(1, 7)
    # A loose step_tol lets the rows stop in different rounds.
    settings = SearchSettings(max_iterations=150, step_tol=1e-3)
    batch = maximize_batch(objective, starts, settings, sample_seeds=seeds)
    assert len(batch) == len(starts)
    assert sum(rec is None for rec in batch) == (objective != "M_MINUS2")
    assert len({rec.iterations for rec in batch if rec is not None}) > 1
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


def test_failed_row_scores_minus_inf_and_leaves_batch_mates_alone(monkeypatch):
    # Warm starts that are exact for rows 0, 1 and 3 and far off for row 2;
    # with a two-iteration budget only row 2 fails, warm and again cold.
    rng = np.random.default_rng(43)
    z = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    warm = critical_points_batch(z)
    warm[2] = 3.0 * warm[2] + 1.0
    obj = search._Objective("S", 7, RootSolverSettings(max_iterations=2))
    calls = []

    def counting(zs, settings, initial=None):
        calls.append((len(zs), initial is None))
        return critical_points_batch(zs, settings, initial=initial)

    monkeypatch.setattr(search, "critical_points_batch", counting)
    w, ok = obj.solve(z, warm)
    assert calls == [(4, False), (1, True)]  # only the failed row is retried, cold
    np.testing.assert_array_equal(ok, [True, True, False, True])
    values = obj.score(z, w, ok)
    assert values[2] == -np.inf and np.isfinite(values[[0, 1, 3]]).all()
    for i in (0, 1, 3):
        w_i, ok_i = obj.solve(z[i : i + 1], warm[i : i + 1])
        assert obj.score(z[i : i + 1], w_i, ok_i)[0] == values[i]


def test_row_that_passes_cold_is_scored_when_a_batch_mate_fails_again():
    # n = 24: row 2 at |z| ~ 10 overflows the Horner evaluation from any
    # start, and its NaN warm start fails too.  Row 1 has coincident warm
    # estimates, which fail, but its cold retry (in the same call as row 2's)
    # passes: it must keep its solo value, not inherit row 2's -inf.
    rng = np.random.default_rng(5)
    z = (rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24))) / np.sqrt(2)
    z[2] *= 10.0
    warm = np.full((4, 23), 0.5, dtype=complex)
    warm[[0, 3]] = critical_points_batch(z[[0, 3]])
    warm[2] = np.nan
    obj = search._Objective("S", 24, RootSolverSettings())
    with np.errstate(all="ignore"):
        w, ok = obj.solve(z, warm)
        np.testing.assert_array_equal(ok, [True, True, False, True])
        values = obj.score(z, w, ok)
        assert values[2] == -np.inf and np.isfinite(values[[0, 1, 3]]).all()
        for i in range(4):
            w_i, ok_i = obj.solve(z[i : i + 1], warm[i : i + 1])
            assert obj.score(z[i : i + 1], w_i, ok_i)[0] == values[i]
