"""Sendov instances, power means, and the special-case theorem."""

import math

import numpy as np
import pytest

from schoenberg import sendov
from schoenberg.errors import ConvergenceError, InvalidInputError
from schoenberg.inequalities import eval_order2
from schoenberg.rootfind import RootSolverSettings, critical_points, critical_points_batch
from schoenberg.sendov import (
    SendovInstance,
    check_special_case,
    normalized_instance,
    power_mean,
    probe_m_minus2,
    special_case_batch,
)


def hypothesis_instance(rng, n):
    """Random instance satisfying Re sum z_j >= ((n-2)/2) a by construction."""
    z = np.sqrt(rng.uniform(0, 1, n - 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
    s = z.real.sum()
    if s < 0:
        z = -np.conj(z)  # reflect across the imaginary axis
        s = -s
    cap = 1.0 if n == 2 else min(1.0, 2 * s / (n - 2))
    return SendovInstance(a=rng.uniform(0, max(cap, 0.0)), other_zeros=z)


def test_instance_validation():
    with pytest.raises(InvalidInputError):
        SendovInstance(a=1.2, other_zeros=np.array([0.5j]))
    with pytest.raises(InvalidInputError):
        SendovInstance(a=-0.1, other_zeros=np.array([0.5j]))
    with pytest.raises(InvalidInputError):
        SendovInstance(a=0.5, other_zeros=np.array([1.5]))
    inst = SendovInstance(a=0.5, other_zeros=np.array([1.0, -1j]))
    assert inst.n == 3
    np.testing.assert_array_equal(inst.zeros(), [0.5, 1.0, -1j])


def test_normalized_instance_rotates_a_to_real():
    inst = normalized_instance(0.6j, [0.5, -0.5j])
    assert inst.a == pytest.approx(0.6)
    np.testing.assert_allclose(inst.other_zeros, [-0.5j, -0.5], atol=1e-15)


def test_power_mean_examples():
    # distances from p(z) = (z - 1)(z + 1)^2: w in {-1, 1/3}, a = 1
    assert power_mean([2, 2 / 3], 2) == pytest.approx(math.sqrt(20 / 9))
    assert power_mean([2, 2 / 3], -2) == pytest.approx(math.sqrt(8 / 10))
    for p in (-math.inf, -2, -1, 0, 1, 2, math.inf):
        assert power_mean([0.7, 0.7, 0.7], p) == pytest.approx(0.7)
    assert power_mean([3, 1, 2], -math.inf) == 1.0
    assert power_mean([3, 1, 2], math.inf) == 3.0
    assert power_mean([4, 1], 0) == pytest.approx(2.0)


def test_power_mean_domain_errors():
    with pytest.raises(InvalidInputError):
        power_mean([1.0, 0.0], -2)
    with pytest.raises(InvalidInputError):
        power_mean([], 2)
    with pytest.raises(InvalidInputError):
        power_mean([-1.0, 2.0], 2)


def test_power_mean_monotone_in_exponent():
    rng = np.random.default_rng(139)
    for _ in range(50):
        x = rng.uniform(0.05, 3.0, rng.integers(2, 9))
        exps = (-math.inf, -2, -1, 0, 1, 2, 4, math.inf)
        vals = [power_mean(x, p) for p in exps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_special_case_quadratic_example():
    # p = (z - 1)(z - i): single critical point (1 + i)/2
    inst = SendovInstance(a=1.0, other_zeros=np.array([1j]))
    rep = check_special_case(inst)
    assert rep.condition_holds  # Re(i) = 0 >= 0
    assert rep.min_distance == pytest.approx(math.sqrt(2) / 2)
    assert rep.min_distance < 1
    assert rep.c1_value > inst.n - 1
    assert rep.c2_value < inst.n - 1


def test_special_case_failure_fixture():
    # (z - 1)(z + 1)^2: hypothesis fails and M_2 > 1
    inst = SendovInstance(a=1.0, other_zeros=np.array([-1.0, -1.0]))
    rep = check_special_case(inst)
    assert not rep.condition_holds
    assert rep.values[2] == pytest.approx(math.sqrt(20 / 9))
    assert rep.values[2] > 1
    assert rep.sendov_holds()  # conjecture still fine: w = 1/3 is close to a


def test_special_case_a_zero():
    # at a = 0 the C2 bound holds without any condition on the zero sum
    rng = np.random.default_rng(149)
    for _ in range(20):
        z = np.sqrt(rng.uniform(0, 1, 4)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        inst = SendovInstance(a=0.0, other_zeros=z)
        rep = check_special_case(inst)
        assert rep.c2_value < inst.n - 1
        if z.real.sum() >= 0:
            assert rep.condition_holds


def test_special_case_random_hypothesis_instances():
    rng = np.random.default_rng(151)
    for n in range(2, 11):
        for _ in range(20):
            inst = hypothesis_instance(rng, n)
            rep = check_special_case(inst)
            assert rep.condition_holds
            if rep.critical_hit:
                continue
            assert rep.c1_value > n - 1
            assert rep.c2_value < n - 1
            assert rep.min_distance < 1 - 1e-10
            # power-mean sandwich
            assert rep.values[0] <= rep.values[1] + 1e-12 <= rep.values[2] + 1e-12


def test_shifted_order2_bound_chain():
    # Applying the general order-2 bound to p(z + a) dominates the distance
    # sum, and Cauchy-Schwarz coarsens it to (n^2 - n - 1)/n^2 times the
    # shifted zero sum.
    rng = np.random.default_rng(157)
    for _ in range(20):
        inst = hypothesis_instance(rng, 6)
        shifted = np.concatenate([[0.0], inst.other_zeros - inst.a])
        w_shift = critical_points(shifted)
        _, s = eval_order2(shifted, w_shift)
        assert s.holds
        n = inst.n
        coarse = (n * n - n - 1) / n**2 * np.sum(np.abs(inst.other_zeros - inst.a) ** 2)
        assert s.rhs <= coarse * (1 + 1e-12) + 1e-12


def test_probe_examples():
    inst = SendovInstance(a=1.0, other_zeros=np.array([-1.0, -1.0]))
    assert probe_m_minus2(inst) == pytest.approx(math.sqrt(8 / 10))

    # p = z(z^2 + 1): critical points +- i/sqrt(3), all at distance 1/sqrt(3)
    inst0 = SendovInstance(a=0.0, other_zeros=np.array([1j, -1j]))
    assert probe_m_minus2(inst0) == pytest.approx(1 / math.sqrt(3))

    # repeated zero at a: critical point hits a, flagged as 0
    hit = SendovInstance(a=1.0, other_zeros=np.array([1.0, 1.0]))
    assert probe_m_minus2(hit) == 0.0


def disk_instances(seed, count, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, count)
    others = np.sqrt(rng.uniform(0, 1, (count, n - 1))) * np.exp(1j * rng.uniform(0, 2 * np.pi, (count, n - 1)))
    return a, others


def test_probe_batch_matches_single():
    a, others = disk_instances(163, 12, 5)
    columns = special_case_batch(a, others)
    assert not columns.hit.any()
    for i in range(12):
        single = probe_m_minus2(SendovInstance(a[i], others[i]))
        assert columns.m_minus2[i] == single


def test_candidates_are_resolved_once_at_the_tightened_gate(monkeypatch, nan_eigvals):
    # No natural input has M_-2 > 1: the first solve is faked so that rows
    # 1 and 4 read it (every distance 2), and later solves are real.
    a, others = disk_instances(167, 6, 5)
    settings = RootSolverSettings()
    want = special_case_batch(a, others, settings)
    full = np.concatenate([a[:, np.newaxis], others], axis=1)
    first = critical_points_batch(full, settings)
    first[[1, 4]] = a[[1, 4], np.newaxis] + 2.0
    calls = []

    def solve(zs, s):
        calls.append((zs, s))
        return first if len(calls) == 1 else critical_points_batch(zs, s)

    monkeypatch.setattr(sendov, "critical_points_batch", solve)
    got = special_case_batch(a, others, settings)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1][0], full[[1, 4]])
    assert calls[1][1] == settings.tightened() and calls[1][1].tol_root == settings.tol_root / 100
    for got_column, want_column in zip(got, want):
        np.testing.assert_array_equal(got_column, want_column)

    calls.clear()
    nan_eigvals(1)  # the second candidate fails the tightened gate
    with pytest.raises(ConvergenceError):
        special_case_batch(a, others, settings)
    assert len(calls) == 2
