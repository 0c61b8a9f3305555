"""Each input check rejects its malformed input with its own error, and a single configuration is a batch of one."""

import numpy as np
import pytest

from schoenberg import inequalities, matrices, poly, rootfind, search, sendov
from schoenberg.errors import InvalidInputError, NumericConsistencyError
from schoenberg.rootfind import RootSolverSettings

TRIANGLE = np.array([1.0, -0.5 + 0.75j, -0.5 - 0.75j])
TWO_ROWS = np.stack([TRIANGLE, 2.0 * TRIANGLE])
CUBE = np.zeros((1, 1, 3), dtype=complex)


@pytest.mark.parametrize("call, error, start", [
    (lambda: inequalities._Sums(TWO_ROWS).no_such_sum, AttributeError, "no_such_sum"),
    (lambda: inequalities.eval_order2(TWO_ROWS, TWO_ROWS[:, 1:]), InvalidInputError, "evaluators take one configuration"),
    (lambda: inequalities.eval_order2(TRIANGLE, [0.0]), InvalidInputError, "critical set must have length n-1 = 2, got 1"),
    (lambda: inequalities._real_trace(np.array([1j]), TWO_ROWS[:1]), NumericConsistencyError, "trace imaginary part 1.000e+00"),
    (lambda: inequalities.star_trace_oracle(CUBE), InvalidInputError, "trace oracles take a configuration or a (b, n) stack"),
    (lambda: inequalities.full_report(TWO_ROWS), InvalidInputError, "full_report takes a single configuration"),
    (lambda: matrices.build_D(CUBE), InvalidInputError, "expected a configuration or a (b, n) stack, got shape (1, 1, 3)"),
    (lambda: matrices.trace_word([np.eye(2, 3)]), InvalidInputError, "expected a square matrix or a stack of them"),
    (lambda: matrices.char_poly(np.full((2, 2), np.nan)), InvalidInputError, "matrix entries must be finite"),
    (lambda: poly.is_collinear(TWO_ROWS), InvalidInputError, "is_collinear expects a single configuration"),
    (lambda: rootfind.find_roots_batch(np.ones((1, 1, 2))), InvalidInputError, "bad coefficient array shape (1, 1, 2)"),
    (lambda: rootfind.find_roots_batch([[np.inf, 1.0]]), InvalidInputError, "coefficients must be finite"),
    (lambda: rootfind.find_roots([[1.0, 1.0]]), InvalidInputError, "find_roots expects a single coefficient vector"),
    (lambda: rootfind.critical_points(TWO_ROWS), InvalidInputError, "critical_points expects a single configuration"),
    (lambda: rootfind.moduli_critical_points(TWO_ROWS), InvalidInputError, "moduli_critical_points expects a single configuration"),
    (lambda: sendov.SendovInstance(a=0.5, other_zeros=TWO_ROWS / 2), InvalidInputError, "other_zeros must be a 1-D configuration"),
    # Rows of one zero are finite: the objective passes the solver's rejection on.
    (lambda: search._Objective("KT", 3, RootSolverSettings()).values(np.ones((2, 1), dtype=complex)),
     InvalidInputError, "need at least 2 zeros"),
], ids=[
    "sums-unknown-name", "evaluator-stack", "evaluator-critical-length", "trace-not-real", "oracle-3d",
    "full-report-stack", "configurations-3d", "matrix-not-square", "matrix-not-finite", "collinear-stack",
    "coefficients-3d", "coefficients-not-finite", "find-roots-stack", "critical-points-stack",
    "moduli-critical-points-stack", "sendov-others-stack", "objective-one-zero",
])
def test_malformed_input_is_rejected(call, error, start):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value).startswith(start)


def test_one_configuration_is_a_batch_of_one():
    assert rootfind.critical_points_batch(TRIANGLE).tobytes() == rootfind.critical_points_batch(TRIANGLE[np.newaxis]).tobytes()
    assert rootfind.moduli_critical_points_batch(TRIANGLE).tobytes() == rootfind.moduli_critical_points_batch(TWO_ROWS[:1]).tobytes()
    coeffs = np.array([6.0, -5.0, 1.0])
    assert rootfind.find_roots_batch(coeffs).tobytes() == rootfind.find_roots_batch(coeffs[np.newaxis]).tobytes()
    roots = rootfind.find_roots_batch([[3.0], [1.0 + 2.0j]])  # degree 0: no roots
    assert roots.shape == (2, 0) and roots.dtype == complex
