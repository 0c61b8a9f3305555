"""Polynomial construction, symmetric functions, and centering."""

import itertools

import numpy as np
import pytest

from schoenberg.errors import InvalidInputError
from schoenberg.poly import (
    centroid_residual,
    derivative,
    elementary_symmetric,
    elementary_symmetric_all,
    from_roots,
    is_collinear,
    polyval,
    recenter,
)
from schoenberg.search import maximize


def convolution_coeffs(roots):
    """Independent oracle: multiply the linear factors with np.convolve."""
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return coeffs


def esf_bruteforce(values, k):
    """Independent oracle: sum over all k-subsets."""
    if k == 0:
        return 1.0 + 0j
    return sum(np.prod(c) for c in itertools.combinations(values, k))


def test_from_roots_difference_of_squares():
    np.testing.assert_allclose(from_roots([1, -1]), [-1, 0, 1], atol=0)


def test_from_roots_cubic_matches_convolution_oracle():
    roots = [1.0, 2.0, 3.0]
    got = from_roots(roots)
    np.testing.assert_allclose(got, convolution_coeffs(roots), rtol=1e-14)
    np.testing.assert_allclose(got, [-6, 11, -6, 1], rtol=1e-14)


def test_from_roots_fourth_roots_of_unity():
    got = from_roots([1, 1j, -1, -1j])
    np.testing.assert_allclose(got, [-1, 0, 0, 0, 1], atol=1e-15)


def test_from_roots_monic_and_vanishing():
    rng = np.random.default_rng(7)
    for n in (2, 5, 9):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = from_roots(z)
        assert c[-1] == 1.0
        np.testing.assert_allclose(polyval(c, z), 0, atol=1e-10 * max(1, np.abs(z).max()) ** n)


def test_from_roots_permutation_invariance():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    base = from_roots(z)
    for _ in range(5):
        perm = rng.permutation(8)
        np.testing.assert_allclose(from_roots(z[perm]), base, rtol=1e-12, atol=1e-12)


def test_from_roots_coefficient_esf_duality():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7, 10):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = from_roots(z)
        e = elementary_symmetric_all(z)
        for k in range(n + 1):
            assert abs(c[n - k] - (-1) ** k * e[k]) <= 1e-12 * max(1.0, abs(e[k]))


def test_from_roots_batch_matches_single():
    rng = np.random.default_rng(5)
    zs = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    batch = from_roots(zs)
    for i in range(6):
        np.testing.assert_array_equal(batch[i], from_roots(zs[i]))


def test_from_roots_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        from_roots([1.0])
    with pytest.raises(InvalidInputError):
        from_roots([1.0, np.nan])
    with pytest.raises(InvalidInputError):
        from_roots([1.0, np.inf * 1j])


def test_derivative_examples():
    np.testing.assert_allclose(derivative([-1, 0, 1]), [0, 2])
    np.testing.assert_allclose(derivative([-1, 0, 0, 0, 1]), [0, 0, 0, 4])
    np.testing.assert_allclose(derivative([-6, 11, -6, 1]), [11, -12, 3])


def test_derivative_of_constant_is_degenerate_zero():
    np.testing.assert_array_equal(derivative([5.0]), [0.0])


def test_elementary_symmetric_examples():
    assert elementary_symmetric([1, 2, 3], 1) == pytest.approx(6)
    assert elementary_symmetric([1, 2, 3], 2) == pytest.approx(11)
    assert elementary_symmetric([1, 2, 3], 0) == 1.0
    assert elementary_symmetric([1j, -2, 0.5], 0) == 1.0


def test_elementary_symmetric_against_bruteforce():
    rng = np.random.default_rng(19)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for k in range(9):
        want = esf_bruteforce(v, k)
        got = elementary_symmetric(v, k)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_elementary_symmetric_out_of_range():
    with pytest.raises(InvalidInputError):
        elementary_symmetric([1, 2, 3], 4)
    with pytest.raises(InvalidInputError):
        elementary_symmetric([1, 2, 3], -1)


def test_recenter_examples():
    np.testing.assert_allclose(recenter([1, 2, 3]), [-1, 0, 1])
    np.testing.assert_allclose(recenter([0, 0]), [0, 0])
    z = np.array([1, 1j, -1, -1j])
    np.testing.assert_allclose(recenter(z), z, atol=1e-16)


def test_recenter_of_equal_zeros_is_exact_zeros():
    # The rounded mean of n copies of x can miss x by an ulp; equal zeros still recenter to 0.
    rng = np.random.default_rng(29)
    for n in rng.integers(2, 10, size=2000):
        zc = recenter(np.full(n, complex(*rng.standard_normal(2))))
        assert (zc == 0).all() and centroid_residual(zc) == 0.0
    rows = np.repeat(rng.standard_normal((5, 2)).view(complex), 6, axis=1)
    assert (recenter(rows) == 0).all()


def test_recenter_idempotent_and_centered():
    rng = np.random.default_rng(23)
    z = 5 * (rng.standard_normal(9) + 1j * rng.standard_normal(9)) + 3.0
    zc = recenter(z)
    assert abs(zc.sum()) <= 1e-13 * np.abs(z).max()
    np.testing.assert_allclose(recenter(zc), zc, atol=1e-15 * np.abs(z).max())


def test_centroid_residual_examples():
    assert centroid_residual([1, -1]) == 0.0
    assert centroid_residual([1, 0, 0]) == pytest.approx(1.0)
    assert centroid_residual([2, 2j, -2, -2j]) == pytest.approx(0.0, abs=1e-15)


def test_centroid_residual_is_relative_below_unit_size():
    # The centroid of 1e-12 * [1, -1, 1j, 2] is 0.28 times the largest |z|,
    # so it is not centered; a max(1, max|z|) scale read 2.2e-12 here.
    z = 1e-12 * np.array([1, -1, 1j, 2])
    assert centroid_residual(z) == pytest.approx(np.sqrt(5) / 2, rel=1e-15)
    with pytest.raises(InvalidInputError, match="requires centered starts"):
        maximize("KT", z)
    # The same bits wherever 2**k z is exact, while its coordinates stay normal numbers.
    for k in range(-982, 1063):  # 1e-12 is in [2**-40, 2**-39), and 2e-12 in [2**-39, 2**-38)
        assert centroid_residual(np.ldexp(z.view(float), k).view(complex)) == centroid_residual(z)


def test_is_collinear():
    assert is_collinear([1, 0, -1])
    assert is_collinear([1 + 1j, 2 + 2j, -3 - 3j])
    assert is_collinear([2 + 1j, 2 + 1j, 2 + 1j])  # coincident points
    c, theta = 0.3 - 0.2j, 1.1
    line = c + np.array([-1.5, 0.2, 0.9, 2.0]) * np.exp(1j * theta)
    assert is_collinear(line)
    assert not is_collinear([1, 1j, -1 - 1j])


def test_all_zero_configuration_is_legal():
    c = from_roots([0, 0, 0])
    np.testing.assert_array_equal(c, [0, 0, 0, 1])
    assert centroid_residual([0, 0, 0]) == 0.0
