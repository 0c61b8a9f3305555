"""Projection/diagonal products, characteristic polynomials, normality."""

import numpy as np
import pytest

from schoenberg import matrices
from schoenberg.errors import InvalidInputError, UnsupportedSizeError
from schoenberg.matrices import (
    build_D,
    build_S,
    char_poly,
    eigenvalues,
    is_normal,
    sds_matrix,
    trace_word,
    verify_spectrum,
)
from schoenberg.poly import is_collinear, recenter
from schoenberg.rootfind import match_multisets


def random_configs(rng, count, n):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / np.abs(z).max(axis=1, keepdims=True)


def test_build_S_examples():
    np.testing.assert_allclose(build_S(2), [[0.5, -0.5], [-0.5, 0.5]])
    np.testing.assert_allclose(build_S(1), [[0.0]])
    s3 = build_S(3)
    np.testing.assert_allclose(np.diag(s3), [2 / 3] * 3)
    assert s3[0, 1] == pytest.approx(-1 / 3)
    with pytest.raises(InvalidInputError):
        build_S(0)


def test_build_S_is_projection():
    for n in (1, 2, 3, 7, 16):
        s = build_S(n)
        assert np.abs(s @ s - s).max() <= 1e-14


def test_build_D_examples():
    np.testing.assert_array_equal(build_D([1, -1]), np.diag([1, -1]).astype(complex))
    np.testing.assert_array_equal(build_D([0, 0]), np.zeros((2, 2)))
    np.testing.assert_array_equal(build_D([1, 1j]), np.diag([1, 1j]))


def test_trace_word_examples():
    assert trace_word([np.eye(3)]) == 3
    d = np.diag([1.0, -1.0])
    assert trace_word([d, d]) == 2
    s2 = build_S(2)
    assert trace_word([s2, s2]) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        trace_word([])
    with pytest.raises(InvalidInputError):
        trace_word([np.eye(2), np.eye(3)])


def test_build_D_of_a_stack_is_a_stack_of_diagonals():
    z = np.array([[1, -1, 2j], [0.5, 0, -3]])
    d = build_D(z)
    assert d.shape == (2, 3, 3)
    for i in range(2):
        np.testing.assert_array_equal(d[i], np.diag(z[i]))


def test_trace_word_on_stacks_equals_per_slice_calls():
    rng = np.random.default_rng(61)
    for n in (2, 5, 10):
        z = random_configs(rng, 30, n)
        s, d = build_S(n), build_D(z)
        dh = d.conj().swapaxes(-1, -2)
        traces = trace_word([s, dh, s, d] * 3)
        assert traces.shape == (30,)
        for i in range(30):
            assert traces[i] == trace_word([s, dh[i], s, d[i]] * 3)
    with pytest.raises(InvalidInputError):
        trace_word([build_D(z[:2]), build_D(z[:3])])


def test_char_poly_examples():
    np.testing.assert_allclose(char_poly(np.diag([1, -1])), [-1, 0, 1], atol=1e-15)
    np.testing.assert_allclose(char_poly(np.zeros((2, 2))), [0, 0, 1], atol=0)
    ds = build_D([1, -1]) @ build_S(2)
    np.testing.assert_allclose(ds, [[0.5, -0.5], [0.5, -0.5]])
    np.testing.assert_allclose(char_poly(ds), [0, 0, 1], atol=1e-15)


def test_char_poly_against_numpy_eigenvalues():
    rng = np.random.default_rng(67)
    for n in (2, 5, 9):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m /= np.abs(m).max()
        got = char_poly(m)
        want = np.poly(np.linalg.eigvals(m))[::-1]  # ascending
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_char_poly_size_guard():
    with pytest.raises(UnsupportedSizeError):
        char_poly(np.eye(33))


def test_eigenvalues_against_numpy():
    rng = np.random.default_rng(71)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    m /= np.abs(m).max()
    got = eigenvalues(m)
    want = np.linalg.eigvals(m)
    assert match_multisets(got, want) <= 1e-8


def test_verify_spectrum_examples():
    # {1,-1}: both spectra are {0, 0}
    cmp2 = verify_spectrum([1, -1])
    assert cmp2.max_pair_distance <= 1e-12
    np.testing.assert_allclose(np.sort_complex(cmp2.expected), [0, 0], atol=1e-15)

    # roots of unity: DS is nilpotent, zp'(z) = 4z^4; cluster tolerance applies
    cmp4 = verify_spectrum([1, 1j, -1, -1j])
    assert cmp4.max_pair_distance <= 1e-9 ** (1 / 4)

    # {1,2,3}: {0} union {2 +- 1/sqrt(3)}
    cmp3 = verify_spectrum([1, 2, 3])
    want = np.array([0, 2 - 1 / np.sqrt(3), 2 + 1 / np.sqrt(3)])
    assert match_multisets(cmp3.matrix_eigenvalues, want) <= 1e-8
    assert cmp3.max_pair_distance <= 1e-8


def test_verify_spectrum_on_a_stack_equals_per_row_calls():
    rng = np.random.default_rng(75)
    for n in (2, 3, 6, 10):
        z = random_configs(rng, 30, n)
        batch = verify_spectrum(z)
        assert batch.matrix_eigenvalues.shape == batch.expected.shape == (30, n)
        for i in range(30):
            one = verify_spectrum(z[i])
            np.testing.assert_array_equal(batch.matrix_eigenvalues[i], one.matrix_eigenvalues)
            np.testing.assert_array_equal(batch.expected[i], one.expected)
            assert batch.max_pair_distance[i] == one.max_pair_distance


def test_spectrum_check_does_not_share_the_root_solver(monkeypatch):
    # Scale every critical point the eigenvalue solver returns by 1 + 1e-3
    # (0 stays 0).  An expected side that called the same solver would move
    # along and the distance would stay at round-off.
    solve = matrices.critical_points_batch
    monkeypatch.setattr(matrices, "critical_points_batch", lambda *a, **k: solve(*a, **k) * (1 + 1e-3))
    assert verify_spectrum([1, 2, 3j, -1 - 1j]).max_pair_distance >= 1e-4
    z = random_configs(np.random.default_rng(77), 20, 6)
    assert np.all(verify_spectrum(z).max_pair_distance >= 1e-4)


def test_spectrum_equivalence_random():
    rng = np.random.default_rng(73)
    for n in range(2, 11):
        for z in random_configs(rng, 25, n):
            assert verify_spectrum(z).max_pair_distance <= 1e-7


def test_jdj_annihilation_for_centered_configs():
    rng = np.random.default_rng(79)
    j = np.ones((8, 8))
    for z in random_configs(rng, 20, 8):
        zc = recenter(z)
        jdj = j @ build_D(zc) @ j
        assert np.abs(jdj).max() <= 1e-12 * np.abs(zc).max()


def test_is_normal_examples():
    assert is_normal(np.diag([1.0, 2.0 + 3j, -1j]))
    assert is_normal(sds_matrix([1, 0, -1]))
    assert not is_normal(sds_matrix([1, 1j, -1 - 1j]))


# (zeros, collinear): triangles, and lines on the real axis and off the origin.
SHAPES = {
    "triangle": ([1, -1, 1j], False),
    "quadrilateral": ([1 + 0.5j, -1, 1j, 0.3 - 2j], False),
    "real-line": ([1, -1, 3], True),
    "tilted-line": ((1 + 2j) * np.array([1, -1, 3]) + (0.5 - 1j), True),
}


def scaled_shapes(z):
    """``(k, 2**k z)`` for every k where the zeros stay finite, subnormal ones included."""
    x = np.asarray(z, dtype=complex).view(float)
    for k in range(-1074, 1024):
        with np.errstate(over="ignore"):
            zk = np.ldexp(x, k).view(complex)
        if np.isfinite(zk).all():
            yield k, zk


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z, collinear", SHAPES.values(), ids=SHAPES)
def test_collinearity_tests_answer_the_same_at_every_scale(z, collinear):
    # Both tests run in the power-of-two frame of their input.  Below the
    # normal range S D S itself rounds to the subnormal grid, and that
    # matrix is no longer normal to 1e-10: is_normal skips those scales.
    assert is_collinear(z) == is_normal(sds_matrix(z)) == collinear
    normal_scales = 0
    for k, zk in scaled_shapes(z):
        assert is_collinear(zk) == collinear, k
        x = np.abs(zk.view(float))
        if x[x > 0].min() >= np.finfo(float).tiny:
            assert is_normal(sds_matrix(zk)) == collinear, k
            normal_scales += 1
    assert normal_scales > 2000


def test_collinear_iff_sds_normal():
    rng = np.random.default_rng(83)
    for n in (3, 5, 8):
        for _ in range(25):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            theta = rng.uniform(0, 2 * np.pi)
            t = rng.standard_normal(n)
            line = c + t * np.exp(1j * theta)
            assert is_normal(sds_matrix(line), tol=1e-10)
        for z in random_configs(rng, 25, n):
            assert not is_normal(sds_matrix(z), tol=1e-10)


def test_sds_and_ds_share_spectrum():
    # spec(S(DS)) = spec((DS)S) = spec(DS) since S is idempotent
    rng = np.random.default_rng(89)
    for z in random_configs(rng, 10, 6):
        ds = build_D(z) @ build_S(6)
        assert match_multisets(eigenvalues(sds_matrix(z)), eigenvalues(ds)) <= 1e-7
