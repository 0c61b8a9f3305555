"""Root solver, critical points, moduli polynomial, multiset matching."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from schoenberg.errors import ConvergenceError, InvalidInputError
from schoenberg.poly import derivative, elementary_symmetric_all, from_roots, polyval
from schoenberg.rootfind import (
    RootSolverSettings,
    cluster_sizes,
    critical_points,
    critical_points_batch,
    find_roots,
    find_roots_batch,
    match_multisets,
    match_multisets_batch,
    moduli_critical_points,
    moduli_critical_points_batch,
)


def random_configs(rng, count, n, scale_to_unit=True):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    if scale_to_unit:
        z /= np.abs(z).max(axis=1, keepdims=True)
    return z


def hull_violation(points, queries):
    """Distance of each query outside the convex hull of ``points`` (oracle)."""
    pts = np.column_stack([points.real, points.imag])
    q = np.column_stack([queries.real, queries.imag])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        # collinear degenerate hull: distance to the segment along the spread
        d = points - points.mean()
        u = d[np.argmax(np.abs(d))]
        u = u / abs(u) if abs(u) > 0 else 1.0
        t = ((queries - points.mean()) / u).real
        perp = np.abs((queries - points.mean()) - np.clip(t, t.min(), t.max()) * u)
        return perp
    return np.maximum(0.0, (q @ hull.equations[:, :2].T + hull.equations[:, 2]).max(axis=1))


def test_find_roots_linear():
    np.testing.assert_array_equal(find_roots([0, 2]), [0])


def test_find_roots_quadratic_formula_oracle():
    # 3z^2 - 12z + 11: roots 2 +- 1/sqrt(3) by the quadratic formula
    got = np.sort_complex(find_roots([11, -12, 3]))
    want = np.array([2 - 1 / np.sqrt(3), 2 + 1 / np.sqrt(3)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_find_roots_triple_zero():
    got = find_roots([0, 0, 0, 4])
    np.testing.assert_array_equal(got, [0, 0, 0])


def test_find_roots_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        find_roots([3.0])
    with pytest.raises(InvalidInputError):
        find_roots([1.0, 0.0])


def test_find_roots_residual_bound_random():
    rng = np.random.default_rng(31)
    settings = RootSolverSettings()
    for n in (2, 5, 9, 12):
        z = random_configs(rng, 20, n)
        coeffs = from_roots(z)
        roots = find_roots_batch(coeffs, settings)
        resid = np.abs(polyval(coeffs[:, None, :], roots))
        # residual_scale >= max(1, max|root|)^n here since the polys are monic
        assert resid.max() <= settings.tol_root


def test_find_roots_non_convergence_carries_best_iterate():
    settings = RootSolverSettings(max_iterations=1, tol_root=1e-14)
    with pytest.raises(ConvergenceError) as err:
        find_roots(from_roots([0.9, -0.3 + 0.8j, -0.6 - 0.7j, 0.2j, 0.5]), settings)
    assert err.value.best is not None
    assert err.value.residual > 0


def test_find_roots_deterministic_and_batch_consistent():
    rng = np.random.default_rng(37)
    z = random_configs(rng, 4, 7)
    coeffs = from_roots(z)
    a = find_roots_batch(coeffs)
    b = find_roots_batch(coeffs)
    np.testing.assert_array_equal(a, b)
    for i in range(4):
        np.testing.assert_array_equal(find_roots(coeffs[i]), a[i])


def test_finished_rows_leave_the_batch():
    # Row 0 starts exactly on its roots, a double one included: alone it stops
    # at once.  Row 1 still iterates, but must not move row 0 (for instance by
    # spreading its coincident estimates).
    coeffs = np.array([from_roots(np.array([1, 1, 2])), from_roots(np.array([0.3 + 0.2j, -1.1, 0.7j]))])
    initial = np.array([[1, 1, 2], [3, 3j, -3]], dtype=complex)
    batch = find_roots_batch(coeffs, initial=initial)
    np.testing.assert_array_equal(batch[0], [1, 1, 2])
    for i in range(2):
        np.testing.assert_array_equal(find_roots(coeffs[i], initial=initial[i]), batch[i])


def test_critical_points_examples():
    np.testing.assert_array_equal(critical_points([1, -1]), [0])
    got = np.sort_complex(critical_points([1, 2, 3]))
    np.testing.assert_allclose(got, [2 - 1 / np.sqrt(3), 2 + 1 / np.sqrt(3)], atol=1e-12)
    np.testing.assert_array_equal(critical_points([1, 1j, -1, -1j]), [0, 0, 0])


def test_critical_points_count_and_residual():
    rng = np.random.default_rng(41)
    settings = RootSolverSettings()
    for n in range(2, 13):
        z = random_configs(rng, 10, n)
        w = critical_points_batch(z, settings)
        assert w.shape == (10, n - 1)
        dp = derivative(from_roots(z))
        resid = np.abs(polyval(dp[:, None, :], w))
        assert resid.max() <= settings.tol_root  # scale factor is 1 with max|z| = 1


def test_gauss_lucas_hull_containment():
    rng = np.random.default_rng(43)
    for n in (3, 5, 8, 12):
        z = random_configs(rng, 25, n)
        w = critical_points_batch(z)
        for i in range(z.shape[0]):
            assert hull_violation(z[i], w[i]).max() <= 1e-8


def test_critical_point_esf_identity():
    # e_k(w) = ((n-k)/n) e_k(z), complex elementary symmetric functions
    rng = np.random.default_rng(47)
    for n in range(2, 13):
        z = random_configs(rng, 30, n)
        w = critical_points_batch(z)
        ew = elementary_symmetric_all(w)
        ez = elementary_symmetric_all(z)
        for k in range(1, n):
            want = (n - k) / n * ez[:, k]
            err = np.abs(ew[:, k] - want)
            assert err.max() <= 1e-8 * np.maximum(1e-12, np.abs(want)).max() + 1e-12


def test_critical_point_centroid_identity():
    rng = np.random.default_rng(53)
    for n in (2, 6, 12):
        z = random_configs(rng, 30, n)
        w = critical_points_batch(z)
        assert np.abs(w.mean(axis=1) - z.mean(axis=1)).max() <= 1e-10


def test_moduli_critical_points_examples():
    np.testing.assert_allclose(moduli_critical_points([1, -1]), [1.0], atol=1e-14)
    np.testing.assert_allclose(moduli_critical_points([1, 1j, -1, -1j]), [1, 1, 1], atol=1e-14)
    np.testing.assert_allclose(moduli_critical_points([0, 0, 3]), [2, 0], atol=1e-12)


def test_moduli_critical_points_sorted_real_nonnegative():
    rng = np.random.default_rng(59)
    z = random_configs(rng, 100, 9)
    xi = moduli_critical_points_batch(z)
    assert xi.dtype.kind == "f"
    assert (xi >= 0).all()
    assert (np.diff(xi, axis=1) <= 1e-15).all()


def test_moduli_critical_points_against_root_solver():
    # Independent route: solve q'(x) = 0 with the generic complex solver.
    rng = np.random.default_rng(61)
    for n in (3, 6, 10):
        z = random_configs(rng, 15, n)
        for i in range(z.shape[0]):
            xi = moduli_critical_points(z[i])
            qprime = derivative(from_roots(np.abs(z[i])))
            ref = np.sort(find_roots(qprime).real)[::-1]
            np.testing.assert_allclose(xi, ref, atol=1e-9)


def test_match_multisets_examples():
    assert match_multisets([0, 1], [1, 0]) == 0.0
    assert match_multisets([0], [1e-12]) == pytest.approx(1e-12)
    assert match_multisets([1 + 1j, 2], [2, 1 + 1j]) == 0.0
    with pytest.raises(InvalidInputError):
        match_multisets([1, 2], [1])


def _greedy_match(a, b):
    # reference: pair the globally closest unmatched points, one pair at a time
    dist = np.abs(np.subtract.outer(a, b)).tolist()
    left, right, worst = set(range(len(a))), set(range(len(b))), 0.0
    while left:
        i, j = min(((i, j) for i in sorted(left) for j in sorted(right)), key=lambda ij: dist[ij[0]][ij[1]])
        worst = max(worst, dist[i][j])
        left.remove(i)
        right.remove(j)
    return worst


def test_match_multisets_batch_equals_greedy_reference():
    rng = np.random.default_rng(191)
    a = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
    b = a[:, rng.permutation(6)] + 1e-3 * rng.standard_normal((40, 6))
    b[::4] = rng.standard_normal((10, 6))  # some rows far apart
    a[1, :3] = a[1, 0]  # a repeated point
    got = match_multisets_batch(a, b)
    assert got.shape == (40,)
    for i in range(40):
        assert got[i] == _greedy_match(a[i], b[i]) == match_multisets(a[i], b[i])
    assert match_multisets_batch(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [0.0] * 3
    with pytest.raises(InvalidInputError):
        match_multisets_batch(a, b[:, :5])


def test_match_multisets_greedy_distance():
    # displaced pairs: greedy pairing must pick the small displacements
    a = np.array([0.0, 1.0, 5.0])
    b = np.array([0.01, 1.02, 5.0])
    assert match_multisets(a, b) == pytest.approx(0.02)


def test_cluster_sizes():
    pts = [0.0, 1e-9, 1.0, 2.0, 2.0 + 5e-10]
    np.testing.assert_array_equal(cluster_sizes(pts, 1e-6), [2, 2, 1, 2, 2])


def test_settings_validation():
    with pytest.raises(InvalidInputError):
        RootSolverSettings(max_iterations=0)
    with pytest.raises(InvalidInputError):
        RootSolverSettings(tol_root=0.0)
