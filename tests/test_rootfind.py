"""Root solver, critical points, moduli polynomial, multiset matching."""

import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from schoenberg import rootfind
from schoenberg.config import DEFAULT_SEED
from schoenberg.errors import ConvergenceError, InvalidInputError
from schoenberg.matrices import verify_spectrum
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


def test_find_roots_linear_nonzero_root():
    # -6 + 2z: no zero root to split off, so the degree-1 solve itself answers.
    np.testing.assert_array_equal(find_roots([-6, 2]), [3])
    coeffs = np.array([[-6, 2], [1j, 4], [5, -1], [2.5, 0.5 + 0.5j]])
    batch = find_roots_batch(coeffs)
    assert batch.shape == (4, 1)
    for row, c in zip(batch, coeffs):
        np.testing.assert_array_equal(row, find_roots(c))
        np.testing.assert_array_equal(row, [-c[0] / c[1]])


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
    # 1e-308 z^2 + 1e308 z + 1e308: one root is about -1e616, past the double range,
    # so the Horner evaluation overflows and the backward error is unbounded.
    with pytest.raises(ConvergenceError) as err:
        find_roots([1e308, 1e308, 1e-308])
    assert err.value.best.shape == (1, 2)
    assert err.value.residual == np.inf
    # z^2 + 1e300 solves: its roots +-1e150i are in range.
    np.testing.assert_array_equal(np.sort_complex(find_roots([1e300, 0.0, 1.0])), [-1e150j, 1e150j])


def mp_critical_points(z, dps=60):
    """Critical points by ``mpmath.polyroots`` on p' expanded at ``dps`` digits (oracle)."""
    with mpmath.workdps(dps):
        c = [mpmath.mpc(1)]  # descending coefficients of p
        for r in z:
            r = mpmath.mpc(r.real, r.imag)
            c = [a - r * b for a, b in zip(c + [0], [0] + c)]
        dp = [c[i] * (len(z) - i) for i in range(len(z))]
        return np.array([complex(x) for x in mpmath.polyroots(dp, maxsteps=500, extraprec=2 * dps)])


def gaussian_configs(seed, count, n, scale):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))) / np.sqrt(2)


@pytest.mark.parametrize("b", [1, 6, 300])
def test_lapack_call_equals_numpy_eigvals_bit_for_bit(b):
    # rootfind._eigvals calls numpy's private gufunc behind np.linalg.eigvals;
    # this fails if a numpy release moves or changes it.
    rng = np.random.default_rng(b)
    for k in range(1, 20):
        m = rng.standard_normal((b, k, k)) + 1j * rng.standard_normal((b, k, k))
        w = rootfind._eigvals(m)
        assert w.dtype == np.complex128 and w.shape == (b, k)
        assert w.tobytes() == np.linalg.eigvals(m).tobytes()


def test_convergence_error_names_the_failed_rows(nan_eigvals):
    z = random_configs(np.random.default_rng(43), 4, 7)
    solo = [critical_points(row) for row in z]
    nan_eigvals(2)
    with pytest.raises(ConvergenceError) as err:
        critical_points_batch(z)
    np.testing.assert_array_equal(err.value.rows, [2])
    assert err.value.best.shape == (4, 6) and np.isnan(err.value.best[2]).all()
    for i in (0, 1, 3):
        np.testing.assert_array_equal(err.value.best[i], solo[i])


def test_large_scale_row_solves_and_matches_mpmath():
    # n = 24 with one row at |z| ~ 10, where the coefficients of p' reach 1e22.
    z = gaussian_configs(5, 4, 24, 1.0)
    z[2] *= 10.0
    w = critical_points_batch(z)
    assert match_multisets(w[2], mp_critical_points(z[2])) <= 1e-12 * np.abs(z[2]).max()
    for i in range(4):
        np.testing.assert_array_equal(w[i], critical_points(z[i]))


def test_overflowing_coefficient_row_fails_alone_without_warnings():
    # Row 1 has a root of about -1e616, past the double range: its Horner evaluation overflows.
    coeffs = np.array([from_roots(np.array([0.5, -1j])), [1e308, 1e308, 1e-308], from_roots(np.array([2.0, 3.0]))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            find_roots_batch(coeffs)
    np.testing.assert_array_equal(err.value.rows, [1])
    assert err.value.residual > 0
    for i in (0, 2):
        np.testing.assert_array_equal(err.value.best[i], find_roots(coeffs[i]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [48, 64])
def test_find_roots_solves_gaussian_zeros_of_high_degree(n):
    # No row may fail, and none may pass the gate far from the zeros it was built from: at this
    # degree Aberth can stop short of the roots, and only a gate that can fail catches that.
    z = np.random.default_rng(n).standard_normal((8, 2 * n)).view(complex) / np.sqrt(2)
    roots = find_roots_batch(from_roots(z))
    assert match_multisets_batch(roots, z).max() <= 1e-5


def test_find_roots_deterministic_and_batch_consistent():
    rng = np.random.default_rng(37)
    z = random_configs(rng, 4, 7)
    coeffs = from_roots(z)
    a = find_roots_batch(coeffs)
    b = find_roots_batch(coeffs)
    np.testing.assert_array_equal(a, b)
    for i in range(4):
        np.testing.assert_array_equal(find_roots(coeffs[i]), a[i])


def test_finished_rows_leave_the_batch(monkeypatch):
    # The separated roots of rows 1 and 2 converge fast, the triple root of
    # row 0 slowly: the rows stop in different iterations, and each must
    # equal its solo solve, however long the others still iterate.
    coeffs = np.array(
        [from_roots(np.array(r)) for r in ([0.4, 0.4, 0.4, -1.0], [0.3 + 0.2j, -1.1, 0.7j, 1.5], [2, -2, 2j, -2j])]
    )
    solo = [find_roots(row) for row in coeffs]
    rows_seen = []
    evaluate = rootfind._eval_with_bound

    def spy(c, x):
        rows_seen.append(x.shape[0])
        return evaluate(c, x)

    monkeypatch.setattr(rootfind, "_eval_with_bound", spy)
    batch = find_roots_batch(coeffs)
    assert {1, 2, 3} <= set(rows_seen)
    for i in range(3):
        np.testing.assert_array_equal(batch[i], solo[i])



def test_aberth_spreads_coincident_starts_and_steps_over_flat_points():
    # p(z) = z**3 - 3z: the start estimates 1, 1 coincide (no repulsion
    # between them) and sit where p' = 0 (no Newton step).
    coeffs = np.array([[0, -3, 0, 1]], dtype=complex)
    x0 = np.array([[1, 1, -2]], dtype=complex)
    assert np.all(rootfind._eval_with_bound(coeffs, x0)[1][0, :2] == 0)
    roots = np.sort_complex(rootfind._aberth_iterate(coeffs, x0)[0])
    np.testing.assert_allclose(roots, [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)

def _random_polynomials(seed, count=4, degree=7):
    """Roots and ascending coefficients of ``count`` monic polynomials with Gaussian roots."""
    rng = np.random.default_rng(seed)
    roots = rng.standard_normal((count, degree)) + 1j * rng.standard_normal((count, degree))
    return roots, np.array([from_roots(r) for r in roots])


def test_aberth_rows_stalled_twice_leave_the_iteration(monkeypatch):
    # With no round-off floor no estimate is ever at it: a row leaves the
    # iteration after two stalled steps running, or at the round budget.
    roots, coeffs = _random_polynomials(7)
    monkeypatch.setattr(rootfind, "_EPS", 0.0)
    solo = [find_roots(row) for row in coeffs]
    evaluations = []
    evaluate = rootfind._eval_with_bound

    def spy(c, x):
        evaluations.append(x.shape[0])
        return evaluate(c, x)

    monkeypatch.setattr(rootfind, "_eval_with_bound", spy)
    batch = find_roots_batch(coeffs)
    # One evaluation of the active rows per round: some rows stalled while others iterated on.
    assert evaluations[0] == 4 and min(evaluations) < 4
    assert match_multisets_batch(batch, roots).max() <= 1.2e-14
    for i in range(4):
        assert batch[i].tobytes() == solo[i].tobytes()


def test_aberth_iteration_cap_returns_finite_estimates_and_fails_every_row(monkeypatch):
    _, coeffs = _random_polynomials(7)
    monkeypatch.setattr(rootfind, "_MAX_ITERATIONS", 3)
    assert np.isfinite(rootfind._aberth_iterate(coeffs, rootfind._initial_estimates(coeffs))).all()
    with pytest.raises(ConvergenceError, match="after 3 iterations in 4 of 4 rows") as err:
        find_roots_batch(coeffs)
    np.testing.assert_array_equal(err.value.rows, np.arange(4))
    assert np.isfinite(err.value.best).all()
    for i in range(4):
        with pytest.raises(ConvergenceError) as one:
            find_roots(coeffs[i])
        assert one.value.best[0].tobytes() == err.value.best[i].tobytes()


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


def test_repeated_zeros_are_returned_exactly():
    w = critical_points([1, 1, 1, 2])
    np.testing.assert_array_equal(np.sort_complex(w)[:2], [1, 1])
    assert np.sort_complex(w)[2] == pytest.approx(1.75, abs=1e-15)
    rng = np.random.default_rng(83)
    for n in (4, 9, 20):
        base = rng.standard_normal((5, n - 2)) + 1j * rng.standard_normal((5, n - 2))
        z = 1e3 * np.concatenate([base, base[:, :1], base[:, :1]], axis=1)  # a triple zero
        w = critical_points_batch(z)
        assert ((w == z[:, :1]).sum(axis=1) == 2).all()


@pytest.mark.parametrize(
    "n, scale",
    [(24, 10.0), (12, 100.0), (12, 1e3)],
)
def test_critical_points_match_60_digit_mpmath(n, scale):
    z = gaussian_configs(n, 3, n, scale)
    w = critical_points_batch(z)
    for i in range(3):
        assert match_multisets(w[i], mp_critical_points(z[i])) <= 1e-12 * np.abs(z[i]).max()


def test_near_collinear_critical_points_match_60_digit_mpmath():
    # Zeros 1e-7 off a line through 1.5 - 0.5i, the equality case of the even-order bounds.
    rng = np.random.default_rng(20)
    t = 5.0 * np.sort(rng.standard_normal(20)) + 1e-7j * rng.standard_normal(20)
    z = (1.5 - 0.5j) + t * np.exp(0.7j)
    w = critical_points(z)
    assert match_multisets(w, mp_critical_points(z)) <= 1e-12 * np.abs(z).max()


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_degree_64_at_any_scale(scale):
    z = gaussian_configs(64, 6, 64, scale)
    # Zeros z and -z: f(0) = 0 and the points lie within the cluster radius
    # of 0 at n = 64, yet only one of them is 0.
    z[-1, 32:] = -z[-1, :32]
    w = critical_points_batch(z)
    assert np.abs(w.mean(axis=1) - z.mean(axis=1)).max() <= 1e-13 * scale
    assert verify_spectrum(z).max_pair_distance.max() <= 1e-9 * np.abs(z).max()


def test_degree_64_stack_spans_several_calls_bit_for_bit():
    z = gaussian_configs(640, 11, 64, 1.0)  # 4 rows per kernel call at n = 64: three calls
    z[5, -1] = z[5, 0]  # a repeated zero
    w = critical_points_batch(z)
    xi = moduli_critical_points_batch(z)
    for i in range(11):
        np.testing.assert_array_equal(critical_points(z[i]), w[i])
        np.testing.assert_array_equal(moduli_critical_points(z[i]), xi[i])


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_work_arrays_are_bounded_in_bytes():
    # One call on all 300 rows at n = 64 peaks near 50 MB (critical points)
    # and 20 MB (moduli); the element budget solves 4 rows per call.
    z = gaussian_configs(300, 300, 64, 1.0)
    critical_points_batch(z[:1]), moduli_critical_points_batch(z[:1])  # warm the basis caches
    assert _peak_bytes(critical_points_batch, z) <= 2 << 20
    assert _peak_bytes(moduli_critical_points_batch, z) <= 1 << 20


def test_split_solves_equal_one_call_bit_for_bit():
    # find_roots_batch and match_multisets_batch take the same element
    # budget as the critical points; a row block of one gives one call per row.
    z = random_configs(np.random.default_rng(67), 9, 7)
    z[3, :3] = z[3, 0]  # a triple root
    coeffs = np.concatenate([from_roots(z), from_roots(np.column_stack([np.zeros((9, 2)), z[:, 2:]]))])
    a, b = z[:, :6], z[:, 6:0:-1] + 1e-3
    roots, dist = find_roots_batch(coeffs), match_multisets_batch(a, b)
    with mock.patch.object(rootfind, "_BUDGET", 1):
        np.testing.assert_array_equal(find_roots_batch(coeffs), roots)
        np.testing.assert_array_equal(match_multisets_batch(a, b), dist)


@st.composite
def spread_configs(draw, max_n=10):
    """Zeros in the unit square whose spread about the centroid is at least 1e-3."""
    n = draw(st.integers(2, max_n))
    coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    z = np.array([complex(draw(coord), draw(coord)) for _ in range(n)])
    assume(np.abs(z - z.mean()).max() >= 1e-3)
    return z


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    z=spread_configs(),
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(0.0, 2 * np.pi),
    scale=st.floats(1e-3, 1e3),
    shift=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)
def test_critical_points_respect_the_symmetries(z, seed, angle, scale, shift):
    perm = np.random.default_rng(seed).permutation(z.shape[0])
    turn = np.exp(1j * angle)
    w, *moved = critical_points_batch(np.stack([z, z[perm], turn * z, scale * z, z + shift]))
    s = np.abs(z - z.mean()).max()
    tol = 1e-7 * s
    assert match_multisets(moved[0], w) <= tol
    assert match_multisets(moved[1], turn * w) <= tol
    assert match_multisets(moved[2], scale * w) <= tol * scale
    assert match_multisets(moved[3], w + shift) <= tol + 1e-13 * abs(shift)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_batch_equals_single_bit_for_bit(n, rows, seed):
    z = gaussian_configs(seed, rows, n, 1.0)
    z[0, -1] = z[0, 0]  # a repeated zero
    w = critical_points_batch(z)
    with mock.patch.object(rootfind, "_BUDGET", 1):
        np.testing.assert_array_equal(critical_points_batch(z), w)
    for i in range(rows):
        np.testing.assert_array_equal(critical_points(z[i]), w[i])


def test_start_angle_is_the_seeded_draw():
    assert rootfind._START_ANGLE == np.random.Generator(np.random.PCG64(DEFAULT_SEED)).uniform(0.0, 2.0 * np.pi)


# The kernel as it stood before its one-pass rewrite: the executable spec
# that critical_points_batch must reproduce bit for bit.

def _spec_normalize(z):
    c = z.mean(axis=1, keepdims=True)
    s = np.max(np.abs(z - c), axis=1, keepdims=True)
    s[s == 0] = 1.0
    return c, s, (z - c) / s


def _spec_backward_error(u, w):
    inv = w[..., np.newaxis] - u[..., np.newaxis, :]
    on_zero = (inv == 0).any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.reciprocal(inv, out=inv)
        f = inv.sum(axis=-1)
        error = np.abs(f) / (inv.real**2 + inv.imag**2).sum(axis=-1)
        step = -f / (inv * inv).sum(axis=-1)
    return np.where(on_zero, 0.0, error), np.where(on_zero, 0.0, step)


def _spec_compression_eigenvalues(z, tol):
    eps = np.finfo(float).eps
    n = z.shape[1]
    c, s, u = _spec_normalize(z)
    q = rootfind._complement_basis(n)
    w = np.linalg.eigvals((q.T * u[:, np.newaxis, :]) @ q)
    error, step = _spec_backward_error(u, w)
    polished, _ = _spec_backward_error(u, w - step)
    better = polished < error
    w, error = np.where(better, w - step, w), np.where(better, polished, error).max(axis=1)
    near = np.flatnonzero(np.max(np.abs(w), axis=1) <= 2.0 * (n * eps) ** (1.0 / (n - 1)))
    if near.size:
        powers = np.cumprod(np.repeat(u[near, np.newaxis, :], n - 1, axis=1), axis=1)
        moment = np.max(np.abs(powers.sum(axis=2)), axis=1) / n
        polygon = moment <= tol
        w[near[polygon]] = 0.0
        error[near[polygon]] = moment[polygon]
    gap = np.abs(w[:, :, np.newaxis] - u[:, np.newaxis, :])
    j = np.argmin(gap, axis=2)
    on_zero = np.take_along_axis(gap, j[:, :, np.newaxis], axis=2)[:, :, 0] <= 8 * n * eps
    return np.where(on_zero, np.take_along_axis(z, j, axis=1), c + s * w), error


def _solved(solve, z, tol):
    """Points, failed rows and worst backward error of a solve that may raise ConvergenceError."""
    try:
        return solve(z, tol), np.array([], dtype=int), np.nan
    except ConvergenceError as err:
        return err.best, err.rows, err.residual


def _spec_critical_points_batch(z, tol):
    w, error = _spec_compression_eigenvalues(z, tol)
    failed = np.flatnonzero(~(error <= tol))
    if failed.size:
        raise ConvergenceError("spec", best=w, residual=float(np.max(error)), rows=failed)
    return w


@st.composite
def kernel_batches(draw):
    """Up to 8 rows of one degree: generic, repeated or triple zeros, regular n-gons, collinear; any scale.

    A ``pair`` row has two zeros 1 to 2 snap distances (8 n eps of the
    normalized zeros) apart, so a critical point lies about half that
    distance from each.
    """
    n = draw(st.integers(2, 20))
    kinds = draw(st.lists(st.sampled_from(["generic", "repeated", "triple", "pair", "polygon", "collinear"]), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        centre = complex(*rng.standard_normal(2))
        turn = np.exp(2j * np.pi * rng.uniform())
        if kind == "polygon":
            z = centre + turn * np.exp(2j * np.pi * np.arange(n) / n)
        elif kind == "collinear":
            z = centre + turn * rng.standard_normal(n)
        else:
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z[1 : {"repeated": 2, "triple": 3}.get(kind, 1)] = z[0]
            if kind == "pair":
                gap = rng.uniform(1.0, 2.0) * 8 * n * np.finfo(float).eps * np.abs(z - z.mean()).max()
                z[1] = z[0] + gap * np.exp(2j * np.pi * rng.uniform())
            z = rng.permutation(z)
        rows.append(10.0 ** rng.uniform(-6, 6) * z)
    return np.array(rows)


# A regular 47-gon plus its centre, under a loose gate: the polygon rule
# puts all 47 points on the centroid, a rounding away from the centre
# zero, and the snap must then move them onto that zero.
_GON_AND_CENTRE = np.append(np.exp(2j * np.pi * np.arange(47) / 47), 0.0) + (0.3 + 0.7j)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z=kernel_batches(), tol=st.sampled_from([1e-9, 1e-11]), poisoned=st.integers(0, 8), budget=st.sampled_from([None, 1]))
@example(z=_GON_AND_CENTRE[np.newaxis], tol=10.0, poisoned=8, budget=None)
def test_kernel_equals_its_executable_spec_bit_for_bit(z, tol, poisoned, budget):
    # With budget 1, critical_points_batch solves the stack one row per
    # eigenvalue call and joins the blocks.  The kernel solves through its
    # LAPACK call rootfind._eigvals, the spec through np.linalg.eigvals.
    solved = [0]  # rows of the stack solved so far

    def poison(eigvals):
        def poisoned_eigvals(a):
            out = eigvals(a)
            row = poisoned - solved[0]
            if 0 <= row < out.shape[0]:  # row `poisoned` of the stack gets NaN, whichever call solves it
                out[row] = np.nan
            solved[0] += out.shape[0]
            return out

        return poisoned_eigvals

    settings = RootSolverSettings(tol_root=tol)
    with mock.patch.object(rootfind, "_eigvals", poison(rootfind._eigvals)), \
            mock.patch.object(np.linalg, "eigvals", poison(np.linalg.eigvals)), \
            mock.patch.object(rootfind, "_BUDGET", budget or rootfind._BUDGET):
        w, rows, residual = _solved(critical_points_batch, z, settings)
        solved[0] = 0
        want, want_rows, want_residual = _solved(_spec_critical_points_batch, z, tol)
    np.testing.assert_array_equal(w.view(float), want.view(float))  # NaN equals NaN here
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(residual, want_residual)


def test_rows_whose_centroid_or_radius_overflows_solve_as_alone():
    # Each row is solved in its frame, so these rows solve exactly as their
    # 2**-1024-scaled copies do, scaled back, and leave their batch mates alone.
    z = random_configs(np.random.default_rng(29), 5, 3)
    z[1] = [1e308, 1e308, 1e308j]  # the sum of the zeros overflows
    z[3] = [1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, 0.0]  # the centroid is 0, a modulus overflows
    solo = {i: critical_points(z[i]) for i in (0, 2, 4)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = critical_points_batch(z)
        for i in (1, 3):
            scaled = critical_points(np.ldexp(z[i].view(float), -1024).view(complex))
            assert w[i].tobytes() == np.ldexp(scaled.view(float), 1024).view(complex).tobytes()
    assert np.isfinite(w).all()
    for i in (0, 2, 4):
        assert w[i].tobytes() == solo[i].tobytes()


def test_special_rows_in_one_batch_are_solved_as_alone(nan_eigvals):
    rng = np.random.default_rng(61)
    polygon = (0.5 - 2j) + 3.0 * np.exp(2j * np.pi * (np.arange(7) / 7 + 0.1))
    triple = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    triple[1:3] = triple[0]
    generic = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    z = np.stack([polygon, triple, generic[0], generic[1], generic[2]])
    solo = [critical_points(row) for row in z]
    nan_eigvals(3)
    with pytest.raises(ConvergenceError) as err:
        critical_points_batch(z)
    np.testing.assert_array_equal(err.value.rows, [3])
    w = err.value.best
    assert np.isnan(w[3]).all()
    for i in (0, 1, 2, 4):
        np.testing.assert_array_equal(w[i], solo[i])
    np.testing.assert_array_equal(w[0], np.full(6, polygon.mean()))
    assert (w[1] == triple[0]).sum() == 2


def test_moduli_critical_points_examples():
    np.testing.assert_allclose(moduli_critical_points([1, -1]), [1.0], atol=1e-14)
    np.testing.assert_allclose(moduli_critical_points([1, 1j, -1, -1j]), [1, 1, 1], atol=1e-14)
    np.testing.assert_allclose(moduli_critical_points([0, 0, 3]), [2, 0], atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_moduli_point_past_the_double_range_is_inf_without_warnings():
    # The moduli 1.5e308 * sqrt(2) overflow, though the components do not.
    xi = moduli_critical_points([1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, 0])
    assert xi[0] == np.inf and 7.0e307 < xi[1] < 7.1e307


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
    for tol in (0.0, -1e-9, np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            RootSolverSettings(tol_root=tol)
    assert RootSolverSettings(tol_root=1e-9).tightened() == RootSolverSettings(tol_root=1e-9 / 100)
