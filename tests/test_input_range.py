"""The documented input range as one property: any finite input, at any scale, degree 2..64, clustered or repeated.

Every bound is homogeneous, so a shape times an exact power of two 2**k is the same problem.  A shape is a
draw of one of the five ensembles, or a Gaussian draw whose first 2..n zeros are pulled into a cluster at
spacing 1e-4, 1e-8 or 1e-12, or onto one repeated zero.  k runs from where the largest |re| or |im| is
2**-1074, the least subnormal, up to where it is below 2**1024, the top of the double range.  The solves
work in the zeros' frame, so where 2**k z is exact their results are those of z times 2**k, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from schoenberg import inequalities, search
from schoenberg.cli import main
from schoenberg.config import TOL_CENTER
from schoenberg.errors import NumericConsistencyError
from schoenberg.matrices import char_poly, eigenvalues
from schoenberg.poly import centroid_residual, from_roots, recenter
from schoenberg.rootfind import critical_points_batch, find_roots_batch, moduli_critical_points_batch
from schoenberg.search import ENSEMBLE_KINDS, Ensemble

# The North star's Open note (ROADMAP): far above unit size the order-6 and
# LXZ(6) sums overflow, so their slack is NaN and the report a false violation.
OPEN_NOTE = "ROADMAP North star, Open: far above unit size the order-6 sums overflow into a false violation"


def _times_power_of_two(z, k):
    return np.ldexp(z.view(float), k).view(complex)


@st.composite
def shapes(draw, max_n=64):
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from([*ENSEMBLE_KINDS, "cluster", "repeat"]))
    ensemble = Ensemble(kind=kind if kind in ENSEMBLE_KINDS else "gaussian", n=n, count=1, seed=draw(st.integers(0, 2**32 - 1)))
    z = search._samples(ensemble, range(1))[1][0]
    if kind not in ENSEMBLE_KINDS:
        m = draw(st.integers(2, n))
        spacing = draw(st.sampled_from([1e-4, 1e-8, 1e-12])) if kind == "cluster" else 0.0
        z[:m] = z[0] + spacing * z[:m]
    return z


@st.composite
def scaled_shapes(draw, top=None):
    """A shape times 2**k, k at either end of its range or anywhere in it; ``top`` caps the largest |re| or |im| below 2**top."""
    z = draw(shapes())
    e = int(np.frexp(np.abs(z.view(float)).max())[1])  # the largest |re| or |im| is in [2**(e-1), 2**e)
    low, high = -1073 - e, 1024 - e
    if top is not None:
        high = min(high, top - e)
    k = draw(st.one_of(st.just(low), st.just(high), st.integers(low, high)))
    return _times_power_of_two(z, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=scaled_shapes())
def test_critical_points_at_every_scale(z):
    # A raw RuntimeWarning is an error in this suite, and so is ConvergenceError.
    assert np.isfinite(critical_points_batch(z[np.newaxis])).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(z=shapes(max_n=10))
def test_solves_scale_exactly_by_every_power_of_two(z):
    # Every k for which 2**k z is exact and finite, as one stack: each row is solved as alone.
    ks = np.arange(-1200, 1100)
    with np.errstate(over="ignore"):
        scaled = _times_power_of_two(np.tile(z, (ks.size, 1)), ks[:, np.newaxis])
        keep = np.isfinite(scaled).all(axis=1) & (_times_power_of_two(scaled, -ks[:, np.newaxis]) == z).all(axis=1)
        ks, scaled = ks[keep], scaled[keep]
        # Where the scaled result still fits the double range: results of z times 2**k, rounded once.
        moduli = np.ldexp(moduli_critical_points_batch(z), ks[:, np.newaxis])
        centered = _times_power_of_two(np.tile(recenter(z), (ks.size, 1)), ks[:, np.newaxis])
    points = _times_power_of_two(np.tile(critical_points_batch(z[np.newaxis]), (ks.size, 1)), ks[:, np.newaxis])
    assert _bits(critical_points_batch(scaled)).tolist() == _bits(points).tolist()
    fits = np.isfinite(moduli).all(axis=1)
    assert _bits(moduli_critical_points_batch(scaled[fits])).tolist() == _bits(moduli[fits]).tolist()
    fits = np.isfinite(centered).all(axis=1)
    got, want = recenter(scaled[fits]), centered[fits]
    normal = (np.abs(want.view(float)) >= np.finfo(float).tiny) | (want.view(float) == 0)
    assert np.isfinite(got).all() and (got.view(float)[normal] == want.view(float)[normal]).all()


def _exactly_scaled(z):
    """Every k with 2**k z exact and finite, and the (k, n) stack of those 2**k z."""
    ks = np.arange(-1200, 1100)
    with np.errstate(over="ignore"):
        scaled = _times_power_of_two(np.tile(z, (ks.size, 1)), ks[:, np.newaxis])
        keep = np.isfinite(scaled).all(axis=1) & (_times_power_of_two(scaled, -ks[:, np.newaxis]) == z).all(axis=1)
    return ks[keep], scaled[keep]


def _times_exactly(a, k):
    """``a`` times 2**k, k broadcast against its real and imaginary parts, and the rows where every nonzero part stays normal."""
    parts = np.ascontiguousarray(a).view(float)
    with np.errstate(over="ignore"):
        x = np.ldexp(parts, k)
    normal = (parts == 0) | ((np.abs(x) >= np.finfo(float).tiny) & (np.abs(x) < np.inf))
    return x.view(complex), normal.all(axis=-1)


def _coefficients_times(c, ks):
    """c_j 2**(k (d - j)) for each k of ``ks``, the coefficients of the roots of c times 2**k, and where they stay normal."""
    exponents = ks[:, np.newaxis] * np.arange(c.shape[-1] - 1, -1, -1)
    return _times_exactly(np.tile(c, (ks.size, 1)), np.repeat(exponents, 2, axis=1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(z=shapes(max_n=16))
def test_root_solve_scales_exactly_by_every_power_of_two(z):
    # Every k where the coefficients of 2**k z are those of z scaled exactly and stay normal, as one stack.
    ks, scaled = _exactly_scaled(z)
    c = from_roots(z)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = from_roots(scaled)
    want_c, normal_c = _coefficients_times(c, ks)
    want, normal = _times_exactly(np.tile(find_roots_batch(c), (ks.size, 1)), ks[:, np.newaxis])
    keep = (coeffs == want_c).all(axis=1) & normal_c & normal
    assert keep.sum() >= 1000 // z.size
    assert _bits(find_roots_batch(coeffs[keep])).tolist() == _bits(want[keep]).tolist()


@settings(max_examples=4, deadline=None, derandomize=True)
@given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_eigenvalues_scale_exactly_by_every_power_of_two(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, 2 * n)).view(complex)
    c, points = char_poly(m), eigenvalues(m)
    for k in range(-1100 // n, 1100 // n):
        mk = np.ldexp(m.view(float), k).view(complex)
        with np.errstate(all="ignore"):
            ck = char_poly(mk)
        (want_c,), (normal_c,) = _coefficients_times(c, np.array([k]))
        want, normal = _times_exactly(points, k)
        if (ck == want_c).all() and normal_c and normal:
            assert _bits(eigenvalues(mk)).tolist() == _bits(want).tolist()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(z=shapes(max_n=10))
def test_trace_oracles_scale_exactly_by_every_power_of_two(z):
    # Degree-6 words: the value at 2**k z is the value at z times 2**(6k), rounded once, inf past the range.
    z = recenter(z)
    # Zeros an ulp apart can recenter to a residue of an ulp, which the oracles' centering gate rejects.
    assume(centroid_residual(z) <= TOL_CENTER)
    ks, scaled = _exactly_scaled(z)
    for oracle in (inequalities.star_trace_oracle, inequalities.starstar_trace_oracle):
        with np.errstate(over="ignore"):
            want = np.ldexp(oracle(z), 6 * ks)
        assert _bits(oracle(scaled)).tolist() == _bits(want).tolist()


def test_trace_check_is_relative_to_the_zeros():
    # A trace of 1e-18 with an imaginary part of 1e-16 on 1e-3-scale zeros is not real.
    x, e, *_ = inequalities._word_factors(1e-3 * recenter(np.array([1.0, 1j, -2.0, 0.5 - 1j])))
    with pytest.raises(NumericConsistencyError, match="trace imaginary part"):
        inequalities._real_trace((1e-18 + 1e-16j) * 2.0 ** (6 * e), x, e)


def _zeros_text(z):
    return " ".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in z)


def _assert_only_the_table(out):
    lines = out.splitlines()
    assert lines[0].startswith("spectrum check: max pairing distance ")
    assert lines[1].startswith("centroid residual ")
    assert lines[2].split() == ["inequality", "lhs", "rhs", "slack", "holds", "equality", "applicable"]
    assert all(len(line.split()) == 7 for line in lines[3:])


CLI_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_verify_exits_0(zeros, capfd):
    capfd.readouterr()
    code = main(["verify", "--zeros", zeros])
    out, err = capfd.readouterr()  # capfd also sees what LAPACK writes to file descriptor 1
    assert (code, err) == (0, "")
    _assert_only_the_table(out)


# At n = 64, LOGMAJ products overflow from about 2**16, so the CLI half stops at unit size.
@CLI_SETTINGS
@given(z=scaled_shapes(top=0))
def test_verify_exits_0_up_to_unit_size(z, capfd):
    _assert_verify_exits_0(_zeros_text(z), capfd)


def test_verify_exits_0_on_high_degree_ensemble_draws(capfd):
    # The 34 draws of samples 0..4 of Ensemble(seed=0) at n in {8, 16, 24, 33, 40, 48, 56, 64} that a
    # spectrum check by Aberth on the coefficients of p' failed.
    draws = [("collinear", 33, [1]), ("collinear", 40, [1, 3]), ("sendov-boundary", 64, [0])]
    draws += [(kind, n, range(5)) for kind in ("collinear", "roots-of-unity-perturbed") for n in (48, 56, 64)]
    for kind, n, indices in draws:
        for z in search._samples(Ensemble(kind=kind, n=n, count=5, seed=0), indices)[1]:
            _assert_verify_exits_0(_zeros_text(z), capfd)


@pytest.mark.parametrize("zeros", [
    pytest.param("1e60,0 -1e60,0 0,1e60", id="1e60-triangle",
                 marks=pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason=OPEN_NOTE)),
    pytest.param(_zeros_text(1e150 * np.exp(2j * np.pi * np.arange(64) / 64)), id="1e150-roots-of-unity-64",
                 marks=pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason=OPEN_NOTE)),
    # The sum of the zeros overflows: the solve and the spectrum check pass in the frame, the sums do not.
    pytest.param("1e308,0 1e308,0 0,1e308", id="1e308-sum-overflows",
                 marks=pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason=OPEN_NOTE)),
    # A zero of multiplicity 5: a 4-fold critical point at 1, semisimple in D S (eigenvectors e_i - e_j).
    pytest.param("1,0 1,0 1,0 1,0 1,0 -1,0 0,1 0,-1", id="five-fold-zero"),
    # The coefficients of p' of 40 zeros on a line are ill-conditioned; D S's eigenvalues are not.
    pytest.param(_zeros_text(np.arange(40) / 40), id="line-of-40"),
    # The centroid of 35 zeros at 0.1 rounds off 0.1, so u is 35 copies of 1.
    pytest.param(" ".join(["0.1,0"] * 35), id="35-coincident-zeros"),
    # 1e-7 max |z| rounds to 0 here; the tolerance is one subnormal step, the pairing distance.
    pytest.param("-1.5e-323,2e-323 1e-323,-3e-323", id="subnormal-tolerance"),
])
def test_verify_exits_0_with_only_its_table(zeros, capfd):
    _assert_verify_exits_0(zeros, capfd)


@pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason=OPEN_NOTE)
def test_sweep_at_the_top_of_the_range_exits_0_quietly(tmp_path, capfd):
    # Every row solves in its frame; the order-6 and LXZ(6) sums then overflow.
    argv = ["sweep", "--ensemble", "roots-of-unity-perturbed", "--n", "5", "--count", "3", "--scale", "1e308"]
    code = main([*argv, "--out", str(tmp_path / "o")])
    assert (code, capfd.readouterr().err) == (0, "")
