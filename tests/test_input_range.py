"""The documented input range as one property: any finite input, at any scale, degree 2..64, clustered or repeated.

Every bound is homogeneous, so a shape times an exact power of two 2**k is the same problem.  A shape is a
draw of one of the five ensembles, or a Gaussian draw whose first 2..n zeros are pulled into a cluster at
spacing 1e-4, 1e-8 or 1e-12, or onto one repeated zero.  k runs from where the largest |re| or |im| is
2**-1074, the least subnormal, up to where the centroid and max |z - c| stay finite.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from schoenberg import search
from schoenberg.cli import main
from schoenberg.rootfind import critical_points_batch
from schoenberg.search import ENSEMBLE_KINDS, Ensemble

# The North star's Open note (ROADMAP): far above unit size the order-6 and
# LXZ(6) sums overflow, so their slack is NaN and the report a false violation.
OPEN_NOTE = "ROADMAP North star, Open: far above unit size the order-6 sums overflow into a false violation"


def _times_power_of_two(z, k):
    return np.ldexp(z.view(float), k).view(complex)


def _frame_is_finite(z):
    """Whether the centroid c and max |z - c| are finite, formed as the solver forms them."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.add.reduce(z) / z.size
        return bool(np.isfinite(np.maximum.reduce(np.abs(z - c))))


@st.composite
def shapes(draw):
    n = draw(st.integers(2, 64))
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
    while not _frame_is_finite(_times_power_of_two(z, high)):
        high -= 1
    if top is not None:
        high = min(high, top - e)
    k = draw(st.one_of(st.just(low), st.just(high), st.integers(low, high)))
    return _times_power_of_two(z, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=scaled_shapes())
def test_critical_points_at_every_scale(z):
    # A raw RuntimeWarning is an error in this suite, and so is ConvergenceError.
    assert np.isfinite(critical_points_batch(z[np.newaxis])).all()


def _zeros_text(z):
    return " ".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in z)


def _assert_only_the_table(out):
    lines = out.splitlines()
    assert lines[0].startswith("spectrum check: max pairing distance ")
    assert lines[1].startswith("centroid residual ")
    assert lines[2].split() == ["inequality", "lhs", "rhs", "slack", "holds", "equality", "applicable"]
    assert all(len(line.split()) == 7 for line in lines[3:])


# The exit-2 diagnostics this range still reaches, both from the spectrum
# check: its independent side, the Aberth solve of the coefficients of p',
# or its tolerance (FOUND lines in CHANGES.md; the repros below).
SPECTRUM_SIDE = ("numeric-consistency failure: companion spectrum mismatch\n", "numeric error: root iteration residual ")
CLI_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _verify(z, capfd):
    capfd.readouterr()
    code = main(["verify", "--zeros", _zeros_text(z)])
    out, err = capfd.readouterr()  # capfd also sees what LAPACK writes to file descriptor 1
    _assert_only_the_table(out)
    return code, err


# At n = 64, LOGMAJ products overflow from about 2**16, so the CLI half stops at unit size.
@CLI_SETTINGS
@given(z=scaled_shapes(top=0))
def test_verify_prints_only_its_table_up_to_unit_size(z, capfd):
    code, err = _verify(z, capfd)
    # The critical-point solver never fails, and nothing raw is printed.
    assert err == "" or (err.startswith(SPECTRUM_SIDE) and err.count("\n") == 1)
    assert code == (2 if err else 0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: the spectrum check's independent side, repros below")
@pytest.mark.filterwarnings("ignore::DeprecationWarning:libcst")  # hypothesis's plugin imports libcst to report the failing draw
@settings(CLI_SETTINGS, phases=[Phase.generate])  # the first failing draw, unshrunk
@given(z=scaled_shapes(top=0))
def test_verify_exits_0_up_to_unit_size(z, capfd):
    assert _verify(z, capfd) == (0, "")


@pytest.mark.parametrize("zeros", [
    pytest.param("1e60,0 -1e60,0 0,1e60", id="1e60-triangle",
                 marks=pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason=OPEN_NOTE)),
    pytest.param(_zeros_text(1e150 * np.exp(2j * np.pi * np.arange(64) / 64)), id="1e150-roots-of-unity-64",
                 marks=pytest.mark.xfail(strict=True, raises=(AssertionError, RuntimeWarning), reason=OPEN_NOTE)),
    # Aberth splits the 4-fold critical point at 1 into a ring of radius
    # about eps**(1/4), wider than the 1e-6 cluster radius that would widen
    # the tolerance.
    pytest.param("1,0 1,0 1,0 1,0 1,0 -1,0 0,1 0,-1", id="five-fold-zero",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: spectrum check, repeated zero")),
    # The coefficients of p' of 40 zeros on a line are ill-conditioned.
    pytest.param(_zeros_text(np.arange(40) / 40), id="line-of-40",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: spectrum check, high degree")),
    # The centroid of 35 zeros at 0.1 rounds off 0.1, so u is 35 copies of
    # 1, and Aberth starts p' = 35 (x - 1)**34 on a circle of radius about
    # 3e9, where its evaluation overflows.
    pytest.param(" ".join(["0.1,0"] * 35), id="35-coincident-zeros",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: spectrum check, coincident zeros")),
    # The tolerance, 1e-7 max |z|, is under one subnormal step below about
    # 5e-317: here it is 0, and the pairing distance one step.
    pytest.param("-1.5e-323,2e-323 1e-323,-3e-323", id="subnormal-tolerance",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: spectrum tolerance underflows")),
])
def test_verify_exits_0_with_only_its_table(zeros, capfd):
    code = main(["verify", "--zeros", zeros])
    out, err = capfd.readouterr()
    assert (code, err) == (0, "")
    _assert_only_the_table(out)
