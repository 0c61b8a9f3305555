"""Two-sided inequality evaluators, trace oracles, and ordering claims."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schoenberg.errors import InvalidInputError
from schoenberg.inequalities import (
    CENTERED_IDS,
    eval_general,
    eval_logmaj,
    eval_order1,
    eval_order2,
    eval_order4,
    eval_order6,
    eval_symmetric,
    evaluate_ensemble,
    full_report,
    lookup,
    make_report,
    order6_bounds,
    row_reports,
    star_trace_oracle,
    starstar_trace_oracle,
)
from schoenberg.poly import recenter
from schoenberg.rootfind import critical_points, critical_points_batch

SQ3 = np.sqrt(3.0)


def crit(zeros):
    z = np.asarray(zeros, dtype=complex)
    return z, critical_points(z)


def centered_batch(rng, count, n):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    z = recenter(z)
    return z / np.abs(z).max(axis=1, keepdims=True)


def collinear_batch(rng, count, n):
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    theta = rng.uniform(0, 2 * np.pi, count)
    t = rng.standard_normal((count, n))
    z = c[:, None] + t * np.exp(1j * theta)[:, None]
    z = recenter(z)
    return z / np.abs(z).max(axis=1, keepdims=True)


# --- order 2 ---------------------------------------------------------------

def test_order2_collinear_pair_equality():
    s0, _ = eval_order2(*crit([1.0, -1.0]))
    assert s0.lhs == 0 and s0.rhs == 0 and s0.equality and s0.holds


def test_order2_roots_of_unity():
    s0, s = eval_order2(*crit([1, 1j, -1, -1j]))
    assert s0.lhs == pytest.approx(0, abs=1e-12)
    assert s0.rhs == pytest.approx(2.0)
    assert s0.holds and not s0.equality
    assert s.rhs == pytest.approx(2.0)  # centroid term vanishes


def test_order2_general_form_123():
    # w = 2 +- 1/sqrt(3): lhs = 8 + 2/3; rhs = 14/3 + 36/9 = 26/3
    _, s = eval_order2(*crit([1.0, 2.0, 3.0]))
    assert s.lhs == pytest.approx(8 + 2 / 3)
    assert s.rhs == pytest.approx(26 / 3)
    assert s.equality


def test_order2_centering_flags():
    s0, s = eval_order2(*crit([1.0, 2.0, 3.0]))
    assert s0.centered_required and not s0.centered_satisfied and not s0.applicable
    assert s.applicable


# --- order 4 ---------------------------------------------------------------

def test_order4_roots_of_unity():
    bs, kt = eval_order4(*crit([1, 1j, -1, -1j]))
    assert kt.lhs == pytest.approx(0, abs=1e-12)
    assert kt.rhs == pytest.approx(1.0)
    assert bs.rhs == pytest.approx(2.0)
    assert kt.holds and bs.holds


def test_order4_collinear_equality():
    bs, kt = eval_order4(*crit([1.0, 0.0, -1.0]))
    assert kt.lhs == pytest.approx(2 / 9)
    assert kt.rhs == pytest.approx(2 / 9)
    assert kt.equality


# --- order 6 ---------------------------------------------------------------

def test_order6_collinear_equality_two_over_27():
    star, starstar = eval_order6(*crit([1.0, 0.0, -1.0]))
    assert star.lhs == pytest.approx(2 / 27)
    assert star.rhs == pytest.approx(2 / 27)
    assert starstar.rhs == pytest.approx(2 / 27)
    assert star.equality and starstar.equality


def test_order6_roots_of_unity():
    star, _ = eval_order6(*crit([1, 1j, -1, -1j]))
    assert star.lhs == pytest.approx(0, abs=1e-12)
    assert star.rhs == pytest.approx(2.0)


# --- order 1 ---------------------------------------------------------------

def test_order1_sharp_family():
    # z^(n-2) (z^2 - 1) for n = 5: both sides are 2 sqrt(3/5)
    _, st1 = eval_order1(*crit([0, 0, 0, 1, -1]))
    assert st1.lhs == pytest.approx(2 * np.sqrt(3 / 5))
    assert st1.rhs == pytest.approx(2 * np.sqrt(3 / 5))
    assert st1.equality


def test_order1_squared_pair_strict():
    # (z^2 - 1)^2: critical points {0, 1, -1}, lhs 2, rhs 2 sqrt(2)
    _, st1 = eval_order1(*crit([1.0, 1.0, -1.0, -1.0]))
    assert st1.lhs == pytest.approx(2.0)
    assert st1.rhs == pytest.approx(2 * np.sqrt(2))
    assert st1.holds and not st1.equality
    assert st1.slack == pytest.approx(2 * np.sqrt(2) - 2)


def test_order1_bsen():
    bsen, _ = eval_order1(*crit([1.0, -1.0]))
    assert bsen.lhs == 0 and bsen.rhs == pytest.approx(1.0) and bsen.holds


# --- elementary symmetric / log-majorization -------------------------------

def test_symmetric_examples():
    rep = eval_symmetric(*crit([1, 1j, -1, -1j]), 2)
    assert rep.lhs == pytest.approx(0, abs=1e-12)
    assert rep.rhs == pytest.approx(3.0)

    rep1 = eval_symmetric(*crit([1.0, 2.0, 3.0]), 1)
    assert rep1.lhs == pytest.approx(4.0) and rep1.rhs == pytest.approx(4.0) and rep1.equality

    rep2 = eval_symmetric(*crit([1.0, 2.0, 3.0]), 2)
    assert rep2.lhs == pytest.approx(11 / 3) and rep2.rhs == pytest.approx(11 / 3) and rep2.equality


def test_symmetric_k_range():
    z, w = crit([1.0, 2.0, 3.0])
    with pytest.raises(InvalidInputError):
        eval_symmetric(z, w, 0)
    with pytest.raises(InvalidInputError):
        eval_symmetric(z, w, 3)


def test_logmaj_examples():
    rep = eval_logmaj(*crit([1.0, -1.0]), 1)
    assert rep.lhs == 0 and rep.rhs == pytest.approx(1.0)

    rep3 = eval_logmaj(*crit([1, 1j, -1, -1j]), 3)
    assert rep3.lhs == pytest.approx(0, abs=1e-12) and rep3.rhs == pytest.approx(1.0)

    z, w = crit([1.0, 2.0, 3.0])
    for k in (1, 2):
        rep = eval_logmaj(z, w, k)
        assert abs(rep.slack) <= 1e-9  # positive real zeros reproduce the same points
        assert rep.aux["esf_lhs"] <= rep.aux["esf_rhs"] + 1e-9


def test_logmaj_esf_consequence_random():
    rng = np.random.default_rng(97)
    for n in (3, 6, 10):
        z = centered_batch(rng, 10, n)
        for i in range(z.shape[0]):
            zi, wi = z[i], critical_points(z[i])
            for k in range(1, n):
                rep = eval_logmaj(zi, wi, k)
                assert rep.holds
                assert rep.aux["esf_lhs"] <= rep.aux["esf_rhs"] * (1 + 1e-9) + 1e-12


# --- general order ----------------------------------------------------------

def test_general_order_fixture():
    z, w = crit([1.0, 0.0, -1.0])
    lxz, impro = eval_general(z, w, 4)
    assert impro.lhs == pytest.approx(2 / 9)
    assert impro.rhs == pytest.approx(4 / 9)
    assert lxz.rhs == pytest.approx(16 / 9)
    assert impro.rhs <= lxz.rhs


def test_general_order_n2_coincide():
    rng = np.random.default_rng(101)
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = critical_points(z)
        for r in (2.0, 2.5, 3.0, 4.0, 6.0):
            lxz, impro = eval_general(z, w, r)
            assert impro.rhs == pytest.approx(lxz.rhs, rel=1e-12)


def test_general_order_requires_r_at_least_2():
    z, w = crit([1.0, -1.0])
    with pytest.raises(InvalidInputError):
        eval_general(z, w, 1.5)


# --- trace oracles ----------------------------------------------------------

def test_trace_oracles_fixtures():
    assert star_trace_oracle([1.0, 0.0, -1.0]) == pytest.approx(2 / 27)
    assert starstar_trace_oracle([1.0, 0.0, -1.0]) == pytest.approx(2 / 27)
    assert star_trace_oracle([1, 1j, -1, -1j]) == pytest.approx(2.0)
    assert star_trace_oracle([0.0, 0.0, 0.0]) == 0.0
    assert starstar_trace_oracle([0.0, 0.0, 0.0]) == 0.0


def test_trace_oracle_requires_centered():
    with pytest.raises(InvalidInputError):
        star_trace_oracle([1.0, 2.0, 3.0])


def test_closed_forms_match_trace_oracles():
    rng = np.random.default_rng(103)
    for n in (2, 5, 8):
        z = centered_batch(rng, 50, n)
        star_rhs, starstar_rhs = order6_bounds(z)
        for i in range(z.shape[0]):
            assert abs(star_trace_oracle(z[i]) - star_rhs[i]) <= 1e-10
            assert abs(starstar_trace_oracle(z[i]) - starstar_rhs[i]) <= 1e-10


def test_trace_oracles_on_a_stack_equal_per_row_calls():
    rng = np.random.default_rng(107)
    for n in (2, 6, 10):
        z = centered_batch(rng, 40, n)
        star, starstar = star_trace_oracle(z), starstar_trace_oracle(z)
        assert star.shape == starstar.shape == (40,)
        for i in range(z.shape[0]):
            assert star[i] == star_trace_oracle(z[i])
            assert starstar[i] == starstar_trace_oracle(z[i])


def test_trace_oracles_reject_one_off_centre_row():
    z = centered_batch(np.random.default_rng(109), 5, 4)
    z[3] += 0.1
    with pytest.raises(InvalidInputError):
        star_trace_oracle(z)
    with pytest.raises(InvalidInputError):
        starstar_trace_oracle(z)


# --- ordering and invariance claims -----------------------------------------

def test_ordering_chain_order6():
    rng = np.random.default_rng(107)
    for n in (2, 3, 5, 9):
        z = centered_batch(rng, 40, n)
        w = critical_points_batch(z)
        lhs6 = (np.abs(w) ** 6).sum(axis=1)
        star_rhs, starstar_rhs = order6_bounds(z)
        assert (lhs6 <= starstar_rhs + 1e-10).all()
        assert (starstar_rhs <= star_rhs + 1e-10).all()


def test_kt_rhs_below_bs_rhs():
    rng = np.random.default_rng(109)
    for n in (2, 4, 7, 11):
        z = centered_batch(rng, 40, n)
        for i in range(z.shape[0]):
            w = critical_points(z[i])
            bs, kt = eval_order4(z[i], w)
            assert kt.rhs <= bs.rhs + 1e-12 * max(1, abs(bs.rhs))


def test_impro_below_lxz_for_n_at_least_3():
    rng = np.random.default_rng(113)
    for n in (3, 5, 10):
        z = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        for i in range(20):
            w = critical_points(z[i])
            for r in (2.0, 2.5, 3.0, 4.0, 6.0):
                lxz, impro = eval_general(z[i], w, r)
                assert impro.rhs <= lxz.rhs * (1 + 1e-12)


def test_homogeneity_and_rotation_invariance():
    rng = np.random.default_rng(127)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    z = recenter(z)
    w = critical_points(z)
    t = 1.7 - 0.9j
    zt = t * z
    wt = critical_points(zt)

    for evaluator, power in ((eval_order2, 2), (eval_order4, 4), (eval_order6, 6)):
        base = evaluator(z, w)
        scaled = evaluator(zt, wt)
        for rep_b, rep_s in zip(base, scaled):
            assert rep_s.lhs == pytest.approx(abs(t) ** power * rep_b.lhs, rel=1e-10)
            assert rep_s.rhs == pytest.approx(abs(t) ** power * rep_b.rhs, rel=1e-10)
    b1 = eval_order1(z, w)
    s1 = eval_order1(zt, wt)
    for rep_b, rep_s in zip(b1, s1):
        assert rep_s.lhs == pytest.approx(abs(t) * rep_b.lhs, rel=1e-10)
        assert rep_s.rhs == pytest.approx(abs(t) * rep_b.rhs, rel=1e-10)

    rot = np.exp(0.77j)
    wr = critical_points(rot * z)
    for evaluator in (eval_order2, eval_order4, eval_order6, eval_order1):
        base = evaluator(z, w)
        rotated = evaluator(rot * z, wr)
        for rep_b, rep_r in zip(base, rotated):
            assert rep_r.lhs == pytest.approx(rep_b.lhs, rel=1e-10, abs=1e-12)
            assert rep_r.rhs == pytest.approx(rep_b.rhs, rel=1e-10, abs=1e-12)


def test_collinear_equality_flags():
    rng = np.random.default_rng(131)
    z = collinear_batch(rng, 30, 6)
    for i in range(z.shape[0]):
        w = critical_points(z[i])
        s0, _ = eval_order2(z[i], w)
        _, kt = eval_order4(z[i], w)
        star, _ = eval_order6(z[i], w)
        assert s0.equality and kt.equality and star.equality


# --- full_report / evaluate_ensemble ----------------------------------------

def test_full_report_ids_and_flags():
    reports = full_report(np.array([1.0, 2.0, 3.0]))
    ids = [r.inequality_id for r in reports]
    assert ids[:8] == ["S0", "S", "BS", "KT", "STAR", "STARSTAR", "BSEN", "ST1"]
    assert "EK(1)" in ids and "LOGMAJ(2)" in ids and "LXZ(2.5)" in ids and "IMPRO(6)" in ids
    # The centered-only forms are judged on the recentered zeros, so every report applies.
    assert all(r.applicable for r in reports)
    assert all(r.holds for r in reports)


def test_evaluate_ensemble_matches_single_reports():
    # Batch == single is the contract: a configuration evaluated inside a
    # batch gives bit-identical sides and flags to it evaluated alone.
    rng = np.random.default_rng(137)
    raw = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    for z in (centered_batch(rng, 8, 5), raw):
        table = evaluate_ensemble(z)
        for i in (0, 3, 7):
            reports = full_report(z[i])
            assert [rep.inequality_id for rep in reports] == list(table)
            for rep in reports:
                lhs, rhs, required = table[rep.inequality_id]
                assert (lhs[i], rhs[i]) == (rep.lhs, rep.rhs)
                assert make_report(rep.inequality_id, lhs[i], rhs[i], centered_required=required) == rep
                assert rep.applicable
        # The one row builder gives every row's reports exactly as the single evaluation does.
        assert list(row_reports(table)) == [full_report(zi) for zi in z]


def test_single_evaluators_match_the_suite():
    rng = np.random.default_rng(139)
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)

    def singles(z):
        w = critical_points(z)
        return {rep.inequality_id: rep for rep in (
            *eval_order2(z, w), *eval_order4(z, w), *eval_order6(z, w), *eval_order1(z, w),
            *(eval_symmetric(z, w, k) for k in range(1, 6)),
            *(eval_logmaj(z, w, k)._replace(aux=None) for k in range(1, 6)),
            *(rep for r in (2.0, 2.5, 3.0, 4.0, 6.0) for rep in eval_general(z, w, r)),
        )}

    # The suite judges the general forms on z and the centered-only forms on recenter(z).
    general, centered = singles(z), singles(recenter(z))
    suite = full_report(z)
    assert sorted(general) == sorted(rep.inequality_id for rep in suite)
    for want in suite:
        iid = want.inequality_id
        assert (centered if iid in CENTERED_IDS else general)[iid] == want


def test_lookup_resolves_every_id_and_rejects_others():
    n = 5
    for rep in full_report(np.array([1.0, 2.0, -1j, 0.5 + 0.5j, -2.0])):
        entry = lookup(rep.inequality_id, n)
        assert entry.iid == rep.inequality_id
        assert entry.centered == (rep.inequality_id in CENTERED_IDS)
    assert CENTERED_IDS == {"S0", "BS", "KT", "STAR", "STARSTAR", "ST1"}
    # A spelling resolves to one canonical id, which names the same form.
    for iid, canonical in (("LXZ(2.50)", "LXZ(2.5)"), ("EK(+2)", "EK(2)"), ("LXZ(2.1234567)", "LXZ(2.1234567)"),
                           ("IMPRO(1e6)", "IMPRO(1e+06)"), ("LXZ(1000000.5)", "LXZ(1000000.5)")):
        entry = lookup(iid, n)
        assert entry.iid == canonical and lookup(canonical, n).value == entry.value
    for bad in ("WAT", "KT(2)", "EK", "EK(0)", "EK(5)", "EK(x)", "LXZ(1.5)", "LXZ(inf)", "LXZ(1e400)", "IMPRO(nan)",
                "IMPRO(2", "S0()"):
        with pytest.raises(InvalidInputError):
            lookup(bad, n)


# --- invariance of every table entry ----------------------------------------

@st.composite
def separated_configs(draw):
    """Zeros with max |z| = 1 and pairwise distance >= 0.05 (no root clusters)."""
    n = draw(st.integers(3, 8))
    coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    z = np.array([complex(draw(coord), draw(coord)) for _ in range(n)])
    gaps = np.abs(z[:, None] - z[None, :]) + 10 * np.eye(n)
    assume(np.abs(z).max() > 0.1 and gaps.min() >= 0.05)
    return z / np.abs(z).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    z=separated_configs(),
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(0.0, 2 * np.pi),
    scale=st.floats(0.05, 20.0),
)
def test_every_entry_invariant_under_permutation_rotation_scaling(z, seed, angle, scale):
    perm = np.random.default_rng(seed).permutation(z.shape[0])
    # Centered entries are judged on the recentered variants, the others on the variants as given.
    variants = np.stack([z, z[perm], np.exp(1j * angle) * z, scale * z])
    for iid, (lhs, rhs, _required) in evaluate_ensemble(variants).items():
        if rhs[0] <= 1e-6:
            continue
        ratio = lhs / rhs
        assert np.abs(ratio - ratio[0]).max() <= 1e-7, (iid, ratio)
