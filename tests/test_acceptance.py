"""Acceptance suite: every criterion at its stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All sampling is seeded, so outcomes are deterministic.
"""

import json
import time

import numpy as np
import pytest

from schoenberg.inequalities import (
    eval_order1,
    eval_order4,
    eval_order6,
    evaluate_ensemble,
    order6_bounds,
    star_trace_oracle,
    starstar_trace_oracle,
)
from schoenberg.matrices import build_D, build_S, char_poly, is_normal, sds_matrix
from schoenberg.poly import elementary_symmetric_all, recenter
from schoenberg.rootfind import (
    critical_points,
    critical_points_batch,
    find_roots_batch,
    match_multisets,
)
from schoenberg.search import Ensemble, SearchSettings, maximize_batch, sample, verify_candidate
from schoenberg.sendov import SendovInstance, check_special_case, special_case_batch
from schoenberg import cli

SEED = 20260810
DEGREES_SMALL = range(2, 11)   # n = 2..10
DEGREES_WIDE = range(2, 13)    # n = 2..12


def _normalize(z):
    scale = np.abs(z).max(axis=-1, keepdims=True)
    scale[scale == 0] = 1.0
    return z / scale


def centered_unit_batch(rng, count, n):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return _normalize(recenter(z))


def mixed_unit_batch(rng, count, n):
    """Criterion-3 population: disk, gaussian, perturbed roots of unity."""
    per = count // 3
    disk = np.sqrt(rng.uniform(0, 1, (per, n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, (per, n)))
    gauss = rng.standard_normal((per, n)) + 1j * rng.standard_normal((per, n))
    rest = count - 2 * per
    unity = np.exp(2j * np.pi * np.arange(n) / n) + 0.25 * (
        rng.standard_normal((rest, n)) + 1j * rng.standard_normal((rest, n))
    )
    return _normalize(np.concatenate([disk, gauss, unity], axis=0))


def collinear_unit_batch(rng, count, n):
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    theta = rng.uniform(0, 2 * np.pi, count)
    t = rng.standard_normal((count, n))
    return _normalize(recenter(c[:, None] + t * np.exp(1j * theta)[:, None]))


def line_aspect(z):
    """sqrt(min/max eigenvalue) of the planar second-moment matrix.

    0 exactly on the collinear manifold; order 1 for well-spread points.
    """
    zc = z - z.mean(axis=-1, keepdims=True)
    sxx = (zc.real**2).sum(axis=-1)
    syy = (zc.imag**2).sum(axis=-1)
    sxy = (zc.real * zc.imag).sum(axis=-1)
    root = np.sqrt((sxx - syy) ** 2 + 4 * sxy**2)
    lo = 0.5 * (sxx + syy - root)
    hi = 0.5 * (sxx + syy + root)
    return np.sqrt(np.maximum(lo, 0.0) / np.maximum(hi, 1e-300))


def generic_noncollinear_batch(rng, count, n, min_aspect=0.1):
    """Generic samples bounded away from the collinear manifold.

    'Non-collinear' is a sampling constraint: thin, nearly-degenerate
    configurations are legitimate random draws but not generic witnesses
    of strict inequality, so they are rejected by aspect ratio.
    """
    out = np.empty((0, n), dtype=complex)
    while out.shape[0] < count:
        z = centered_unit_batch(rng, 2 * count, n)
        out = np.concatenate([out, z[line_aspect(z) >= min_aspect]], axis=0)
    return out[:count]


@pytest.fixture(scope="module")
def criterion3_samples():
    rng = np.random.default_rng(SEED)
    per_degree = 910  # 11 degrees -> 10010 configurations total
    return {n: mixed_unit_batch(rng, per_degree, n) for n in DEGREES_WIDE}


def test_criterion_1_trace_identity_oracle():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    worst = 0.0
    for n in DEGREES_SMALL:
        z = centered_unit_batch(rng, 1000, n)
        star_rhs, starstar_rhs = order6_bounds(z)
        s = build_S(n)
        for i in range(z.shape[0]):
            d = build_D(z[i])
            dh = d.conj().T
            w1 = s @ dh @ s @ d
            t_star = np.trace(w1 @ w1 @ w1).real
            a3 = np.linalg.matrix_power(s @ d @ s, 3)
            t_starstar = np.trace(a3.conj().T @ a3).real
            worst = max(worst, abs(t_star - star_rhs[i]), abs(t_starstar - starstar_rhs[i]))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"trace oracle deviation {worst:.3e}"
    assert elapsed < 10.0, f"trace oracle took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 9000 configs, max |closed-trace| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_1_word_oracle_spot_checks():
    # the library's explicit word-product oracles agree with the closed forms
    rng = np.random.default_rng(SEED + 11)
    worst = 0.0
    for n in (2, 5, 8, 10):
        z = centered_unit_batch(rng, 50, n)
        star_rhs, starstar_rhs = order6_bounds(z)
        for i in range(z.shape[0]):
            worst = max(
                worst,
                abs(star_trace_oracle(z[i]) - star_rhs[i]),
                abs(starstar_trace_oracle(z[i]) - starstar_rhs[i]),
            )
    assert worst <= 1e-10
    print(f"criterion 1b PASS: trace_word oracles, max deviation {worst:.2e}")


def test_criterion_2_companion_spectrum_equivalence():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for n in DEGREES_SMALL:
        z = centered_unit_batch(rng, 500, n)  # centering irrelevant; spectra match regardless
        s = build_S(n)
        coeffs = np.array([char_poly(build_D(zi) @ s) for zi in z])
        eigs = find_roots_batch(coeffs)
        crit = critical_points_batch(z)
        expected = np.concatenate([np.zeros((500, 1), dtype=complex), crit], axis=1)
        for i in range(500):
            worst = max(worst, match_multisets(eigs[i], expected[i]))
    assert worst <= 1e-7, f"spectrum pairing distance {worst:.3e}"
    print(f"criterion 2 PASS: 4500 configs, max pairing distance = {worst:.2e}")


def test_criterion_3_inequality_suite(criterion3_samples):
    total = 0
    violations = 0
    worst_margin = np.inf
    for n, z in criterion3_samples.items():
        table = evaluate_ensemble(z)
        total += z.shape[0]
        for iid, (lhs, rhs, _creq) in table.items():
            margin = (rhs - lhs) + 1e-8 * np.maximum(1.0, np.abs(rhs))
            worst_margin = min(worst_margin, float(margin.min()))
            violations += int((margin < 0).sum())
    assert violations == 0, f"{violations} violations; worst margin {worst_margin:.3e}"
    print(f"criterion 3 PASS: {total} configs (n=2..12), full suite, 0 violations")


def test_criterion_4_equality_characterization():
    rng = np.random.default_rng(SEED + 4)
    for n in range(3, 11):
        z = collinear_unit_batch(rng, 500, n)
        w = critical_points_batch(z)
        star_rhs, starstar_rhs = order6_bounds(z)
        lhs2 = (np.abs(w) ** 2).sum(axis=1)
        lhs4 = (np.abs(w) ** 4).sum(axis=1)
        lhs6 = (np.abs(w) ** 6).sum(axis=1)
        a2 = (np.abs(z) ** 2).sum(axis=1)
        a4 = (np.abs(z) ** 4).sum(axis=1)
        t2 = (z * z).sum(axis=1)
        s0_rhs = (n - 2) / n * a2
        kt_rhs = (n - 4) / n * a4 + (a2**2 + np.abs(t2) ** 2) / n**2
        for name, lhs, rhs in (
            ("S0", lhs2, s0_rhs), ("KT", lhs4, kt_rhs),
            ("STAR", lhs6, star_rhs), ("STARSTAR", lhs6, starstar_rhs),
        ):
            gap = np.abs(rhs - lhs)
            assert gap.max() <= 1e-8, f"{name} equality gap {gap.max():.2e} at n={n}"
        for i in range(0, 500, 25):
            assert is_normal(sds_matrix(z[i]), tol=1e-10)

        g = generic_noncollinear_batch(rng, 500, n)
        wg = critical_points_batch(g)
        star_g, _ = order6_bounds(g)
        slack = star_g - (np.abs(wg) ** 6).sum(axis=1)
        assert slack.min() >= 1e-6, f"generic STAR slack {slack.min():.2e} at n={n}"
        for i in range(0, 500, 25):
            assert not is_normal(sds_matrix(g[i]), tol=1e-10)
    print("criterion 4 PASS: 500 collinear + 500 generic per n=3..10")


def test_criterion_5_exact_fixtures():
    z3 = np.array([1.0, 0.0, -1.0], dtype=complex)
    star, starstar = eval_order6(z3, critical_points(z3))
    assert star.lhs == pytest.approx(2 / 27, rel=1e-12)
    assert star.rhs == pytest.approx(2 / 27, rel=1e-12)
    assert starstar.rhs == pytest.approx(2 / 27, rel=1e-12)

    z4 = np.array([1, 1j, -1, -1j], dtype=complex)
    w4 = critical_points(z4)
    _, kt = eval_order4(z4, w4)
    star4, _ = eval_order6(z4, w4)
    assert kt.rhs == pytest.approx(1.0, rel=1e-12)
    assert star4.rhs == pytest.approx(2.0, rel=1e-12)
    assert star4.lhs == pytest.approx(0.0, abs=1e-12)

    for n in range(3, 9):
        z = np.concatenate([np.zeros(n - 2), [1.0, -1.0]]).astype(complex)
        _, st1 = eval_order1(z, critical_points(z))
        assert abs(st1.slack) <= 1e-10, f"ST1 sharpness gap {st1.slack:.2e} at n={n}"

    zsq = np.array([1.0, 1.0, -1.0, -1.0], dtype=complex)
    _, st1sq = eval_order1(zsq, critical_points(zsq))
    assert st1sq.slack == pytest.approx(2 * np.sqrt(2) - 2, rel=1e-12)
    print("criterion 5 PASS: exact fixtures")


def test_criterion_6_coefficient_identities(criterion3_samples):
    worst_rel = 0.0
    worst_mean = 0.0
    for n, z in criterion3_samples.items():
        w = critical_points_batch(z)
        ew = elementary_symmetric_all(w)
        ez = elementary_symmetric_all(z)
        for k in range(1, n):
            want = (n - k) / n * ez[:, k]
            rel = np.abs(ew[:, k] - want) / np.maximum(np.abs(want), 1e-30)
            worst_rel = max(worst_rel, float(rel.max()))
        worst_mean = max(worst_mean, float(np.abs(w.mean(axis=1) - z.mean(axis=1)).max()))
    assert worst_rel <= 1e-8, f"esf identity relative error {worst_rel:.3e}"
    assert worst_mean <= 1e-10, f"centroid identity error {worst_mean:.3e}"
    print(f"criterion 6 PASS: e_k identity rel {worst_rel:.2e}, centroid {worst_mean:.2e}")


def test_criterion_7_ordering_claims(criterion3_samples):
    for n, z in criterion3_samples.items():
        zc = recenter(z)
        a2 = (np.abs(zc) ** 2).sum(axis=1)
        a4 = (np.abs(zc) ** 4).sum(axis=1)
        t2 = (zc * zc).sum(axis=1)
        bs_rhs = (n - 4) / n * a4 + 2 / n**2 * a2**2
        kt_rhs = (n - 4) / n * a4 + (a2**2 + np.abs(t2) ** 2) / n**2
        assert (kt_rhs <= bs_rhs + 1e-12 * np.maximum(1, np.abs(bs_rhs))).all()
        star_rhs, starstar_rhs = order6_bounds(zc)
        assert (starstar_rhs <= star_rhs + 1e-12 * np.maximum(1, np.abs(star_rhs))).all()

        t1 = z.sum(axis=1)
        a2r = (np.abs(z) ** 2).sum(axis=1)
        s_rhs = (n - 2) / n * a2r + np.abs(t1) ** 2 / n**2
        for r in (2.0, 2.5, 3.0, 4.0, 6.0):
            lxz = (n - 1) ** (r - 2) / n**r * np.abs(t1) ** r + (
                (n - 1) ** (r - 2) * (n - 2) / n ** (r / 2)
            ) * a2r ** (r / 2)
            impro = s_rhs ** (r / 2)
            if n == 2:
                rel = np.abs(impro - lxz) / np.maximum(1e-300, np.abs(lxz))
                assert rel.max() <= 1e-12
            else:
                assert (impro <= lxz * (1 + 1e-12)).all()
    print("criterion 7 PASS: KT<=BS, STARSTAR<=STAR, IMPRO<=LXZ (= at n=2)")


def _hypothesis_instances(rng, count, n):
    z = np.sqrt(rng.uniform(0, 1, (count, n - 1))) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (count, n - 1))
    )
    s = z.real.sum(axis=1)
    flip = s < 0
    z[flip] = -np.conj(z[flip])
    s = np.abs(s)
    cap = np.ones(count) if n == 2 else np.minimum(1.0, 2 * s / (n - 2))
    a = rng.uniform(0, 1, count) * cap
    return a, z


def test_criterion_8_sendov_special_case():
    rng = np.random.default_rng(SEED + 8)
    per_degree = 1112  # 9 degrees -> 10008 instances
    for n in DEGREES_SMALL:
        a, others = _hypothesis_instances(rng, per_degree, n)
        assert (others.real.sum(axis=1) >= (n - 2) / 2 * a - 1e-12).all()
        full = np.concatenate([a[:, None].astype(complex), others], axis=1)
        w = critical_points_batch(full)
        dist = np.abs(w - a[:, None])
        hit = dist.min(axis=1) <= 1e-11
        c2 = (dist**2).sum(axis=1)
        assert (c2[~hit] < n - 1).all(), f"C2 violation at n={n}"
        c1 = (dist[~hit] ** -2.0).sum(axis=1)
        assert (c1 > n - 1).all(), f"C1 violation at n={n}"
        assert (dist.min(axis=1) < 1.0).all(), f"disk conclusion violated at n={n}"

    for n in range(3, 7):
        inst = SendovInstance(a=1.0, other_zeros=-np.ones(n - 1, dtype=complex))
        rep = check_special_case(inst)
        assert not rep.condition_holds
        assert rep.values[2] > 1.0, f"M2 failure fixture at n={n}"
    print("criterion 8 PASS: 10008 hypothesis instances, C1/C2/disk hold; M2 fixture fails as expected")


def test_criterion_9_m_minus2_probe():
    rng = np.random.default_rng(SEED + 9)
    per_degree = 11112  # 9 degrees -> 100008 instances
    worst = 0.0
    for n in DEGREES_SMALL:
        half = per_degree // 2
        a1 = rng.uniform(0, 1, half)
        boundary = np.exp(1j * rng.uniform(0, 2 * np.pi, (half, n - 1)))
        a2 = rng.uniform(0, 1, per_degree - half)
        disk = np.sqrt(rng.uniform(0, 1, (per_degree - half, n - 1))) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (per_degree - half, n - 1))
        )
        vals1 = special_case_batch(np.column_stack([a1, boundary])).m_minus2
        vals2 = special_case_batch(np.column_stack([a2, disk])).m_minus2
        worst = max(worst, float(vals1.max()), float(vals2.max()))
    assert worst <= 1.0 + 1e-6, f"M_-2 candidate {worst!r} survived re-verification"

    best_ascent = 0.0
    settings = SearchSettings(max_iterations=50)
    ascents = 0
    for n in (3, 4, 5, 6):
        ens = Ensemble(kind="sendov-boundary", n=n, count=250, seed=SEED + 90 + n)
        for rec in maximize_batch("M_MINUS2", sample(ens), settings):
            value = rec.objective_value
            if value > 1.0 + 1e-6:
                value = verify_candidate(rec, settings)
                assert value <= 1.0 + 1e-6, f"verified M_-2 counterexample: {rec.zeros!r}"
            best_ascent = max(best_ascent, value)
            ascents += 1
    assert ascents == 1000
    print(
        f"criterion 9 PASS: 100008 instances (max {worst:.6f}) + 1000 ascents "
        f"(best {best_ascent:.6f}), no M_-2 above 1+1e-6"
    )


def test_criterion_10_reproducibility(tmp_path):
    argv = ["sweep", "--ensemble", "uniform-disk", "--n", "6", "--count", "200", "--seed", "424242"]
    assert cli.main(argv + ["--out", str(tmp_path / "one")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "two")]) == 0
    b1 = (tmp_path / "one.jsonl").read_bytes()
    assert b1 == (tmp_path / "two.jsonl").read_bytes()

    sargv = ["search", "--objective", "M_MINUS2", "--n", "4", "--starts", "5",
             "--max-iterations", "30", "--seed", "31415"]
    assert cli.main(sargv + ["--out", str(tmp_path / "s1")]) == 0
    assert cli.main(sargv + ["--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1.jsonl").read_bytes() == (tmp_path / "s2.jsonl").read_bytes()

    # archives parse and carry the documented fields
    rec = json.loads((tmp_path / "one.jsonl").read_text().splitlines()[0])
    assert set(rec) >= {"kind", "seed", "n", "zeros", "reports"}
    print("criterion 10 PASS: byte-identical JSONL across runs")
