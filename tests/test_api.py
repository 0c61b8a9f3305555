"""The public contract: the names the ``schoenberg`` package exports."""

import inspect

import schoenberg

PUBLIC_NAMES = [
    "ConvergenceError", "DEFAULT_ORDERS", "DEFAULT_SEED", "ENSEMBLE_KINDS", "Ensemble", "InequalityReport",
    "InvalidInputError", "NumericConsistencyError", "PowerMeanReport", "RejectedStartError", "RootSolverSettings",
    "SearchRecord", "SearchSettings", "SendovInstance", "SpectrumComparison", "TOL_CENTER", "TOL_DISK", "TOL_EQ",
    "TOL_ROOT", "UnsupportedSizeError", "build_D", "build_S", "centroid_residual", "char_poly",
    "check_special_case", "critical_points", "critical_points_batch", "derivative", "eigenvalues",
    "elementary_symmetric", "elementary_symmetric_all", "eval_general", "eval_logmaj", "eval_order1",
    "eval_order2", "eval_order4", "eval_order6", "eval_symmetric", "evaluate_ensemble", "find_roots",
    "find_roots_batch", "from_roots", "full_report", "is_collinear", "is_normal", "make_report",
    "match_multisets", "maximize", "maximize_batch", "moduli_critical_points", "moduli_critical_points_batch",
    "normalized_instance", "order6_bounds", "polyval", "power_mean", "probe_m_minus2", "recenter", "sample",
    "sample_one", "sds_matrix", "star_trace_oracle", "starstar_trace_oracle", "trace_word", "verify_candidate",
    "verify_spectrum",
]


def test_package_exports_exactly_the_public_names():
    # Submodules become package attributes when imported, so they are not names it exports.
    exported = sorted(
        name for name, value in vars(schoenberg).items() if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == PUBLIC_NAMES
