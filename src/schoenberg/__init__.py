"""Schoenberg-type inequalities between polynomial zeros and critical points.

A numpy toolkit that evaluates, cross-checks and stress-tests the known
inequalities bounding power sums (and symmetric functions) of the
critical-point moduli of a complex polynomial by expressions in its
zeros, the matrix trace identities behind the order-4/6 bounds, and the
power-mean quantities tied to Sendov's conjecture, including a
randomized search for extremal configurations.
"""

from .config import DEFAULT_SEED, TOL_CENTER, TOL_DISK, TOL_EQ, TOL_ROOT
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericConsistencyError,
    RejectedStartError,
    UnsupportedSizeError,
)
from .inequalities import (
    DEFAULT_ORDERS,
    InequalityReport,
    eval_general,
    eval_logmaj,
    eval_order1,
    eval_order2,
    eval_order4,
    eval_order6,
    eval_symmetric,
    evaluate_ensemble,
    full_report,
    make_report,
    order6_bounds,
    star_trace_oracle,
    starstar_trace_oracle,
)
from .matrices import (
    SpectrumComparison,
    build_D,
    build_S,
    char_poly,
    eigenvalues,
    is_normal,
    sds_matrix,
    trace_word,
    verify_spectrum,
)
from .poly import (
    centroid_residual,
    derivative,
    elementary_symmetric,
    elementary_symmetric_all,
    from_roots,
    is_collinear,
    polyval,
    recenter,
)
from .rootfind import (
    RootSolverSettings,
    critical_points,
    critical_points_batch,
    find_roots,
    find_roots_batch,
    match_multisets,
    moduli_critical_points,
    moduli_critical_points_batch,
)
from .search import (
    ENSEMBLE_KINDS,
    Ensemble,
    SearchRecord,
    SearchSettings,
    maximize,
    maximize_batch,
    sample,
    sample_one,
    verify_candidate,
)
from .sendov import (
    PowerMeanReport,
    SendovInstance,
    check_special_case,
    normalized_instance,
    power_mean,
    probe_m_minus2,
)

__version__ = "0.1.0"
