"""Library-wide numerical tolerances and the default RNG seed.

All tolerances are relative to the scale factors documented at their point
of use.  Two are set per call, and these constants are only their defaults:
``tol_root`` through ``RootSolverSettings``, and the reports' ``tol_eq``.
``TOL_CENTER`` and ``TOL_DISK`` are constants.
"""

# Acceptance tolerance of the solvers: the backward error of a critical point
# in the normalized zeros, or a polynomial root's residual relative to
# max(1, root bound)^degree times the leading coefficient.
TOL_ROOT = 1e-9

# Centroid residual |sum z| / max(1, max |z|) below which a configuration
# counts as centered.
TOL_CENTER = 1e-10

# Relative tolerance for the holds/equality flags of inequality reports.
TOL_EQ = 1e-8

# Slack allowed on |z| <= 1 membership for Sendov instances.
TOL_DISK = 1e-12

# Fixed default seed: reproducibility by default, never wall-clock entropy.
DEFAULT_SEED = 1729

