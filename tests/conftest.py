"""Fixtures shared by the solver and search tests."""

import numpy as np
import pytest

from schoenberg import rootfind


@pytest.fixture
def nan_eigvals(monkeypatch):
    """Make ``rootfind._eigvals`` return NaN for row ``row`` of every stack that has one.

    It is the one LAPACK call of both solvers: the critical-point kernel's compressions and
    ``find_roots_batch``'s companion matrices.  NaN eigenvalues are what LAPACK leaves in a matrix it
    cannot converge.
    """

    def poison(row):
        eigvals = rootfind._eigvals

        def patched(a):
            out = eigvals(a)
            if out.ndim == 2 and out.shape[0] > row:
                out[row] = np.nan
            return out

        monkeypatch.setattr(rootfind, "_eigvals", patched)

    return poison
