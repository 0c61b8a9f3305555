"""Fixtures shared by the solver and search tests."""

import numpy as np
import pytest

from schoenberg import rootfind


@pytest.fixture
def nan_eigvals(monkeypatch):
    """Make the kernel's LAPACK call ``rootfind._eigvals`` return NaN for row ``row`` of every stack that has one.

    NaN eigenvalues are what LAPACK leaves in a matrix it cannot converge.
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
