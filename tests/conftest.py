"""Fixtures shared by the solver and search tests."""

import numpy as np
import pytest


@pytest.fixture
def nan_eigvals(monkeypatch):
    """Make ``np.linalg.eigvals`` return NaN for row ``row`` of every stack that has one."""

    def poison(row):
        eigvals = np.linalg.eigvals

        def patched(a):
            out = eigvals(a)
            if out.ndim == 2 and out.shape[0] > row:
                out[row] = np.nan
            return out

        monkeypatch.setattr(np.linalg, "eigvals", patched)

    return poison
