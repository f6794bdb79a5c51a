import numpy as np
import pytest


@pytest.fixture
def inflated_svd(monkeypatch):
    """``np.linalg.svd``, the one ``meshtomo.estimate`` calls, returning singular
    values scaled by 1 + 1e-6, so the oblique map's C A B misses I_K by 1e-6."""
    svd = np.linalg.svd

    def inflated(*args, **kwargs):
        u, s, vt = svd(*args, **kwargs)
        return u, s * (1.0 + 1e-6), vt

    monkeypatch.setattr(np.linalg, "svd", inflated)
