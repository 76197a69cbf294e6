import math

import numpy as np
import pytest

from kinlab.kernels import CustomDensity, TestFunction


def gaussian_ring_bumps(centers=(1.0, 1.6, 2.5), sigma=0.18, lo=0.25, hi=4.0):
    """Radial Gaussian bumps supported (numerically) inside [lo, hi]."""
    bumps = []
    for c in centers:
        def fn(w, c=c):
            r = np.linalg.norm(np.atleast_2d(w), axis=-1)
            return np.exp(-0.5 * ((r - c) / sigma) ** 2)
        bumps.append(TestFunction(fn, lo, hi))
    return bumps


def oscillatory_kernel(j, s=0.5, d=1, depth=0.5):
    """Stable density modulated by 1 + depth*sin(j|w|); even by construction."""
    two_s = 2.0 * s

    def fn(w):
        r = np.maximum(np.linalg.norm(np.atleast_2d(w), axis=-1), 1e-300)
        return (1.0 + depth * np.sin(j * r)) * r ** (-d - two_s)

    return CustomDensity(s, d, fn)


@pytest.fixture(autouse=True)
def _no_highs_fallback(request, monkeypatch):
    """Fail a test whose minimax fits reach HiGHS, unless it is marked highs_fallback."""
    if request.node.get_closest_marker("highs_fallback") is None:
        from kinlab import holder

        def refuse(*args, **kwargs):
            raise AssertionError("a minimax fit fell back to HiGHS (holder.linprog)")

        monkeypatch.setattr(holder, "linprog", refuse)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
