"""Shared test helpers."""

import numpy as np
import pytest


def _full_pair_grid(lp, s_const, n=601, lo=1e-3, hi=1e3):
    # the whole n x n (s, t) grid, broadcast at once
    ts = lp.two_star
    s = np.geomspace(lo, hi, n)[:, None]
    t = np.geomspace(lo, hi, n)[None, :]
    denom = lp.mu1 * s**ts + lp.mu2 * t**ts + ts * lp.lam * s**lp.alpha * t**lp.beta
    q = (s**2 + t**2) / denom ** (2.0 / ts)
    return float(q.min() * s_const)


@pytest.fixture(scope="session")
def full_pair_grid():
    """Brute-force oracle for `limit.pair_grid_infimum`."""
    return _full_pair_grid
