"""Shared test helpers."""

import warnings

import numpy as np
import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports this module
# to explain the failing example.  It loads libcst, which defines a
# mypy_extensions.TypedDict; under `filterwarnings = error` that import's
# DeprecationWarning raised inside the plugin's hook, pytest stopped with
# INTERNALERROR and no later test ran.  Importing it here once, with only that
# warning ignored, keeps the error filter for all code the tests run.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the explanation itself
        pass


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
