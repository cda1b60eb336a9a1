"""The benchmark's workloads: named lists of sinesolve CLI jobs.

A job is one subcommand run on one strict-JSON config.  Every job receives
the workload seed through the CLI's `--seed` flag; nothing else about the
inputs depends on it.  README.md in this directory says why each workload
was chosen.
"""

from __future__ import annotations

import math

import numpy as np

PI2 = math.pi**2

# Deterministic starts only, fewer than the solver defaults (6 mode pairs, 8
# random): the search paths and per-call sizes stay the same, but a pass takes
# seconds.  Random starts changed a pass's work up to threefold between seeds,
# and in 3-D which critical point is reported.  Multiplicity budgets stay
# within the 2 * n_mode_seeds + 4 deterministic starts for the same reason.
SOLVER = {"n_mode_seeds": 2, "n_random_seeds": 0}


def _box(dim: int, cutoff: int, **overrides) -> dict:
    """Unit box, mu1 = mu2 = 1, alpha = beta = 2, kappa1 = kappa2 = 0."""
    problem = {
        "kappa1": 0.0, "kappa2": 0.0, "mu1": 1.0, "mu2": 1.0,
        "lambda": 50.0, "alpha": 2.0, "beta": 2.0,
        "lengths": [1.0] * dim, "cutoffs": [cutoff] * dim,
    }
    problem.update({("lambda" if k == "lam" else k): v for k, v in overrides.items()})
    return problem


def _job(name: str, subcommand: str, problem: dict, task: dict | None = None, **solver) -> dict:
    config = {"problem": problem, "solver": {**SOLVER, **solver}, "task": task or {}}
    return {"name": name, "subcommand": subcommand, "config": config}


def _box1d_definite() -> list[dict]:
    K = 16
    return [
        _job("ground-state", "ground-state", _box(1, K, lam=50.0)),
        _job("multiplicity", "multiplicity", _box(1, K, lam=200.0), {"k": 2}, budget=8),
        _job("thresholds", "thresholds", _box(1, K, lam=1.0), {"m": 3}),
        _job("synchronized", "synchronized", _box(1, K, mu2=2.0, lam=2.0)),
    ]


def _box1d_indefinite() -> list[dict]:
    K = 24
    return [
        _job("ground-state", "ground-state", _box(1, K, kappa1=15.0, kappa2=15.0, lam=50.0)),
        # stops once k orbits are found
        _job("multiplicity-k5", "multiplicity",
             _box(1, K, kappa1=15.0, kappa2=15.0, lam=200.0), {"k": 5},
             n_mode_seeds=6, budget=16),
        # spends the whole budget and finds 1 orbit
        _job("multiplicity-split-kappa", "multiplicity",
             _box(1, K, kappa1=15.0, kappa2=25.0, lam=50.0), {"k": 4}, budget=8),
    ]


def _box_nd() -> list[dict]:
    return [
        _job("ground-state-2d", "ground-state", _box(2, 8, kappa1=25.0, kappa2=25.0)),
        _job("ground-state-3d", "ground-state", _box(3, 4, kappa1=35.0, kappa2=35.0)),
    ]


# alpha = beta = 2*/2 makes the coupling critical in each dimension
_CRITICAL_AB = {3: 3.0, 4: 2.0, 5: 5.0 / 3.0}


def _constants() -> list[dict]:
    jobs = []
    for dim, ab in _CRITICAL_AB.items():
        for mu2 in (0.5, 1.0, 2.0, 4.0):
            # 0.003 lies below every interior threshold here; no lambda sits
            # within 20% of one, where the boundary flag would be a knife edge
            for lam in (0.003, 0.05, 0.3, 0.7, 3.0, 10.0, 30.0, 100.0):
                problem = {"mu1": 1.0, "mu2": mu2, "lambda": lam,
                           "alpha": ab, "beta": ab, "dim": dim}
                jobs.append(_job(f"limit-n{dim}-mu{mu2:g}-lam{lam:g}", "limit", problem))
    eps_grid = [float(e) for e in np.geomspace(1e-1, 1e-3, 7)]
    five = {
        "kappa1": 2.5 * PI2, "kappa2": 2.5 * PI2, "mu1": 1.0, "mu2": 1.0,
        "lambda": 0.0156918, "alpha": 5.0 / 3.0, "beta": 5.0 / 3.0,
        "lengths": [1.0] * 5, "cutoffs": [2] * 5,
    }
    four = {
        "kappa1": 2.0 * PI2, "kappa2": 2.0 * PI2, "mu1": 1.0, "mu2": 1.0,
        "lambda": 1.0, "alpha": 2.0, "beta": 2.0,
        "lengths": [1.0] * 4, "cutoffs": [2] * 4,
    }
    three = {
        "mu1": 1.0, "mu2": 1.0, "lambda": 1.0, "alpha": 3.0, "beta": 3.0,
        "lengths": [1.0] * 3, "cutoffs": [2] * 3,
    }
    jobs += [
        _job("verify-estimates-n5", "verify-estimates", five,
             {"eps_grid": eps_grid, "linking_eps": [1e-2]}),
        _job("verify-estimates-n4", "verify-estimates", four),
        _job("verify-estimates-n3", "verify-estimates", three),
    ]
    return jobs


WORKLOADS = {
    "box1d-definite": _box1d_definite,
    "box1d-indefinite": _box1d_indefinite,
    "box-nd": _box_nd,
    "constants": _constants,
}


def jobs_for(workload: str) -> list[dict]:
    """The workload's jobs in run order; raises KeyError for an unknown name."""
    return WORKLOADS[workload]()
