"""Synchronized solutions (s w, t w) built from one scalar profile.

When both linear shifts coincide, substituting u = (s w, t w) with w a
solution of the unit-coefficient scalar equation

    -Lap w - kappa w = |w|^{p-2} w

reduces the coupled system to two algebraic amplitude equations.  Their
solvability is equivalent to a positive root of the scalar function

    h(r) = mu_1 r^{p-2} + lam alpha r^{alpha-2} - lam beta r^alpha - mu_2,

in which case t = (mu_2 + lam beta r^alpha)^(-1/(p-2)) and s = r t.
"""

from __future__ import annotations

import numpy as np

from .energy import GalerkinSystem, SystemParams
from .errors import PreconditionError
from .nehari import CriticalPoint, evaluate_point, nehari_power
from .solve import bisect

#: Largest |h(r)|, relative to mu2 + lam beta r^alpha, that `amplitudes` accepts as a root.
_H_TOL = 1e-10
#: find_roots bisects each sign change of h to this relative width.
_ROOT_RTOL = 1e-15
#: find_roots scans h over this r-window.
R_WINDOW = (1e-8, 1e8)


def ratio_function(r, params: SystemParams):
    """h(r) = mu1 r^{p-2} + lam alpha r^{alpha-2} - lam beta r^alpha - mu2.

    r is one positive number, giving a float, or an array of them, giving
    an array.
    """
    if np.any(np.asarray(r) <= 0):
        raise PreconditionError("r must be positive")
    pr = params
    h = (
        pr.mu1 * r ** (pr.p - 2.0)
        + pr.lam * pr.alpha * r ** (pr.alpha - 2.0)
        - pr.lam * pr.beta * r**pr.alpha
        - pr.mu2
    )
    return h if isinstance(h, np.ndarray) else float(h)


def root_guaranteed(params: SystemParams) -> bool:
    """Sufficient condition for a positive root of h.

    h > 0 near 0 when alpha < 2, or alpha = 2 with lam > mu2/2; h < 0 at
    infinity when beta < 2, or beta = 2 with lam > mu1/2.
    """
    small = params.alpha < 2.0 or (params.alpha == 2.0 and params.lam > params.mu2 / 2.0)
    large = params.beta < 2.0 or (params.beta == 2.0 and params.lam > params.mu1 / 2.0)
    return small and large


def find_roots(params: SystemParams) -> tuple[float, ...]:
    """The roots of h in R_WINDOW, ascending, located by sign changes on a 4001-point log grid.

    A node where h is 0 is a root, and so is the midpoint of each sign
    change between two nodes, bisected to _ROOT_RTOL relative width (h is
    continuous on r > 0).  Tangential roots are not searched for.  Only the
    signs of h are read, so scaling (mu1, mu2, lam), which scales h, moves
    no root.  `root_guaranteed` says whether a root must exist.
    """
    grid = np.geomspace(*R_WINDOW, 4001)
    vals = ratio_function(grid, params)
    roots = list(grid[vals == 0.0])
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0):
        falls = vals[i] > 0.0  # then h < 0 lies above the root
        lo, hi = bisect(lambda x: (ratio_function(x, params) < 0.0) == falls,
                        grid[i], grid[i + 1], _ROOT_RTOL)
        roots.append(0.5 * (lo + hi))
    return tuple(sorted(float(r) for r in roots))


def amplitudes(r: float, params: SystemParams) -> tuple[float, float]:
    """Amplitude pair (s, t) for a root r of h.

    r is a root when |h(r)| <= 1e-10 (mu2 + lam beta r^alpha), the scale of
    h's terms at a root; that is |id1 - 1| <= 1e-10 for the first amplitude
    identity, and the test does not depend on the coefficients' scale.
    Assumes the scalar profile solves the unit-coefficient equation.
    """
    pr = params
    h = ratio_function(r, params)
    scale = pr.mu2 + pr.lam * pr.beta * r**pr.alpha
    if abs(h) > _H_TOL * scale:
        raise PreconditionError(f"h({r}) = {h:g} is not a root within {_H_TOL:g} of {scale:g}")
    t = nehari_power(scale, -1.0 / (pr.p - 2.0))
    return float(r * t), float(t)


def amplitude_identities(s: float, t: float, params: SystemParams) -> tuple[float, float]:
    """The two algebraic amplitude equations; both equal 1 at a valid pair."""
    pr = params
    id1 = pr.mu1 * s ** (pr.p - 2.0) + pr.lam * pr.alpha * s ** (pr.alpha - 2.0) * t**pr.beta
    id2 = pr.mu2 * t ** (pr.p - 2.0) + pr.lam * pr.beta * s**pr.alpha * t ** (pr.beta - 2.0)
    return float(id1), float(id2)


def synchronized_solution(engine: GalerkinSystem, w: np.ndarray, s: float, t: float) -> CriticalPoint:
    """Assemble u = (s w, t w) and evaluate it on the coupled engine.

    Requires kappa1 = kappa2, (s, t) = `amplitudes(r, engine.params)` for a
    root r of h, and w the coefficients on the engine's basis of a converged
    Galerkin solution of the unit-coefficient scalar equation; the coupled
    gradient norm at u is then a bounded multiple of the scalar residual,
    the `grad_norm` of that `ScalarGroundState`.
    """
    if engine.params.kappa1 != engine.params.kappa2:
        raise PreconditionError("synchronized solutions need kappa1 = kappa2")
    return evaluate_point(engine, np.concatenate([s * w, t * w]))
