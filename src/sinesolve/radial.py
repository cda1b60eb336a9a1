"""Radial quadrature for rotation-invariant integrals in N dimensions.

Every integral of a radial profile g reduces to

    int_{R^N} g(|x|) dx = sigma_{N-1} int_0^R g(r) r^{N-1} dr,

with sigma_{N-1} the unit-sphere area.  Bounded ranges use Gauss-Legendre
panels graded geometrically from the profile scale outward; the unbounded
tail is mapped onto (0, 1] by r -> scale/y, which turns every algebraically
decaying integrand into a smooth one and removes truncation error entirely.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

#: Gauss-Legendre nodes per panel of every radial rule.
ORDER = 48


def sphere_area(n_dim: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n_dim / 2.0) / math.gamma(n_dim / 2.0)


@cache
def _reference_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ORDER points on [-1, 1], built once and read-only."""
    xg, wg = leggauss(ORDER)
    xg.flags.writeable = False
    wg.flags.writeable = False
    return xg, wg


def panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ORDER nodes on each panel between consecutive edges."""
    xg, wg = _reference_rule()
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = mid[:, None] + half[:, None] * xg
    weights = half[:, None] * wg
    return nodes.ravel(), weights.ravel()


def graded_edges(scale: float, r_max: float) -> np.ndarray:
    """Panel edges [0, scale/4, scale/2, scale, 2 scale, 4 scale, ..., r_max]."""
    edges = [0.0]
    if scale < r_max:
        edges += [0.25 * scale, 0.5 * scale]
        r = scale
        while r < r_max:
            edges.append(r)
            r *= 2.0
    edges.append(r_max)
    return np.unique(np.asarray(edges))


def radial_integral(
    g: Callable[[np.ndarray], np.ndarray],
    n_dim: int,
    r_max: float | None = None,
    scale: float = 1.0,
) -> float:
    """sigma_{N-1} * int_0^{r_max} g(r) r^{N-1} dr (r_max=None integrates to infinity).

    `scale` is the radius below which g varies fastest; panels are graded
    around it.  For the unbounded range the tail beyond `scale` is computed
    exactly through the inversion r = scale/y.
    """
    if r_max is not None:
        r, w = panel_rule(graded_edges(scale, r_max))
        return sphere_area(n_dim) * float(np.sum(w * g(r) * r ** (n_dim - 1)))
    r_in, w_in = panel_rule(scale * np.array([0.0, 0.25, 0.5, 1.0]))
    inner = float(np.sum(w_in * g(r_in) * r_in ** (n_dim - 1)))
    return sphere_area(n_dim) * (inner + _inverted_tail(g, n_dim, scale))


def radial_tail_integral(g: Callable[[np.ndarray], np.ndarray], n_dim: int, r_min: float) -> float:
    """sigma_{N-1} * int_{r_min}^infinity g(r) r^{N-1} dr through r = r_min / y.

    Evaluating tail quantities directly (rather than as differences of large
    integrals) avoids catastrophic cancellation.
    """
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    return sphere_area(n_dim) * _inverted_tail(g, n_dim, r_min)


def _inverted_tail(g: Callable[[np.ndarray], np.ndarray], n_dim: int, r0: float) -> float:
    """int_{r0}^infinity g(r) r^{N-1} dr, mapped onto y in (0, 1] by r = r0/y."""
    y, wy = panel_rule(np.array([0.0, 0.25, 0.5, 1.0]))
    r = r0 / y
    return float(np.sum(wy * g(r) * r ** (n_dim - 1) * r0 / y**2))
