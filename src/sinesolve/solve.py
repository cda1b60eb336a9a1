"""Small solvers for the searches in `nehari`, `synchronized` and `limit`.

Four routines, each at most a few dozen lines of NumPy with deterministic work:

- `newton_root`: damped Newton for F(x) = 0, backtracking on |F|; one
  Jacobian per step, one residual per trial point.
- `trust_region_min`: trust-region Newton for smooth minimization with the
  subproblem solved exactly from an eigen-decomposition of the Hessian
  (Moré-Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983); one Hessian per
  accepted step.
- `lbfgs_min`: limited-memory BFGS with the two-loop recursion (Nocedal,
  Math. Comp. 35, 1980) and Armijo backtracking; one value and gradient per
  trial point.
- `bisect`: bisection of a bracket on a predicate, down to a relative
  width; one predicate call per halving.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = np.finfo(float).eps
#: A step below STEP_TOL |x| ends a search: after a Newton step that short the
#: error is about its square, under rounding (Dennis-Schnabel's step tolerance).
STEP_TOL = EPS ** (2.0 / 3.0)
#: lbfgs_min keeps this many (s, y) pairs, L-BFGS-B's default.
MEMORY = 10


def newton_root(residual: Callable, jacobian: Callable, x0: np.ndarray, tol: float, max_steps: int,
                min_damping: float) -> tuple[np.ndarray, bool]:
    """Damped Newton on residual(x) = 0 from x0; returns (x, |residual(x)| <= tol).

    Each step solves jacobian(x) d = -F and halves the damping t from 1
    until |F(x + t d)| < (1 - 1e-4 t)|F(x)|.  It stops converged, or at a
    singular Jacobian, a damping under min_damping, a step d under STEP_TOL
    |x| (tried undamped only), or after max_steps steps, at the last
    accepted point.  jacobian is called only at the point of the latest
    residual.
    """
    x = np.array(x0, dtype=float)
    f = residual(x)
    norm = np.linalg.norm(f)
    for _ in range(max_steps):
        if not norm > tol:
            break
        try:
            d = np.linalg.solve(jacobian(x), -f)
        except np.linalg.LinAlgError:
            break
        last = not np.linalg.norm(d) > STEP_TOL * np.linalg.norm(x)
        t = 1.0
        while True:
            trial = x + t * d
            f_trial = residual(trial)
            norm_trial = np.linalg.norm(f_trial)
            if norm_trial < (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
            if last or t < min_damping:
                return x, bool(norm <= tol)
        x, f, norm = trial, f_trial, norm_trial
        if last:
            break
    return x, bool(norm <= tol)


def _trust_step(g: np.ndarray, h: np.ndarray, radius: float) -> tuple[np.ndarray, float]:
    """Minimizer s of g.s + s.H s/2 over |s| <= radius, and the reduction it predicts.

    In the eigenbasis H = Q diag(lam) Q^T the step is s(sigma) = -Q a/(lam +
    sigma), a = Q^T g, with sigma = 0 inside the region and otherwise the
    root of 1/|s(sigma)| = 1/radius above max(0, -lam_min), found by Newton
    iteration from the left.  When that root does not exist (the hard case:
    a has no weight on the lowest eigenvector) the step is s at sigma =
    -lam_min plus the multiple of that eigenvector that reaches the boundary.
    """
    lam, q = np.linalg.eigh(h)
    a = q.T @ g
    sigma = 0.0 if lam[0] > 0.0 else -lam[0] + 1e-12 * max(1.0, -lam[0])
    w = lam + sigma
    b = -a / w
    size = np.linalg.norm(b)
    if size > radius:
        for _ in range(60):
            sigma += (size / radius - 1.0) * size * size / float(np.sum(b * b / w))
            w = lam + sigma
            b = -a / w
            size = np.linalg.norm(b)
            if abs(size - radius) <= 1e-10 * radius:
                break
    elif sigma > 0.0:  # the hard case: fill up to the boundary along the lowest eigenvector
        b[0] = np.copysign(np.sqrt(radius * radius - size * size + b[0] * b[0]), b[0])
    return q @ b, -float(a @ b + 0.5 * np.sum(lam * b * b))


def trust_region_min(fun: Callable, grad: Callable, hess: Callable, x0: np.ndarray, gtol: float,
                     max_steps: int) -> tuple[np.ndarray, float]:
    """Trust-region Newton minimization of fun from x0; returns (x, fun(x)).

    The radius starts at |x0| (1 at the origin): a quarter of the step after
    a ratio of actual to predicted reduction under 1/4, twice the radius after
    one over 3/4 on the boundary; a step is accepted at a ratio over 0.15.
    When both reductions are within rounding of fun the ratio counts as 1.
    Stops at |grad| <= gtol, a predicted reduction <= 0, a step under
    STEP_TOL |x| (taken if accepted), or after max_steps trial points.
    """
    x = np.array(x0, dtype=float)
    f, g, h = fun(x), grad(x), hess(x)
    radius = np.linalg.norm(x) or 1.0
    for _ in range(max_steps):
        if not np.linalg.norm(g) > gtol:
            break
        s, predicted = _trust_step(g, h, radius)
        if not predicted > 0.0:
            break
        step = np.linalg.norm(s)
        trial = x + s
        f_trial = fun(trial)
        actual = f - f_trial
        if max(abs(actual), predicted) <= 10.0 * EPS * max(1.0, abs(f)):
            ratio = 1.0
        else:
            ratio = actual / predicted
        if not ratio >= 0.25:
            radius = 0.25 * step
        elif ratio > 0.75 and step >= 0.99 * radius:
            radius = 2.0 * radius
        accepted = ratio > 0.15
        if accepted:
            x, f = trial, f_trial
        if step <= STEP_TOL * np.linalg.norm(x):
            break
        if accepted:
            g, h = grad(x), hess(x)
    return x, f


def _two_loop(g: np.ndarray, pairs: list) -> np.ndarray:
    """The L-BFGS inverse-Hessian estimate applied to g, from the (s, y, 1/s.y) pairs, oldest first."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = pairs[-1]
    r = (float(s @ y) / float(y @ y)) * q
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * float(y @ r)) * s
    return r


def lbfgs_min(fun: Callable, x0: np.ndarray, gtol: float, ftol: float, maxiter: int,
              callback: Callable) -> np.ndarray:
    """L-BFGS minimization of fun, which returns (value, gradient); returns the final iterate.

    The first step is -g scaled to length |x0| (to |g| at x0 = 0), later
    ones the two-loop direction over the last MEMORY pairs; each is cut
    back by halving until the Armijo condition holds.  A pair with
    s.y <= 0 is not stored.  Stops at max|g| <= gtol, a relative decrease
    (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ftol, a failed line search, or
    after maxiter steps; callback(x) sees each accepted iterate.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    pairs: list = []
    for _ in range(maxiter):
        if not np.max(np.abs(g)) > gtol:
            break
        if pairs:
            d = -_two_loop(g, pairs)
        else:
            d = -g * ((np.linalg.norm(x) or np.linalg.norm(g)) / np.linalg.norm(g))
        slope = float(g @ d)
        if not slope < 0.0:
            break
        t = 1.0
        while True:
            trial = x + t * d
            f_trial, g_trial = fun(trial)
            if f_trial <= f + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:
                return x
        s, y = trial - x, g_trial - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs = (pairs + [(s, y, 1.0 / sy)])[-MEMORY:]
        decrease = f - f_trial
        x, f, g = trial, f_trial, g_trial
        callback(x)
        if decrease <= ftol * max(abs(f), abs(f + decrease), 1.0):
            break
    return x


def bisect(above: Callable, lo: float, hi: float, rtol: float) -> tuple[float, float]:
    """Halve [lo, hi] until hi - lo <= rtol hi; returns the last (lo, hi).

    above(x) says whether x lies on hi's side of the point sought; the
    midpoint 0.5 (lo + hi) replaces hi where it does and lo where it does
    not.  Needs 0 <= lo < hi and rtol above machine epsilon: a narrower
    width is never reached, and the loop would not end.
    """
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
