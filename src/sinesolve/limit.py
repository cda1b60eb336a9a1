"""The whole-space limit system: its best constant, the one-variable quotient,
the coupling threshold for an interior minimizer, and the bubble family.

On R^N with p = 2* = 2N/(N-2) the coupled quotient

    (||u_1||^2 + ||u_2||^2) / (int(mu_1|u_1|^{2*} + mu_2|u_2|^{2*}
                               + 2* lam |u_1|^alpha |u_2|^beta))^{2/2*}

restricted to pairs (s U, t U) of a common extremal profile U depends only
on r = s/t through

    f_lam(r) = (r^2 + 1) / (mu_1 r^{2*} + mu_2 + 2* lam r^alpha)^{2/2*},

and the coupled best constant equals inf_r f_lam(r) times the scalar best
constant S once the coupling exceeds a finite threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryInfimumError, InconsistencyError, PreconditionError
from .radial import radial_integral

_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class LimitParams:
    """Data of the whole-space critical system (no linear shifts)."""

    mu1: float
    mu2: float
    lam: float
    alpha: float
    beta: float
    dim: int

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("the limit system needs dim >= 3")
        if self.mu1 <= 0 or self.mu2 <= 0 or self.lam <= 0:
            raise ValueError("mu1, mu2, lam must be positive")
        if self.alpha <= 1 or self.beta <= 1:
            raise ValueError("alpha and beta must exceed 1")
        if abs(self.alpha + self.beta - self.two_star) > 1e-12:
            raise ValueError("alpha + beta must equal 2N/(N-2)")

    @property
    def two_star(self) -> float:
        return 2.0 * self.dim / (self.dim - 2.0)


@dataclass(frozen=True)
class BubbleProfile:
    """The explicit radial Sobolev extremal at concentration scale epsilon."""

    dim: int
    epsilon: float

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("bubbles need dim >= 3")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def normalization(self) -> float:
        n = self.dim
        return (n * (n - 2.0)) ** ((n - 2.0) / 4.0)

    def value(self, radius) -> np.ndarray:
        r = np.asarray(radius, dtype=float)
        e = self.epsilon
        return self.normalization * (e / (e**2 + r**2)) ** ((self.dim - 2.0) / 2.0)

    def radial_derivative(self, radius) -> np.ndarray:
        r = np.asarray(radius, dtype=float)
        n, e = self.dim, self.epsilon
        return -self.normalization * (n - 2.0) * e ** ((n - 2.0) / 2.0) * r * (e**2 + r**2) ** (-n / 2.0)


def bubble_value(profile: BubbleProfile, radius: float) -> float:
    """Radial value of the bubble; scalar in, scalar out."""
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    return float(profile.value(radius))


def f_lambda(r: float, lp: LimitParams) -> float:
    """One-variable quotient (r^2+1)/(mu1 r^{2*} + mu2 + 2* lam r^alpha)^{2/2*}."""
    if r < 0:
        raise PreconditionError("r must be nonnegative")
    ts = lp.two_star
    denom = lp.mu1 * r**ts + lp.mu2 + ts * lp.lam * r**lp.alpha
    return float((r**2 + 1.0) / denom ** (2.0 / ts))


def _f_on_log_grid(lp: LimitParams, n: int = 2001, lo: float = 1e-6, hi: float = 1e6):
    x = np.linspace(np.log(lo), np.log(hi), n)
    r = np.exp(x)
    ts = lp.two_star
    denom = lp.mu1 * r**ts + lp.mu2 + ts * lp.lam * r**lp.alpha
    return x, (r**2 + 1.0) / denom ** (2.0 / ts)


def _golden_min(fun, a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section argmin of fun on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _boundary_bound(lp: LimitParams) -> float:
    """min{mu1^(-2/2*), mu2^(-2/2*)}: the smaller of the two semitrivial limits."""
    e = -2.0 / lp.two_star
    return min(lp.mu1**e, lp.mu2**e)


def _infimum_f(lp: LimitParams) -> tuple[float, float, bool]:
    """(inf value, argmin r, interior flag) of f over the scan window."""
    x, vals = _f_on_log_grid(lp)
    j = int(np.argmin(vals))
    interior = 0 < j < len(x) - 1
    if not interior:
        return float(vals[j]), float(np.exp(x[j])), False
    xa, xb = x[j - 1], x[j + 1]
    xm = _golden_min(lambda t: f_lambda(float(np.exp(t)), lp), xa, xb)
    r = float(np.exp(xm))
    return f_lambda(r, lp), r, True


def sobolev_constant(n_dim: int, order: int = 48) -> float:
    """Best constant of the scalar critical embedding, from bubble integrals.

    Computes ||grad U_1||^2 by radial quadrature and returns its (2/N)-th
    power; cross-checks against int U_1^{2*}, which must agree to 1e-8
    since both equal S^{N/2}.
    """
    if n_dim < 3:
        raise PreconditionError("dim must be at least 3")
    grad2, mass = bubble_norms(n_dim, 1.0, order=order)
    if abs(grad2 - mass) > 1e-8 * abs(grad2):
        raise InconsistencyError(
            f"bubble identity violated: ||grad U||^2 = {grad2!r} vs |U|_2*^2* = {mass!r}"
        )
    return float(grad2 ** (2.0 / n_dim))


def bubble_norms(n_dim: int, epsilon: float = 1.0, order: int = 48) -> tuple[float, float]:
    """(||grad U_eps||^2, int U_eps^{2*}) over the whole space, by quadrature."""
    b = BubbleProfile(n_dim, epsilon)
    ts = 2.0 * n_dim / (n_dim - 2.0)
    grad2 = radial_integral(lambda r: b.radial_derivative(r) ** 2, n_dim, scale=epsilon, order=order)
    mass = radial_integral(lambda r: b.value(r) ** ts, n_dim, scale=epsilon, order=order)
    return grad2, mass


def interior_threshold(
    mu1: float,
    mu2: float,
    alpha: float,
    beta: float,
    dim: int,
    rel_width: float = 1e-6,
    margin: float = 1e-12,
) -> float:
    """Smallest coupling for which inf_r f drops below both boundary values.

    Below the returned value the infimum of the quotient sits at r -> 0 or
    r -> infinity (a semitrivial profile); above it an interior minimizer
    exists.  Bisection is valid because f decreases pointwise in lam.
    """
    def below(lam: float) -> bool:
        lp = LimitParams(mu1=mu1, mu2=mu2, lam=lam, alpha=alpha, beta=beta, dim=dim)
        bound = _boundary_bound(lp)
        val, _, _ = _infimum_f(lp)
        return val < bound - margin

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if below(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        raise InconsistencyError("no interior-minimum coupling found (unreachable for valid data)")
    while (hi - lo) > rel_width * hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def coupled_sobolev_constant(lp: LimitParams, s_const: float | None = None) -> tuple[float, float]:
    """(S_coupled, r_min): the coupled best constant and the minimizing ratio.

    Scans f on a 2001-point logarithmic grid over [1e-6, 1e6], refines by
    golden section, and returns f(r_min) * S.  Raises BoundaryInfimumError
    when the minimum is not interior (coupling at or below the threshold).
    """
    if s_const is None:
        s_const = sobolev_constant(lp.dim)
    val, r_min, interior = _infimum_f(lp)
    boundary = _boundary_bound(lp)
    if not interior or val >= boundary - 1e-13:
        raise BoundaryInfimumError(
            "the quotient infimum is attained at the boundary; coupling below the interior threshold"
        )
    return float(val * s_const), float(r_min)


def pair_grid_infimum(lp: LimitParams, s_const: float, n: int = 601, lo: float = 1e-3, hi: float = 1e3) -> float:
    """Brute-force infimum of the two-amplitude quotient on an (s,t) log grid.

    Independent check of the one-variable reduction: the quotient is
    0-homogeneous, so the grid infimum must match f(r_min) * S.
    """
    ts = lp.two_star
    s = np.geomspace(lo, hi, n)[:, None]
    t = np.geomspace(lo, hi, n)[None, :]
    denom = lp.mu1 * s**ts + lp.mu2 * t**ts + ts * lp.lam * s**lp.alpha * t**lp.beta
    q = (s**2 + t**2) / denom ** (2.0 / ts)
    return float(q.min() * s_const)


def minimizer_amplitudes(
    lp: LimitParams,
    s_const: float,
    r_min: float,
    order: int = 48,
    identity_tol: float = 1e-6,
) -> tuple[float, float]:
    """Amplitudes (s, t) making (s U_1, t U_1) solve the limit system.

    Nehari-scales the pair (r_min U_1, U_1) with all integrals computed by
    radial quadrature, then verifies that the limit energy of the scaled
    pair equals (1/N) S_coupled^{N/2} with S_coupled from an independent
    scan of the quotient; raises InconsistencyError beyond `identity_tol`
    relative (in particular when r_min is not actually the minimizing ratio).
    """
    n = lp.dim
    ts = lp.two_star
    grad2, mass = bubble_norms(n, 1.0, order=order)
    b = BubbleProfile(n, 1.0)
    mix = radial_integral(lambda r: b.value(r) ** lp.alpha * b.value(r) ** lp.beta, n, order=order)
    norm_v = (r_min**2 + 1.0) * grad2
    denom = (lp.mu1 * r_min**ts + lp.mu2) * mass + ts * lp.lam * r_min**lp.alpha * mix
    t_lam = (norm_v / denom) ** (1.0 / (ts - 2.0))
    s_lam = r_min * t_lam

    inf_val, _, _ = _infimum_f(lp)
    s_coupled = inf_val * s_const
    energy = (
        0.5 * (s_lam**2 + t_lam**2) * grad2
        - (lp.mu1 * s_lam**ts + lp.mu2 * t_lam**ts) / ts * mass
        - lp.lam * s_lam**lp.alpha * t_lam**lp.beta * mix
    )
    target = s_coupled ** (n / 2.0) / n
    if abs(energy - target) > identity_tol * abs(target):
        raise InconsistencyError(
            f"limit energy {energy!r} disagrees with (1/N) S^(N/2) = {target!r}"
        )
    return float(s_lam), float(t_lam)
