"""The whole-space limit system: its best constant, the one-variable quotient,
the coupling threshold for an interior minimizer, and the bubble family.

On R^N with p = 2* = 2N/(N-2) the coupled quotient

    (||u_1||^2 + ||u_2||^2) / (int(mu_1|u_1|^{2*} + mu_2|u_2|^{2*}
                               + 2* lam |u_1|^alpha |u_2|^beta))^{2/2*}

restricted to pairs (s U, t U) of a common extremal profile U depends only
on r = s/t through

    f_lam(r) = (r^2 + 1) / (mu_1 r^{2*} + mu_2 + 2* lam r^alpha)^{2/2*},

and the coupled best constant equals inf_r f_lam(r) times the scalar best
constant S once the coupling exceeds a finite threshold.  S and the
amplitudes come from formulas; only `bubble_norms` integrates, to check
||grad U_1||^2 = int U_1^{2*} = int U_1^alpha U_1^beta = S^{N/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .energy import SystemParams
from .errors import BoundaryInfimumError, InconsistencyError, PreconditionError
from .radial import radial_integral
from .solve import bisect

_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)

#: Scan of f in log r: point count and r-window.
_SCAN_POINTS, _SCAN_LO, _SCAN_HI = 2001, 1e-6, 1e6
#: Pair-grid oracle: nodes per amplitude and the (s, t) window.
_PAIR_POINTS, _PAIR_LO, _PAIR_HI = 601, 1e-3, 1e3
#: interior_threshold: relative bisection width, the margin by which the infimum
#: must undercut the boundary bound, and the slack that decides a step unrefined.
_LAMBDA0_REL_WIDTH, _LAMBDA0_MARGIN, _LAMBDA0_SLACK = 1e-6, 1e-12, 1e-12
#: interior_threshold keeps the thresholds of this many argument tuples per process.
_LAMBDA0_MEMO_SIZE = 64


@dataclass(frozen=True)
class LimitParams(SystemParams):
    """`SystemParams` at the critical exponent: alpha + beta = 2N/(N-2), N >= 3.

    The whole-space system is the box system without its shifts, so the
    limit functions read only mu1, mu2, lam, alpha, beta and dim; the
    linking ray on a box reads kappa1 and kappa2 from the same record.
    """

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError("the limit system needs dim >= 3")
        super().__post_init__()
        if abs(self.p - self.critical_exponent) > 1e-12:
            raise ValueError("alpha + beta must equal 2N/(N-2)")


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


def f_lambda(r: float, lp: LimitParams) -> float:
    """One-variable quotient (r^2+1)/(mu1 r^{2*} + mu2 + 2* lam r^alpha)^{2/2*}."""
    if r < 0:
        raise PreconditionError("r must be nonnegative")
    ts = lp.critical_exponent
    denom = lp.mu1 * r**ts + lp.mu2 + ts * lp.lam * r**lp.alpha
    return float((r**2 + 1.0) / denom ** (2.0 / ts))


def _log_scan(lp: LimitParams):
    """(x, lam -> f_lam(exp(x))) on the log grid; the parts free of lam are built once."""
    x = np.linspace(np.log(_SCAN_LO), np.log(_SCAN_HI), _SCAN_POINTS)
    r = np.exp(x)
    ts = lp.critical_exponent
    num, base, ra, expo = r**2 + 1.0, lp.mu1 * r**ts + lp.mu2, r**lp.alpha, 2.0 / ts
    return x, lambda lam: num / (base + ts * lam * ra) ** expo


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
    e = -2.0 / lp.critical_exponent
    return min(lp.mu1**e, lp.mu2**e)


def _infimum_f(lp: LimitParams) -> tuple[float, float, bool]:
    """(inf value, argmin r, interior flag) of f over the scan window."""
    x, f_at = _log_scan(lp)
    return _refine(x, f_at(lp.lam), lp)


def _refine(x, vals, lp: LimitParams) -> tuple[float, float, bool]:
    """`_infimum_f` from the scan values: golden section around an interior argmin."""
    j = int(np.argmin(vals))
    if not 0 < j < len(x) - 1:
        return float(vals[j]), float(np.exp(x[j])), False
    xm = _golden_min(lambda t: f_lambda(float(np.exp(t)), lp), x[j - 1], x[j + 1])
    r = float(np.exp(xm))
    return f_lambda(r, lp), r, True


def sobolev_constant(n_dim: int) -> float:
    """Scalar best Sobolev constant S = pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N) (Aubin, Talenti 1976)."""
    if n_dim < 3:
        raise PreconditionError("dim must be at least 3")
    gamma_ratio = math.gamma(n_dim / 2.0) / math.gamma(n_dim)
    return math.pi * n_dim * (n_dim - 2.0) * gamma_ratio ** (2.0 / n_dim)


def bubble_norms(n_dim: int, epsilon: float) -> tuple[float, float]:
    """(||grad U_eps||^2, int U_eps^{2*}) by quadrature; both are S^{N/2}, checked to 1e-8."""
    b = BubbleProfile(n_dim, epsilon)
    ts = 2.0 * n_dim / (n_dim - 2.0)
    grad2 = radial_integral(lambda r: b.radial_derivative(r) ** 2, n_dim, scale=epsilon)
    mass = radial_integral(lambda r: b.value(r) ** ts, n_dim, scale=epsilon)
    if abs(grad2 - mass) > 1e-8 * abs(grad2):
        raise InconsistencyError(
            f"bubble identity violated: ||grad U||^2 = {grad2!r} vs |U|_2*^2* = {mass!r}"
        )
    return grad2, mass


@lru_cache(maxsize=_LAMBDA0_MEMO_SIZE)
def interior_threshold(mu1: float, mu2: float, alpha: float, beta: float, dim: int) -> float:
    """Smallest coupling for which inf_r f drops below both boundary values.

    Below the returned value the infimum of the quotient sits at r -> 0 or
    r -> infinity (a semitrivial profile); above it an interior minimizer
    exists.  Bisection is valid because f decreases pointwise in lam.  Golden
    section raises an interior scan minimum by ulps at most, so a step whose
    scan minimum undercuts the cut by the relative slack is decided unrefined.
    The threshold does not depend on lam, so a lam-sweep computes it once per
    process; invalid input is not kept and raises ValueError on every call.
    """
    lp = LimitParams(0.0, 0.0, mu1, mu2, 1.0, alpha, beta, dim)
    cut = _boundary_bound(lp) - _LAMBDA0_MARGIN
    x, f_at = _log_scan(lp)
    def below(lam: float) -> bool:
        vals = f_at(lam)
        if vals.min() < cut - _LAMBDA0_SLACK * cut:
            return True
        return _refine(x, vals, replace(lp, lam=lam))[0] < cut

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if below(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        raise InconsistencyError("no interior-minimum coupling found (unreachable for valid data)")
    return float(bisect(below, lo, hi, _LAMBDA0_REL_WIDTH)[1])


def coupled_sobolev_constant(lp: LimitParams) -> tuple[float, float]:
    """(S_coupled, r_min): the coupled best constant and the minimizing ratio.

    Scans f on the `_SCAN_POINTS`-point logarithmic grid, refines by
    golden section, and returns f(r_min) * S.  Raises BoundaryInfimumError
    when the minimum is not interior (coupling at or below the threshold).
    """
    val, r_min, interior = _infimum_f(lp)
    boundary = _boundary_bound(lp)
    if not interior or val >= boundary - 1e-13:
        raise BoundaryInfimumError(
            "the quotient infimum is attained at the boundary; coupling below the interior threshold"
        )
    return float(val * sobolev_constant(lp.dim)), float(r_min)


def pair_grid_infimum(lp: LimitParams) -> float:
    """Minimum of the two-amplitude quotient on the `_PAIR_POINTS`^2 (s,t) log grid, times S.

    Independent check of the one-variable reduction: the quotient is
    0-homogeneous, so this must match f(r_min) * S.  As s_i/t_j depends only
    on i - j, the grid values lie on 2n - 1 diagonals, each constant up to
    round-off; one point per diagonal picks those that can hold the minimum,
    and their nodes are evaluated exactly as the full grid would be.
    """
    ts = lp.critical_exponent
    n = _PAIR_POINTS
    g = np.geomspace(_PAIR_LO, _PAIR_HI, n)
    g2, p, a, b = g**2, g**ts, g**lp.alpha, g**lp.beta

    def quotient(i, j):
        denom = lp.mu1 * p[i] + lp.mu2 * p[j] + ts * lp.lam * a[i] * b[j]
        return (g2[i] + g2[j]) / denom ** (2.0 / ts)

    k = np.arange(1 - n, n)
    rep = quotient(np.maximum(k, 0), np.maximum(-k, 0))
    # a diagonal varies by a few ulps (4e-15 relative seen), far inside this margin
    kept = k[rep <= rep.min() * (1.0 + 1e-12)]
    i = np.concatenate([np.arange(max(d, 0), n + min(d, 0)) for d in kept])
    j = i - np.repeat(kept, n - np.abs(kept))
    return float(quotient(i, j).min() * sobolev_constant(lp.dim))


def minimizer_amplitudes(lp: LimitParams, s_coupled: float, r_min: float) -> tuple[float, float]:
    """Amplitudes (s, t) making (s U_1, t U_1) solve the limit system.

    Nehari-scales the pair (r U_1, U_1), r = r_min.  Every bubble integral
    is S^{N/2}, so S cancels: t = ((r^2+1)/(mu1 r^{2*} + mu2 + 2* lam
    r^alpha))^{1/(2*-2)} and s = r t.  Verifies that the limit energy of the
    scaled pair equals (1/N) S_coupled^{N/2}, with (S_coupled, r_min) as
    `coupled_sobolev_constant` returns them; raises InconsistencyError
    beyond 1e-6 relative (in particular when r_min is not the ratio that
    its scan minimizes).
    """
    n = lp.dim
    ts = lp.critical_exponent
    denom = lp.mu1 * r_min**ts + lp.mu2 + ts * lp.lam * r_min**lp.alpha
    t_lam = ((r_min**2 + 1.0) / denom) ** (1.0 / (ts - 2.0))
    s_lam = r_min * t_lam

    energy = sobolev_constant(n) ** (n / 2.0) * (
        0.5 * (s_lam**2 + t_lam**2)
        - (lp.mu1 * s_lam**ts + lp.mu2 * t_lam**ts) / ts
        - lp.lam * s_lam**lp.alpha * t_lam**lp.beta
    )
    target = s_coupled ** (n / 2.0) / n
    if abs(energy - target) > 1e-6 * abs(target):
        raise InconsistencyError(
            f"limit energy {energy!r} disagrees with (1/N) S^(N/2) = {target!r}"
        )
    return float(s_lam), float(t_lam)
