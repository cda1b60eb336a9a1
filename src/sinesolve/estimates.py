"""Verification harness for the cutoff-bubble integral orders, the ray-maximum
formula, the linking upper bound, and the two elementary maximization
inequalities.

The cutoff bubble is psi(|x|) U_eps(|x|) with psi a C^2 quintic bridge equal
to 1 on [0, delta] and 0 beyond 2 delta.  Its integrals follow
known orders in eps, verified here by log-log slope fits over an eps sweep.
Every eps must lie above `eps_floor`, below which the integrands overflow.
The linking harness maximizes the coupled energy over the ray through the
scaled bubble pair, in closed form, and checks the result stays below (1/N)
S_coupled^{N/2}; `linking_scope` is the one rule for where that applies,
and it asks among others for a trivial nonpositive spectral subspace, where
the ray is the whole linking set.  This is a falsification test of an
upper-bound claim, not a certified bound.  The two inequality checks
evaluate the left side at its exact maximizer and compare it with the sharp
bound on both sides: the bound must hold at every r and be attained at some
r, so a constant too small or too large fails.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import BoxDomain, SineBasis
from .energy import SystemParams, nonpositive_modes
from .errors import PreconditionError
from .limit import BubbleProfile, LimitParams
from .radial import radial_integral, radial_tail_integral

SLOPE_TOL = 0.15
#: Relative gap between each inequality's maximum and its sharp bound.
_INEQUALITY_REL_TOL = 1e-9


@dataclass(frozen=True)
class CutoffSpec:
    """Radial plateau-and-bridge cutoff: 1 on [0, delta], 0 beyond the support 2 delta.

    This is the Brezis-Nirenberg test-function cutoff (CPAM 36, 1983):
    psi = 1 on B_delta, supported in B_{2 delta}.
    """

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("need delta > 0")

    @property
    def support_radius(self) -> float:
        return 2.0 * self.delta

    @classmethod
    def for_domain(cls, domain: BoxDomain) -> "CutoffSpec":
        # plateau at 1/8 of the inscribed radius, support at 1/4: the box
        # contains the support, as the linking ray requires
        return cls(domain.inscribed_radius / 8.0)

    def value(self, radius) -> np.ndarray:
        # the bridge [delta, 2 delta] has width delta (2 delta - delta is exact)
        r = np.asarray(radius, dtype=float)
        tau = np.clip((r - self.delta) / self.delta, 0.0, 1.0)
        return 1.0 - tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)

    def derivative(self, radius) -> np.ndarray:
        r = np.asarray(radius, dtype=float)
        tau = np.clip((r - self.delta) / self.delta, 0.0, 1.0)
        return -30.0 * tau**2 * (1.0 - tau) ** 2 / self.delta


#: The cutoff of the order-fit sweep (`verify-estimates`' bubble-integrals rows).
SWEEP_CUTOFF = CutoffSpec(1.5)


@dataclass(frozen=True)
class BubbleIntegrals:
    """The seven cutoff-bubble integrals at one concentration scale."""

    eps: float
    grad_sq: float        # int |grad(psi U)|^2
    crit: float           # int (psi U)^{2*}
    crit_minus_one: float # int (psi U)^{2*-1}
    linear: float         # int (psi U)
    grad_abs: float       # int |grad(psi U)|
    crit_minus_two: float # int (psi U)^{2*-2}
    square: float         # int (psi U)^2


def _cutoff_bubble_gradient(cutoff: CutoffSpec, b: BubbleProfile, r: np.ndarray) -> np.ndarray:
    """Radial derivative of psi U by the product rule: psi' U + psi U'."""
    return cutoff.derivative(r) * b.value(r) + cutoff.value(r) * b.radial_derivative(r)


def cutoff_bubble_integrals(eps: float, cutoff: CutoffSpec, n_dim: int) -> BubbleIntegrals:
    """Radial quadrature of the seven integrals of the cutoff bubble.

    The gradient uses the product rule analytically: since both psi and the
    bubble decrease in radius, |grad(psi U)| = -(psi' U + psi U').  Raises
    PreconditionError for eps at or below `eps_floor(n_dim)`.
    """
    _check_above_floor(eps, n_dim)
    b = BubbleProfile(n_dim, eps)
    ts = 2.0 * n_dim / (n_dim - 2.0)
    rmax = cutoff.support_radius

    def ubar(r):
        return cutoff.value(r) * b.value(r)

    def integ(f):
        return radial_integral(f, n_dim, r_max=rmax, scale=eps)

    return BubbleIntegrals(
        eps=float(eps),
        grad_sq=integ(lambda r: _cutoff_bubble_gradient(cutoff, b, r) ** 2),
        crit=integ(lambda r: ubar(r) ** ts),
        crit_minus_one=integ(lambda r: ubar(r) ** (ts - 1.0)),
        linear=integ(ubar),
        grad_abs=integ(lambda r: np.abs(_cutoff_bubble_gradient(cutoff, b, r))),
        crit_minus_two=integ(lambda r: ubar(r) ** (ts - 2.0)),
        square=integ(lambda r: ubar(r) ** 2),
    )


@dataclass(frozen=True)
class SlopeFit:
    """One fitted order: slope of log(quantity) against the model abscissa."""

    name: str
    slope: float
    half_width: float
    expected: float
    model: str  # "eps" or "eps^2|ln eps|"
    passed: bool


@dataclass(frozen=True)
class EstimateReport:
    """An eps sweep of the bubble integrals and its fitted orders, with pass flags."""

    sweeps: tuple[BubbleIntegrals, ...]
    fits: tuple[SlopeFit, ...]
    square_prefactor: float  # fitted constant in front of the leading term of int (psi U)^2

    @property
    def all_passed(self) -> bool:
        return all(f.passed for f in self.fits)


def _ls_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and a 2-sigma half width."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(x) - 2, 1)
    sigma2 = (res[0] / dof) if res.size else 0.0
    cov = sigma2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(2.0 * np.sqrt(max(cov[0, 0], 0.0)))


def bubble_deficits(eps: float, cutoff: CutoffSpec, n_dim: int) -> tuple[float, float]:
    """Whole-space-minus-cutoff deficits of the gradient and critical masses.

    Both vanish identically on the plateau, so they are evaluated as direct
    tail integrals over [delta, infinity); a naive difference of the two
    large integrals would lose them to cancellation once they fall below
    machine precision relative to the full values.
    """
    b = BubbleProfile(n_dim, eps)
    ts = 2.0 * n_dim / (n_dim - 2.0)

    def grad_gap(r):
        full = b.radial_derivative(r) ** 2
        cut = _cutoff_bubble_gradient(cutoff, b, r) ** 2
        return full - cut

    def crit_gap(r):
        return (1.0 - cutoff.value(r) ** ts) * b.value(r) ** ts

    grad_def = radial_tail_integral(grad_gap, n_dim, cutoff.delta)
    crit_def = radial_tail_integral(crit_gap, n_dim, cutoff.delta)
    return float(grad_def), float(crit_def)


def fit_orders(eps_grid: Sequence[float], n_dim: int) -> EstimateReport:
    """Sweep the bubble integrals over eps_grid at SWEEP_CUTOFF and fit their log-log slopes.

    Deficits of the gradient and critical masses are measured against the
    whole-space bubble values (eps-independent).  In dimension 4 the two
    quantities with a logarithmic correction are fitted against
    log(eps^2 |ln eps|) instead of a pure power.  The orders are
    asymptotic, so the grid must pass `check_sweep`; PreconditionError
    otherwise.  The report carries the sweep it fits.
    """
    check_sweep(eps_grid, n_dim)
    sweeps = tuple(cutoff_bubble_integrals(e, SWEEP_CUTOFF, n_dim) for e in eps_grid)
    eps = np.asarray(eps_grid, dtype=float)
    deficits = np.array([bubble_deficits(e, SWEEP_CUTOFF, n_dim) for e in eps])
    quantities = {
        "grad_sq_deficit": np.abs(deficits[:, 0]),
        "crit_deficit": np.abs(deficits[:, 1]),
        "crit_minus_one": np.array([s.crit_minus_one for s in sweeps]),
        "linear": np.array([s.linear for s in sweeps]),
        "grad_abs": np.array([s.grad_abs for s in sweeps]),
        "crit_minus_two": np.array([s.crit_minus_two for s in sweeps]),
        "square": np.array([s.square for s in sweeps]),
    }
    half = 0.5 * (n_dim - 2.0)
    expected_pure = {
        "grad_sq_deficit": n_dim - 2.0,
        "crit_deficit": float(n_dim),
        "crit_minus_one": half,
        "linear": half,
        "grad_abs": half,
        "crit_minus_two": 2.0,
        "square": 2.0,
    }
    log_eps = np.log(eps)
    log_model_n4 = np.log(eps**2 * np.abs(np.log(eps)))
    fits = []
    for name, vals in quantities.items():
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise PreconditionError(f"degenerate fit: {name} has nonpositive or nonfinite values")
        logged = np.log(np.abs(vals))
        if n_dim == 4 and name in ("crit_minus_two", "square"):
            slope, hw = _ls_slope(log_model_n4, logged)
            exp_slope, model = 1.0, "eps^2|ln eps|"
        else:
            slope, hw = _ls_slope(log_eps, logged)
            exp_slope, model = expected_pure[name], "eps"
        fits.append(
            SlopeFit(
                name=name,
                slope=slope,
                half_width=hw,
                expected=exp_slope,
                model=model,
                passed=bool(abs(slope - exp_slope) <= SLOPE_TOL),
            )
        )
    # prefactor of the leading term of int (psi U)^2
    sq = quantities["square"]
    lead = eps**2 * np.abs(np.log(eps)) if n_dim == 4 else eps**2
    prefactor = float(np.exp(np.mean(np.log(sq) - np.log(lead))))
    return EstimateReport(sweeps=sweeps, fits=tuple(fits), square_prefactor=prefactor)


def eps_floor(n_dim: int) -> float:
    """Smallest eps whose bubble integrands stay finite doubles.

    The largest of them is the critical integrand at the center,
    U_eps(0)^{2*} = (N(N-2)/eps^2)^{N/2}; the floor is where that reaches the
    largest double, sqrt(N(N-2)) * max_double^{-1/N}, computed in logs so
    the check itself cannot overflow.
    """
    return math.exp(0.5 * math.log(n_dim * (n_dim - 2.0)) - math.log(sys.float_info.max) / n_dim)


def _check_above_floor(eps: float, n_dim: int) -> None:
    floor = eps_floor(n_dim)
    if not eps > floor:
        raise PreconditionError(f"eps = {eps:g} lies below the dimension-{n_dim} floor {floor:.3g}, "
                                "where the bubble integrands overflow")


def check_sweep(eps_grid: Sequence[float], n_dim: int) -> None:
    """Raise PreconditionError unless `fit_orders` can fit a sweep over eps_grid.

    Each eps must sit well inside the plateau of SWEEP_CUTOFF and above the
    floor, checked before the grid's length, order and two-decade span.
    """
    for eps in eps_grid:
        if not eps < SWEEP_CUTOFF.delta / 10.0:
            raise PreconditionError("eps must sit well inside the plateau (eps < delta/10)")
        _check_above_floor(eps, n_dim)
    if len(eps_grid) < 6:
        raise PreconditionError("need at least 6 sweep points")
    if np.any(np.diff(eps_grid) >= 0):
        raise PreconditionError("eps grid must be strictly decreasing")
    if eps_grid[0] / eps_grid[-1] < 99.0:
        raise PreconditionError("eps grid must span at least two decades")


def check_linking_eps(eps_grid: Sequence[float], basis: SineBasis) -> None:
    """Raise PreconditionError unless the linking ray on basis can take every eps of eps_grid."""
    cutoff = CutoffSpec.for_domain(basis.domain)
    for eps in eps_grid:
        if not eps < cutoff.delta / 2.0:
            raise PreconditionError("eps must sit inside the plateau (eps < delta/2)")
        _check_above_floor(eps, basis.domain.dim)


def default_eps_grid() -> tuple[float, ...]:
    """Two-decade logarithmic sweep, decreasing."""
    return tuple(float(e) for e in np.geomspace(1e-1, 1e-3, 7))


# -- ray maximum and the linking bound -------------------------------------------


def _ray_coefficients(
    eps: float, cutoff: CutoffSpec, params: LimitParams, s_amp: float, t_amp: float
) -> tuple[float, float]:
    """Quadratic and p-homogeneous coefficients of the ray energy through the bubble pair at eps."""
    integrals = cutoff_bubble_integrals(eps, cutoff, params.dim)
    ts, a, b = params.critical_exponent, params.alpha, params.beta
    quad = (s_amp**2 + t_amp**2) * integrals.grad_sq - (
        params.kappa1 * s_amp**2 + params.kappa2 * t_amp**2
    ) * integrals.square
    hom = (params.mu1 * s_amp**ts + params.mu2 * t_amp**ts + ts * params.lam * s_amp**a * t_amp**b) * integrals.crit
    return float(quad), float(hom)


def ray_energy(t: float, quad: float, hom: float, two_star: float) -> float:
    """Energy along the ray: quad t^2 / 2 - hom t^{2*} / 2*."""
    return 0.5 * quad * t**2 - hom * t**two_star / two_star


def ray_maximum(quad: float, hom: float, lp: LimitParams) -> tuple[float, float]:
    """(closed form, direct value) of the maximum of `ray_energy` over t > 0.

    The closed form is (1/N)(quad / hom^{2/2*})^{N/2}; the direct value is
    the ray energy at its one stationary point t* = (quad/hom)^{1/(2*-2)},
    and the two must agree to rounding.  Both are 0 when quad <= 0 (the ray
    energy is then nonpositive for every t > 0).
    """
    if quad <= 0.0:
        return 0.0, 0.0
    ts = lp.critical_exponent
    closed = (quad / hom ** (2.0 / ts)) ** (lp.dim / 2.0) / lp.dim
    direct = ray_energy((quad / hom) ** (1.0 / (ts - 2.0)), quad, hom, ts)
    return float(closed), float(direct)


@dataclass(frozen=True)
class LinkingRecord:
    """Maximum of the energy over the ray through the bubble pair at one eps."""

    eps: float
    best_value: float
    threshold: float
    passed: bool
    ray_radius: float


def linking_scope(params: SystemParams, basis: SineBasis) -> str | None:
    """Why the ray check does not apply to params on basis, or None where it does.

    This is the one rule for where `linking_sweep` runs, checked in this
    order: both shifts kappa_i > 0; in dimension 4, neither kappa_i a
    Dirichlet eigenvalue (the critical-dimension bound needs nonresonance);
    and a trivial nonpositive subspace X~ = {0}, where the ray is the whole
    linking set.  The note says which condition fails first.
    """
    kappas = (params.kappa1, params.kappa2)
    if any(kappa <= 0 for kappa in kappas):
        return "nonpositive kappa: linking bound skipped"
    split = [nonpositive_modes(basis, kappa) for kappa in kappas]
    if params.dim == 4 and any(zero.size for zero, _ in split):
        return ("resonant kappa: linking bound skipped (a shift matches a Dirichlet "
                "eigenvalue; the dimension-4 bound requires nonresonance)")
    if any(zero.size + minus.size for zero, minus in split):
        return "nonpositive subspace: linking bound skipped"
    return None


def linking_sweep(
    eps_grid: Sequence[float],
    params: LimitParams,
    basis: SineBasis,
    s_amp: float,
    t_amp: float,
    s_coupled: float,
) -> list[tuple[LinkingRecord, tuple[float, float]]]:
    """Maximize the energy of params over the ray {t * bubble pair : t > 0} per eps.

    The bubbles are cut off by `CutoffSpec.for_domain` of the basis's box,
    whose support the box contains, and the ray energy carries the box's
    shifts kappa1 and kappa2 from params.  The best value is the closed-form
    ray maximum, and the reported flag says whether it stays below (1/N)
    S_coupled^{N/2}.  Where `linking_scope` gives a note, the sweep raises
    PreconditionError with it, and so does an eps that `check_linking_eps`
    refuses.  Each eps's record comes with the `ray_maximum` pair of its
    ray, which is built once.
    """
    note = linking_scope(params, basis)
    if note is not None:
        raise PreconditionError(note)
    check_linking_eps(eps_grid, basis)
    cutoff = CutoffSpec.for_domain(basis.domain)
    n, ts = params.dim, params.critical_exponent
    threshold = s_coupled ** (n / 2.0) / n
    records = []
    for eps in eps_grid:
        quad, hom = _ray_coefficients(eps, cutoff, params, s_amp, t_amp)
        ray_r = (ts * quad / (2.0 * hom)) ** (1.0 / (ts - 2.0)) if quad > 0 else 0.0
        closed, direct = ray_maximum(quad, hom, params)
        record = LinkingRecord(
            eps=float(eps),
            best_value=float(closed),
            threshold=float(threshold),
            passed=bool(closed < threshold),
            ray_radius=float(ray_r),
        )
        records.append((record, (closed, direct)))
    return records


# -- elementary maximization inequalities ----------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality instance: its sharp constant and worst relative gap."""

    label: str
    constant: float
    worst_slack: float
    passed: bool


def _inequality_report(label: str, constant: float, lhs: np.ndarray, bound: np.ndarray) -> InequalityReport:
    """Worst relative gap (bound - lhs)/bound over r; it passes when 0 to within the tolerance."""
    worst = float(np.min((bound - lhs) / np.maximum(bound, 1e-300)))
    return InequalityReport(label=label, constant=float(constant), worst_slack=worst,
                            passed=bool(abs(worst) <= _INEQUALITY_REL_TOL))


def sharp_single_constant(q: float) -> float:
    """The sharp constant q^{-1/(q-1)} (1 - 1/q) of max_s (r s - s^q)."""
    return q ** (-1.0 / (q - 1.0)) * (1.0 - 1.0 / q)


def verify_single_power(q: float, r_grid: np.ndarray) -> InequalityReport:
    """Check max_{s>0}(r s - s^q) = C_q r^{q/(q-1)} on the grid with the sharp constant.

    r s - s^q is strictly concave in s, so its maximum sits at the one
    stationary point s* = (r/q)^{1/(q-1)}.
    """
    if q <= 1:
        raise PreconditionError("q must exceed 1")
    cq = sharp_single_constant(q)
    r = np.asarray(r_grid, dtype=float)
    s = (r / q) ** (1.0 / (q - 1.0))
    return _inequality_report(f"single-power q={q:g}", cq, r * s - s**q, cq * r ** (q / (q - 1.0)))


def verify_product_powers(alpha: float, beta: float, r_grid: np.ndarray) -> InequalityReport:
    """Check max_{0<=s1,s2<=1}(r s1 s2 - s1^a s2^b) <= C max(r^{a/(a-1)}, r^{b/(b-1)}).

    With q = max(a, b), s1^a s2^b >= (s1 s2)^q on [0,1]^2, so the left side is
    at most max_u (r u - u^q) = C_q r^{q/(q-1)}, and r^{q/(q-1)} is the
    larger power for r <= 1 and the smaller one beyond.  The sharp constant
    is therefore C_{max(a,b)}.  For a fixed product u = s1 s2 the power
    s1^a s2^b is least with the q-component at u and the other at 1, so for
    q = b the maximizer is (1, min(1, (r/b)^{1/(b-1)})), and for q = a the
    roles swap; for r <= 1 it attains the bound.
    """
    if alpha <= 1 or beta <= 1:
        raise PreconditionError("alpha and beta must exceed 1")
    q = max(alpha, beta)
    cq = sharp_single_constant(q)
    r = np.asarray(r_grid, dtype=float)
    s, one = np.minimum(1.0, (r / q) ** (1.0 / (q - 1.0))), np.ones_like(r)
    s1, s2 = (one, s) if q == beta else (s, one)
    lhs = r * s1 * s2 - s1**alpha * s2**beta
    majorant = np.maximum(r ** (alpha / (alpha - 1.0)), r ** (beta / (beta - 1.0)))
    return _inequality_report(f"product-powers a={alpha:g} b={beta:g} R=1", cq, lhs, cq * majorant)


def calculus_inequalities() -> list[InequalityReport]:
    """Both inequality checks over their fixed parameter lists."""
    # r = 0 is left out: both sides vanish there, which would pin the worst
    # gap at 0 whatever the constant
    r_grid = np.geomspace(1e-3, 1e3, 61)
    reports = [verify_single_power(q, r_grid) for q in (1.5, 2.0, 3.0)]
    reports += [verify_product_powers(a, b, r_grid) for a, b in ((2.0, 2.0), (1.5, 2.5))]
    return reports
