"""Generalized-Nehari machinery: membership residuals, projection, ground
states, deflated multiplicity search, and the linking-geometry quantities.

The generalized Nehari set collects the points u outside the nonpositive
spectral subspace where the energy derivative vanishes both along the ray
through u and along every nonpositive direction.  All nontrivial critical
points lie on it, and on it the energy is positive, so ground states are
found by projecting multistart seeds onto the set and descending.  In the
indefinite case the set need not be a manifold; there the primary tool is
full-space Newton (with deflation for multiplicity), and the projection is
used for seeding and reporting only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.optimize

from .domain import QuadratureGrid, ScalarField, SineBasis
from .energy import (
    GalerkinSystem,
    PairField,
    ScalarProblem,
    SpectralSplit,
    SystemParams,
    sign_orbit,
    spectral_split,
)
from .errors import (
    BracketFailureError,
    ClassificationContradictionError,
    ConvergenceFailureError,
    NoProjectionError,
    PreconditionError,
)

TRIVIAL = "trivial"
SEMITRIVIAL_1 = "semitrivial-1"
SEMITRIVIAL_2 = "semitrivial-2"
FULLY_NONTRIVIAL = "fully-nontrivial"


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, budgets and seeding knobs shared by the searches."""

    tol: float = 1e-10
    descent_max_iter: int = 400
    descent_switch_tol: float = 1e-3
    n_mode_seeds: int = 6
    n_random_seeds: int = 8
    seed_amplitude: float = 1.0
    rng_seed: int = 0
    triviality_floor: float = 1e-10
    plus_floor: float = 1e-6
    deflation_power: int = 2
    deflation_shift: float = 1.0
    oversample: float = 2.0

    def make_grid(self, basis: SineBasis) -> QuadratureGrid:
        return QuadratureGrid.for_basis(basis, oversample=self.oversample)


@dataclass(frozen=True)
class CriticalPoint:
    """A converged solution with its derived quantities."""

    u: PairField
    energy: float
    grad_norm: float
    b_value: float
    b1: float
    b2: float
    mass1: float
    mass2: float
    classification: str
    orbit_id: int = 0
    below_threshold: bool | None = None


@dataclass(frozen=True)
class NehariResiduals:
    """Stationarity defects along the ray and the nonpositive directions."""

    ray: float
    tilde: np.ndarray

    @property
    def max_abs(self) -> float:
        vals = [abs(self.ray)] + [float(v) for v in np.abs(self.tilde)]
        return max(vals)


@dataclass(frozen=True)
class ScalarGroundState:
    """Least-energy nontrivial solution of one single-component equation."""

    w: ScalarField
    energy: float
    grad_norm: float
    b_value: float

    def scaled(self, mu: float, p: float) -> "ScalarGroundState":
        """This unit-coefficient state carried to coefficient mu.

        If w solves -Lap w - kappa w = |w|^{p-2} w, then s w with
        s = mu^(-1/(p-2)) solves the equation with coefficient mu; its
        energy and quadratic form scale by s^2 and its gradient by s.
        Quadrature is linear, so the law holds for the discrete energy too.
        """
        s = mu ** (-1.0 / (p - 2.0))
        return ScalarGroundState(
            w=s * self.w,
            energy=s * s * self.energy,
            grad_norm=s * self.grad_norm,
            b_value=s * s * self.b_value,
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Semitrivial energy threshold: min of the two scalar ground energies.

    `scalar_solves` counts the scalar searches run to build it (0 for a
    result built by hand).
    """

    c0: float
    scalar_states: tuple[ScalarGroundState, ScalarGroundState]
    scalar_solves: int = 0

    @property
    def min_b(self) -> float:
        return min(s.b_value for s in self.scalar_states)


# -- generic search routines ---------------------------------------------------
# GalerkinSystem (stacked pair vectors) and ScalarProblem (single vectors)
# share one engine interface: params, basis, m, energy/gradient/hessian, the
# quadratic form, the Nehari denominator and tilde_indices(split).  So one
# set of search routines serves the system, the two scalar equations and the
# diagonal functional.


def _plus_h1_norm(engine, z: np.ndarray, tilde_idx: np.ndarray) -> float:
    g = np.tile(engine.basis.eigenvalues, z.size // engine.m)
    w = z.copy()
    w[tilde_idx] = 0.0
    return float(np.sqrt(np.sum(g * w * w)))


def project_ray(engine, z: np.ndarray) -> np.ndarray:
    """Closed-form Nehari scaling t* z, valid when the quadratic form is positive."""
    b = engine.quadratic(z)
    if b <= 0.0:
        raise NoProjectionError("quadratic form nonpositive: the ray misses the Nehari set")
    d = engine.nehari_denominator(z)
    if d <= 0.0:
        raise NoProjectionError("vanishing nonlinear mass along the ray")
    t = (b / d) ** (1.0 / (engine.params.p - 2.0))
    return t * z


def project_general(
    engine,
    z: np.ndarray,
    tilde_idx: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 80,
) -> np.ndarray:
    """Locally maximize E(t z + v) over t and the nonpositive directions v.

    Returns the maximizing point t z + v.  Used to seed the indefinite
    searches and to realize the Nehari projection when the nonpositive
    subspace is nontrivial.
    """
    if tilde_idx.size == 0:
        return project_ray(engine, z)
    nt = tilde_idx.size

    def point(y):
        return y[0] * z + _embed(y[1:], tilde_idx, z.size)

    def neg_value(y):
        return -engine.energy(point(y))

    def neg_grad(y):
        g = engine.gradient(point(y))
        return -np.concatenate([[np.dot(g, z)], g[tilde_idx]])

    def neg_hess(y):
        h = engine.hessian(point(y))
        hz = h @ z
        out = np.empty((1 + nt, 1 + nt))
        out[0, 0] = np.dot(z, hz)
        out[0, 1:] = hz[tilde_idx]
        out[1:, 0] = hz[tilde_idx]
        out[1:, 1:] = h[np.ix_(tilde_idx, tilde_idx)]
        return -out

    y0 = np.zeros(1 + nt)
    try:
        y0[0] = np.linalg.norm(project_ray(engine, z)) / max(np.linalg.norm(z), 1e-300)
    except NoProjectionError:
        y0[0] = 1.0
    res = scipy.optimize.minimize(
        neg_value,
        y0,
        jac=neg_grad,
        hess=neg_hess,
        method="trust-exact",
        options={"gtol": 1e-13, "maxiter": max_iter},
    )
    y = res.x
    if abs(y[0]) * np.linalg.norm(z) < 1e-10:
        raise NoProjectionError("local maximum sits inside the nonpositive subspace")
    if y[0] < 0:
        y = -y  # same slice; keep t > 0
    out = point(y)
    g = engine.gradient(out)
    resid = np.concatenate([[np.dot(g, z)], g[tilde_idx]])
    if np.max(np.abs(resid)) > max(tol, 1e-9 * (1.0 + abs(engine.energy(out)))):
        raise NoProjectionError("ray-plus-tilde maximization did not reach stationarity")
    return out


def _embed(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[idx] = values
    return out


def newton_polish(engine, z: np.ndarray, tol: float) -> tuple[np.ndarray, bool]:
    """Drive the full gradient to zero with a dense Newton (Powell hybrid).

    MINPACK builds the Hessian only at the start and after its Broyden updates
    stall, and returns the gradient at `sol.x` as `sol.fun`.
    """
    opts = {"xtol": 1e-13, "maxfev": 200 * (z.size + 1)}
    sol = scipy.optimize.root(engine.gradient, z, jac=engine.hessian, method="hybr", options=opts)
    return sol.x, bool(np.linalg.norm(sol.fun) <= tol) and np.all(np.isfinite(sol.x))


def nehari_descent(engine, z: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Project-after-step Sobolev gradient descent on the Nehari set (definite case).

    Steps along d = g / (gamma_k - kappa_i), the gradient in the inner product
    of the quadratic form (a diagonal solve in the sine basis), so a unit step
    suits every mode and the iteration count does not grow with the cutoff
    (Neuberger, Sobolev Gradients and Differential Equations, 1997).  On the
    Nehari ray the quadratic form equals the Nehari denominator, so the
    energy there is (1/2 - 1/p) times the quadratic form, with no quadrature.
    """
    on_ray = 0.5 - 1.0 / engine.params.p
    z = project_ray(engine, z)
    e0 = on_ray * engine.quadratic(z)
    step = 1.0
    for _ in range(config.descent_max_iter):
        g = engine.gradient(z)
        if np.linalg.norm(g) < config.descent_switch_tol:
            break
        d = g / engine.shift
        gd = float(np.dot(g, d))
        s = step
        while True:
            try:
                trial = project_ray(engine, z - s * d)
                e = on_ray * engine.quadratic(trial)
            except NoProjectionError:
                e = np.inf
            if e <= e0 - 1e-4 * s * gd:
                z, e0 = trial, e
                step = min(2.0 * s, 1.0)
                break
            s *= 0.5
            if s < 1e-16:
                return z  # stalled; leave polishing to Newton
    return z


def evaluate_point(engine, z: np.ndarray, config: SolverConfig, orbit_id: int = 0) -> CriticalPoint:
    """Package a coefficient vector as a CriticalPoint record."""
    m = engine.m
    u = PairField.from_coeffs(engine.basis, z)
    m1, m2, _ = engine.power_masses(z)
    total = m1 + m2
    floor = config.triviality_floor * max(1.0, total)
    nz1, nz2 = m1 >= floor, m2 >= floor
    if nz1 and nz2:
        cls = FULLY_NONTRIVIAL
    elif nz1:
        cls = SEMITRIVIAL_1
    elif nz2:
        cls = SEMITRIVIAL_2
    else:
        cls = TRIVIAL
    c1, c2 = z[:m], z[m:]
    b1 = float(np.sum(engine.shift1 * c1 * c1))
    b2 = float(np.sum(engine.shift2 * c2 * c2))
    return CriticalPoint(
        u=u,
        energy=engine.energy(z),
        grad_norm=float(np.linalg.norm(engine.gradient(z))),
        b_value=b1 + b2,
        b1=b1,
        b2=b2,
        mass1=m1,
        mass2=m2,
        classification=cls,
        orbit_id=orbit_id,
    )


# -- Nehari surface -------------------------------------------------------------


def nehari_residuals(
    u: PairField,
    params: SystemParams,
    split: SpectralSplit,
    grid: QuadratureGrid | None = None,
    plus_floor: float = 1e-6,
) -> NehariResiduals:
    """Derivative of the energy along the ray through u and the tilde directions."""
    engine = GalerkinSystem(params, u.basis, grid)
    z = u.coeffs()
    t_idx = engine.tilde_indices(split)
    if _plus_h1_norm(engine, z, t_idx) < plus_floor:
        raise PreconditionError("point lies (numerically) inside the nonpositive subspace")
    g = engine.gradient(z)
    return NehariResiduals(ray=float(np.dot(g, z)), tilde=g[t_idx].copy())


def nehari_project(
    u: PairField,
    params: SystemParams,
    split: SpectralSplit,
    grid: QuadratureGrid | None = None,
) -> PairField:
    """Point of the Nehari set of the form t u + v, t > 0, v nonpositive-part."""
    engine = GalerkinSystem(params, u.basis, grid)
    z = u.coeffs()
    t_idx = engine.tilde_indices(split)
    if _plus_h1_norm(engine, z, t_idx) < 1e-12 * max(np.linalg.norm(z), 1e-300):
        raise PreconditionError("the point has no positive part; no ray to project")
    return PairField.from_coeffs(u.basis, project_general(engine, z, t_idx))


# -- orbit handling -------------------------------------------------------------


def orbit_distance(z1: np.ndarray, z2: np.ndarray) -> float:
    """Coefficient distance minimized over the four sign images of z2."""
    return min(float(np.linalg.norm(z1 - img)) for img in sign_orbit(z2))


def orbit_dedup(points: Sequence[PairField] | Sequence[np.ndarray], tol: float) -> list[int]:
    """Assign orbit ids: two points share one iff their orbit distance is < tol."""
    vecs = [p.coeffs() if isinstance(p, PairField) else np.asarray(p, dtype=float) for p in points]
    reps: list[np.ndarray] = []
    ids: list[int] = []
    for z in vecs:
        for j, r in enumerate(reps):
            if orbit_distance(z, r) < tol:
                ids.append(j)
                break
        else:
            reps.append(z)
            ids.append(len(reps) - 1)
    return ids


# -- seeding --------------------------------------------------------------------


def _system_seeds(
    engine: GalerkinSystem,
    split: SpectralSplit,
    config: SolverConfig,
    rng: np.random.Generator,
    scalar_states: tuple[ScalarGroundState, ScalarGroundState] | None,
    n_random: int | None = None,
) -> Iterable[np.ndarray]:
    """Symmetric mode pairs, scalar-ground-state crosses, and low-mode noise."""
    m = engine.m
    amp = config.seed_amplitude
    for j in range(min(config.n_mode_seeds, m)):
        e = np.zeros(m)
        e[j] = amp
        for s in (1.0, -1.0):
            yield np.concatenate([e, s * e])
    if scalar_states is not None:
        w1 = scalar_states[0].w.coeffs
        w2 = scalar_states[1].w.coeffs
        for delta in (0.1, 1.0):
            yield np.concatenate([w1, delta * w2])
            yield np.concatenate([delta * w1, w2])
    low = min(m, max(8, config.n_mode_seeds))
    count = config.n_random_seeds if n_random is None else n_random
    for _ in range(count):
        z = np.zeros(2 * m)
        z[:low] = rng.standard_normal(low)
        z[m : m + low] = rng.standard_normal(low)
        yield amp * z / max(np.linalg.norm(z), 1e-12)


def _converge_seed(engine, split, z0, config: SolverConfig) -> np.ndarray | None:
    """Project a seed onto the Nehari set and drive the gradient to zero."""
    t_idx = engine.tilde_indices(split)
    try:
        if t_idx.size == 0:
            z = nehari_descent(engine, z0, config)
        else:
            z = project_general(engine, z0, t_idx)
    except NoProjectionError:
        z = z0  # let the full Newton try anyway
    z, ok = newton_polish(engine, z, config.tol)
    return z if ok else None


# -- scalar ground states and the semitrivial threshold --------------------------


def scalar_ground_state(
    params: SystemParams,
    i: int,
    basis: SineBasis,
    grid: QuadratureGrid | None = None,
    config: SolverConfig = SolverConfig(),
    mu: float | None = None,
) -> ScalarGroundState:
    """Least-energy nontrivial solution of -Lap w - kappa_i w = mu |w|^{p-2} w.

    mu defaults to mu_i.  The search runs at unit coefficient, and the
    state for mu follows from it by `ScalarGroundState.scaled`.
    """
    split = spectral_split(params, basis)
    prob = ScalarProblem(params, i, basis, grid if grid is not None else config.make_grid(basis), mu=1.0)
    rng = np.random.default_rng(config.rng_seed)
    m = basis.size
    seeds = []
    for j in range(min(max(config.n_mode_seeds, 4), m)):
        e = np.zeros(m)
        e[j] = config.seed_amplitude
        seeds.append(e)
    for _ in range(config.n_random_seeds):
        z = np.zeros(m)
        low = min(m, 8)
        z[:low] = rng.standard_normal(low)
        seeds.append(config.seed_amplitude * z / np.linalg.norm(z))
    best = None
    diagnostics = []
    t_idx = prob.tilde_indices(split)
    for z0 in seeds:
        z = _converge_seed(prob, split, z0, config)
        if z is None:
            diagnostics.append("seed did not converge")
            continue
        e = prob.energy(z)
        mass = prob.mass(z)
        if e <= 0.0 or mass < config.triviality_floor:
            continue
        if _plus_h1_norm(prob, z, t_idx) < config.plus_floor:
            continue
        if best is None or e < best[0] - 1e-12:
            best = (e, z)
    if best is None:
        raise ConvergenceFailureError("no scalar seed converged to a positive-energy solution", diagnostics)
    e, z = best
    unit = ScalarGroundState(
        w=ScalarField(basis, z),
        energy=e,
        grad_norm=float(np.linalg.norm(prob.gradient(z))),
        b_value=prob.quadratic(z),
    )
    return unit.scaled(params.mu(i) if mu is None else mu, params.p)


def semitrivial_threshold(
    params: SystemParams,
    basis: SineBasis,
    grid: QuadratureGrid | None = None,
    config: SolverConfig = SolverConfig(),
) -> ThresholdResult:
    """The smaller of the two scalar ground-state energies, with their B values.

    Any critical point of the coupled system with energy strictly inside
    (0, c0) must have both components nonzero.  The scalar state depends on
    mu_i only through `ScalarGroundState.scaled`, so one unit-coefficient
    search runs per distinct kappa.
    """
    grid = grid if grid is not None else config.make_grid(basis)
    units: dict[float, ScalarGroundState] = {}
    for i in (1, 2):
        if params.kappa(i) not in units:
            units[params.kappa(i)] = scalar_ground_state(params, i, basis, grid, config, mu=1.0)
    s1, s2 = (units[params.kappa(i)].scaled(params.mu(i), params.p) for i in (1, 2))
    return ThresholdResult(c0=min(s1.energy, s2.energy), scalar_states=(s1, s2), scalar_solves=len(units))


def classify(point: CriticalPoint, c0: float, params: SystemParams) -> str:
    """Cross-check the energy-window criterion against the mass floors.

    Raises ClassificationContradictionError when a point with energy in
    (0, c0) fails the componentwise mass floor; that would falsify the run.
    """
    if 0.0 < point.energy < c0 and point.grad_norm <= 1e-6:
        if point.classification != FULLY_NONTRIVIAL:
            raise ClassificationContradictionError(
                f"energy {point.energy:.6g} lies in (0, {c0:.6g}) but masses "
                f"classify the point as {point.classification}"
            )
    return point.classification


# -- ground state and multiplicity ------------------------------------------------


def ground_state(
    params: SystemParams,
    basis: SineBasis,
    split: SpectralSplit | None = None,
    config: SolverConfig = SolverConfig(),
    grid: QuadratureGrid | None = None,
    threshold: ThresholdResult | None = None,
) -> CriticalPoint:
    """Lowest-energy positive-energy critical point over a multistart search.

    Seeds are projected onto the Nehari set, descended (definite case) or
    Newton-polished (indefinite case), and the best accepted point is
    returned with `below_threshold` recording whether its energy sits under
    the semitrivial threshold.
    """
    grid = grid if grid is not None else config.make_grid(basis)
    if split is None:
        split = spectral_split(params, basis)
    if threshold is None:
        threshold = semitrivial_threshold(params, basis, grid, config)
    engine = GalerkinSystem(params, basis, grid)
    rng = np.random.default_rng(config.rng_seed)
    t_idx = engine.tilde_indices(split)
    best: CriticalPoint | None = None
    diagnostics: list[str] = []
    for z0 in _system_seeds(engine, split, config, rng, threshold.scalar_states):
        z = _converge_seed(engine, split, z0, config)
        if z is None:
            diagnostics.append("seed failed to converge")
            continue
        if engine.energy(z) <= 0.0:
            continue
        if _plus_h1_norm(engine, z, t_idx) < config.plus_floor:
            continue
        pt = evaluate_point(engine, z, config)
        if best is None or pt.energy < best.energy - 1e-13:
            best = pt
    if best is None:
        raise ConvergenceFailureError("no ground-state seed converged", diagnostics)
    return dataclasses.replace(best, below_threshold=bool(best.energy < threshold.c0))


def _deflation_factor(z: np.ndarray, deflate: list[np.ndarray], power: float, shift: float):
    """eta(z) = prod_i (d_i^-power + shift) over the orbit distances d_i, and its gradient."""
    eta = 1.0
    grad_eta = np.zeros_like(z)
    for zi in deflate:
        dists = [(np.linalg.norm(z - img), img) for img in sign_orbit(zi)]
        d, img = min(dists, key=lambda t: t[0])
        d = max(d, 1e-13)
        m_i = d ** (-power) + shift
        eta *= m_i
        grad_eta += (-power * d ** (-power - 1.0) / m_i) * (z - img) / d
    return eta, eta * grad_eta


def _deflated_root(engine, z0: np.ndarray, deflate: list[np.ndarray], config: SolverConfig):
    """Newton on the residual eta g, scaled by shifted inverse orbit distances."""
    pw = float(config.deflation_power)
    shift = config.deflation_shift

    def residual(z):
        eta, _ = _deflation_factor(z, deflate, pw, shift)
        return eta * engine.gradient(z)

    def jacobian(z):
        eta, grad_eta = _deflation_factor(z, deflate, pw, shift)
        return eta * engine.hessian(z) + np.outer(engine.gradient(z), grad_eta)

    opts = {"xtol": 1e-13, "maxfev": 120 * (z0.size + 1)}
    return scipy.optimize.root(residual, z0, jac=jacobian, method="hybr", options=opts).x


def multiplicity_search(
    params: SystemParams,
    basis: SineBasis,
    k: int,
    budget: int = 60,
    split: SpectralSplit | None = None,
    config: SolverConfig = SolverConfig(),
    grid: QuadratureGrid | None = None,
    threshold: ThresholdResult | None = None,
    dedup_tol: float = 1e-4,
) -> list[CriticalPoint]:
    """Distinct sign orbits of fully nontrivial solutions under the threshold.

    Deflated multistart Newton: each found orbit (of any classification,
    including the trivial solution) deflates the residual, so later runs are
    pushed toward new orbits.  Returns fully nontrivial points with energy
    in (0, c0), deduplicated and sorted by energy; may return fewer than k.
    """
    if k < 1:
        raise ValueError("target count k must be at least 1")
    grid = grid if grid is not None else config.make_grid(basis)
    if split is None:
        split = spectral_split(params, basis)
    if threshold is None:
        threshold = semitrivial_threshold(params, basis, grid, config)
    engine = GalerkinSystem(params, basis, grid)
    rng = np.random.default_rng(config.rng_seed)
    t_idx = engine.tilde_indices(split)

    deflate: list[np.ndarray] = [np.zeros(2 * engine.m)]  # never re-converge to 0
    found: list[np.ndarray] = []
    hits: list[CriticalPoint] = []
    runs = 0
    seeds = _system_seeds(engine, split, config, rng, threshold.scalar_states, n_random=budget)
    for z0 in seeds:
        if runs >= budget or sum(1 for h in hits if 0.0 < h.energy < threshold.c0) >= k:
            break
        runs += 1
        try:
            z_init = project_general(engine, z0, t_idx)
        except NoProjectionError:
            z_init = z0
        z = _deflated_root(engine, z_init, deflate, config)
        z, ok = newton_polish(engine, z, config.tol)
        if not ok:
            continue
        if np.linalg.norm(z) < 10 * config.plus_floor:
            continue
        if any(orbit_distance(z, r) < dedup_tol for r in deflate):
            continue
        deflate.append(z.copy())
        found.append(z)
        pt = evaluate_point(engine, z, config, orbit_id=len(found) - 1)
        if (
            pt.classification == FULLY_NONTRIVIAL
            and 0.0 < pt.energy < threshold.c0
            and _plus_h1_norm(engine, z, t_idx) >= config.plus_floor
        ):
            hits.append(dataclasses.replace(pt, below_threshold=True))
    hits.sort(key=lambda p: (p.energy, p.orbit_id))
    ids = orbit_dedup([h.u for h in hits], dedup_tol)
    return [dataclasses.replace(h, orbit_id=i) for h, i in zip(hits, ids)]


# -- linking geometry -------------------------------------------------------------


def sphere_infimum(
    params: SystemParams,
    basis: SineBasis,
    rho: float,
    budget: int = 200,
    split: SpectralSplit | None = None,
    grid: QuadratureGrid | None = None,
    rng_seed: int = 0,
    descent_steps: int = 40,
) -> float:
    """Monte-Carlo running minimum of the energy over the rho-sphere in X+.

    The sphere is the coefficient (L^2) sphere restricted to the positive
    modes of both components; a short tangential descent tightens the best
    samples, so the returned value is an upper bound on the true infimum
    that is nonincreasing in the budget.
    """
    if rho <= 0:
        raise PreconditionError("rho must be positive")
    if split is None:
        split = spectral_split(params, basis)
    engine = GalerkinSystem(params, basis, grid)
    mask = split.plus_mask()
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise PreconditionError("positive subspace is trivial at this kappa")
    rng = np.random.default_rng(rng_seed)

    def on_sphere(y):
        return rho * y / np.linalg.norm(y)

    best_val = np.inf
    best_y = None
    # coordinate probes first: at small rho the minimizer concentrates on the
    # smallest shifted eigenvalue, so these make the estimate sharp there
    probes = [on_sphere(e) for e in np.eye(idx.size)]
    for i in range(budget):
        y = probes[i] if i < len(probes) else on_sphere(rng.standard_normal(idx.size))
        val = engine.energy(_embed(y, idx, 2 * engine.m))
        if val < best_val:
            best_val, best_y = val, y
    # tangential descent from the best sample
    if best_y is not None:
        y = best_y
        step = 0.1 * rho
        for _ in range(descent_steps):
            z = _embed(y, idx, 2 * engine.m)
            g = engine.gradient(z)[idx]
            g_tan = g - (np.dot(g, y) / np.dot(y, y)) * y
            gn = np.linalg.norm(g_tan)
            if gn < 1e-12:
                break
            trial = on_sphere(y - step * g_tan / gn)
            val = engine.energy(_embed(trial, idx, 2 * engine.m))
            if val < best_val:
                best_val, y = val, trial
                step *= 1.5
            else:
                step *= 0.5
                if step < 1e-12 * rho:
                    break
    return float(best_val)


def _mu_eff(params: SystemParams, lam: float) -> float:
    """Nonlinear coefficient (mu_1 + mu_2 + p lam)/2 of the diagonal functional."""
    return 0.5 * (params.mu1 + params.mu2 + params.p * lam)


def _diag_problem(params: SystemParams, lam: float, basis: SineBasis, grid: QuadratureGrid | None):
    """Scalar problem equivalent to the energy restricted to the diagonal.

    For u = (w, w) the coupled energy equals 2 J(w) with J the scalar
    functional with shift (kappa_1+kappa_2)/2 and coefficient mu_eff(lam).
    """
    kbar = 0.5 * (params.kappa1 + params.kappa2)
    p_eff = dataclasses.replace(params, kappa1=kbar, kappa2=kbar, lam=lam)
    return ScalarProblem(p_eff, 1, basis, grid, mu=_mu_eff(params, lam))


def rescale_diagonal_sup(params: SystemParams, value: float, lam_from: float, lam_to: float) -> float:
    """Diagonal supremum at coupling lam_to, given its value at lam_from.

    The coupling enters the diagonal functional only through mu_eff, and
    J_mu(s w) = s^2 J_1(w) for s^(p-2) = 1/mu, so over any linear subspace
    sup J_mu = mu^(-2/(p-2)) sup J_1.  The law is exact:
    sup(lam_to) = sup(lam_from) (mu_eff(lam_from) / mu_eff(lam_to))^(2/(p-2)).
    """
    ratio = _mu_eff(params, lam_from) / _mu_eff(params, lam_to)
    return float(value * ratio ** (2.0 / (params.p - 2.0)))


def diagonal_sup(
    params: SystemParams,
    m: int,
    lam: float | None = None,
    basis: SineBasis | None = None,
    grid: QuadratureGrid | None = None,
    n_starts: int = 4,
    rng_seed: int = 0,
) -> float:
    """Supremum of the energy over the m-dimensional diagonal subspace.

    Returns exactly 0 when gamma_m <= (kappa_1 + kappa_2)/2, where the
    energy is nonpositive on the whole subspace and attains 0 at the origin.
    """
    if basis is None:
        raise ValueError("a basis is required")
    if not 1 <= m <= basis.size:
        raise PreconditionError(f"m must lie in [1, {basis.size}]")
    lam = params.lam if lam is None else float(lam)
    kbar = 0.5 * (params.kappa1 + params.kappa2)
    if basis.eigenvalues[m - 1] <= kbar:
        return 0.0
    prob = _diag_problem(params, lam, basis, grid if grid is not None else QuadratureGrid.for_basis(basis, oversample=2.0))

    def neg(c):
        full = np.zeros(basis.size)
        full[:m] = c
        return -2.0 * prob.energy(full)

    def neg_grad(c):
        full = np.zeros(basis.size)
        full[:m] = c
        return -2.0 * prob.gradient(full)[:m]

    starts = []
    for j in range(m):
        if prob.shift[j] <= 0:
            continue
        e = np.zeros(basis.size)
        e[j] = 1.0
        starts.append(project_ray(prob, e)[:m])
    rng = np.random.default_rng(rng_seed)
    scale = np.linalg.norm(starts[-1]) if starts else 1.0
    for _ in range(n_starts):
        starts.append(scale * rng.standard_normal(m))
    best = 0.0
    for c0 in starts:
        res = scipy.optimize.minimize(neg, c0, jac=neg_grad, method="BFGS", options={"gtol": 1e-13, "maxiter": 500})
        best = max(best, -res.fun)
    return float(best)


def coupling_threshold(
    params: SystemParams,
    m: int,
    c0: float,
    basis: SineBasis,
    grid: QuadratureGrid | None = None,
    lam_lo: float = 1e-6,
    lam_hi: float = 1e8,
    sup: float | None = None,
) -> float:
    """Smallest coupling beyond which the diagonal supremum drops under c0.

    Closed form from one diagonal_sup call at params.lam, skipped when the
    caller passes that supremum as `sup`: the supremum is decreasing in lam,
    and inverting the exact law of rescale_diagonal_sup gives
    mu_eff(lam_bar) = mu_eff(lam) (sup(lam) / c0)^((p-2)/2).  Returns 0
    exactly when gamma_m <= (kappa_1 + kappa_2)/2; raises
    BracketFailureError when lam_bar <= lam_lo or lam_bar > lam_hi.
    """
    if c0 <= 0:
        raise PreconditionError("c0 must be positive")
    kbar = 0.5 * (params.kappa1 + params.kappa2)
    if basis.eigenvalues[m - 1] <= kbar:
        return 0.0
    if sup is None:
        sup = diagonal_sup(params, m, lam=params.lam, basis=basis, grid=grid)
    mu_bar = _mu_eff(params, params.lam) * (sup / c0) ** ((params.p - 2.0) / 2.0)
    lam_bar = (2.0 * mu_bar - params.mu1 - params.mu2) / params.p
    if lam_bar <= lam_lo:
        raise BracketFailureError(f"supremum already below threshold at lam={lam_lo} (lam_bar={lam_bar:.6g})")
    if lam_bar > lam_hi:
        raise BracketFailureError(f"crossing lam_bar={lam_bar:.6g} lies above lam={lam_hi}")
    return float(lam_bar)
