"""Generalized-Nehari machinery: membership residuals, projection, ground
states, deflated multiplicity search, and the linking-geometry quantities.

The generalized Nehari set collects the points u outside the nonpositive
spectral subspace where the energy derivative vanishes both along the ray
through u and along every nonpositive direction.  All nontrivial critical
points lie on it, and on it the energy is positive.  In the definite case
ground states minimize the energy of each ray's Nehari point, a quotient of
the quadratic form and the Nehari denominator, from multistart seeds.  In the
indefinite case the set need not be a manifold; there the primary tool is
full-space Newton (with deflation for multiplicity), and the projection only
supplies its starting points.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .domain import SineBasis
from .energy import GalerkinSystem, ScalarProblem, SystemParams, sign_orbit
from .errors import (
    BracketFailureError,
    ClassificationContradictionError,
    ConvergenceFailureError,
    NoProjectionError,
    PreconditionError,
)
from .solve import lbfgs_min, newton_root, trust_region_min

TRIVIAL = "trivial"
SEMITRIVIAL_1 = "semitrivial-1"
SEMITRIVIAL_2 = "semitrivial-2"
FULLY_NONTRIVIAL = "fully-nontrivial"

#: nehari_descent: L-BFGS stops at this largest gradient entry of log Phi in y, this relative
#: decrease of log Phi in a step (1e7 ulp, as L-BFGS-B by default), or this step count.
DESCENT_OPTIONS = {"gtol": 1e-6, "ftol": 1e7 * np.finfo(float).eps, "maxiter": 400}
#: project_general and diagonal_sup: the trust region stops at this gradient norm or this trial count.
TRUST_OPTIONS = {"gtol": 1e-13, "max_steps": 80}
#: A component counts as nonzero when its power mass exceeds this share of the total mass;
#: a relative floor, so that scaling (mu1, mu2, lam) cannot make a state trivial.
TRIVIALITY_FLOOR = 1e-10
#: Deflation factor prod_i (d_i^-DEFLATION_POWER + DEFLATION_SHIFT) over the orbit distances d_i.
DEFLATION_POWER = 2
DEFLATION_SHIFT = 1.0
#: multiplicity_search: orbit distance, relative to the smaller scalar ground state's
#: coefficient norm, under which a converged point repeats a known orbit.
DEDUP_TOL = 1e-4
#: newton_polish: gradient norm at which Newton counts as converged.
NEWTON_TOL = 1e-10
#: Newton step cap, and the damping under which backtracking gives up: deep when polishing,
#: shallow in the deflated search, where a stalled run is cheaper to drop than to crawl.
NEWTON_STEPS = 100
POLISH_DAMPING = 1e-10
DEFLATED_DAMPING = 1e-3
#: below: relative margin under an energy level (c0, or the best seed's energy).  c0 and a
#: system energy come from two engines that round differently, so the semitrivial point
#: (0, w) reads a few ulps either side of c0 (up to 8e-16 relative seen); the least physical
#: gap seen was 1.9e-4 relative.
BELOW_MARGIN = 1e-12
#: scalar_ground_state keeps the unit-coefficient states of this many searches per process.
SCALAR_MEMO_SIZE = 16
#: diagonal_sup's 4 mixture starts: mode j (from 1) enters with sign signs[(j - 1) % 4] and weight 1/j.
MIXTURE_SIGNS = ((1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1), (-1, -1, 1, 1))
#: coupling_threshold refuses a crossing lam_bar outside (lo, hi].
LAMBDA_BAR_RANGE = (1e-6, 1e8)
#: Why a search dropped a seed, as listed in ConvergenceFailureError.diagnostics.
NO_POSITIVE_PART = "no positive part"
NOT_CONVERGED = "did not converge"
NONPOSITIVE_ENERGY = "converged at energy <= 0"
SIGN_IMAGE = "sign image of an earlier seed"


@dataclass(frozen=True)
class SolverConfig:
    """The seeding of the multistart searches and the multiplicity search's run budget.

    Each is a `solver` config key (`rng_seed` is `seed`); the other
    numerical choices of the searches, the Newton tolerance NEWTON_TOL
    among them, are the module constants above.
    """

    n_mode_seeds: int = 6
    n_random_seeds: int = 8
    rng_seed: int = 0
    budget: int = 60


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of a, for a record to store."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CriticalPoint:
    """A converged solution, z = (c_1, c_2) stacked, with its derived quantities."""

    z: np.ndarray
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

    def __post_init__(self):
        object.__setattr__(self, "z", _read_only(self.z))


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
    """Least-energy nontrivial solution of one single-component equation; w holds its coefficients."""

    w: np.ndarray
    energy: float
    grad_norm: float
    b_value: float

    def __post_init__(self):
        object.__setattr__(self, "w", _read_only(self.w))

    def scaled(self, mu: float, p: float) -> "ScalarGroundState":
        """This unit-coefficient state carried to coefficient mu.

        If w solves -Lap w - kappa w = |w|^{p-2} w, then s w with
        s = mu^(-1/(p-2)) solves the equation with coefficient mu; its
        energy and quadratic form scale by s^2 and its gradient by s.
        Quadrature is linear, so the law holds for the discrete energy too.
        """
        s = nehari_power(mu, -1.0 / (p - 2.0))
        return ScalarGroundState(
            w=s * self.w,
            energy=s * s * self.energy,
            grad_norm=s * self.grad_norm,
            b_value=s * s * self.b_value,
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Semitrivial energy threshold from the two scalar ground states.

    `scalar_solves` counts the distinct kappa whose unit-coefficient state
    it needs (0 for a result built by hand), whether or not
    `scalar_ground_state` found that state in its memo.
    """

    scalar_states: tuple[ScalarGroundState, ScalarGroundState]
    scalar_solves: int

    @property
    def c0(self) -> float:
        """The threshold: the smaller of the two scalar ground energies."""
        return min(s.energy for s in self.scalar_states)

    @property
    def min_b(self) -> float:
        return min(s.b_value for s in self.scalar_states)


# -- generic search routines on either engine (energy._Engine) -----------------


def _has_positive_part(engine, z: np.ndarray) -> bool:
    """Whether z lies outside the nonpositive subspace, relative to its size.

    The one test of "outside" in this module: the H^1 norm of z's positive
    part is at least 1e-12 |z|.  Scaling (mu1, mu2, lam) scales every
    solution, so a relative test gives the same answer at every scale.  A
    point without a positive part has no ray to the Nehari set: the maximum
    of E(t z + v) is then 0, at t z + v = 0.
    """
    plus = float(np.sqrt(np.sum(engine.plus_weights * z * z)))
    return plus >= 1e-12 * max(np.linalg.norm(z), 1e-300)


def nehari_power(base: float, power: float, zero_ok: bool = False) -> float:
    """base ** power for a Nehari scaling; a result beyond the float range is a NoProjectionError.

    The powers are +-1/(p-2), so exponents near p = 2 carry a modest base
    past the largest float, or a positive one down to 0.0, which would turn
    a nontrivial scaling into the trivial point.  With zero_ok the 0.0 is
    returned: a search may start from the origin, a result may not be it.
    """
    try:
        value = float(base) ** power
    except OverflowError:
        raise NoProjectionError("Nehari scaling overflows") from None
    if value == 0.0 and base > 0.0 and not zero_ok:
        raise NoProjectionError("Nehari scaling underflows")
    return value


def project_ray(engine, z: np.ndarray) -> np.ndarray:
    """Closed-form Nehari scaling t* z, valid when the quadratic form is positive.

    A t* that rounds to 0.0 gives the origin: every caller starts a search
    there, which then fails or moves off it.
    """
    b = engine.quadratic(z)
    if b <= 0.0:
        raise NoProjectionError("quadratic form nonpositive: the ray misses the Nehari set")
    d = engine.nehari_denominator(z)
    if d <= 0.0:
        raise NoProjectionError("vanishing nonlinear mass along the ray")
    t = nehari_power(b / d, 1.0 / (engine.p - 2.0), zero_ok=True)
    return t * z


def project_general(engine, z: np.ndarray) -> np.ndarray:
    """Locally maximize E(t z + v) over t and the nonpositive directions v.

    Returns the maximizing point t z + v.  Used to seed the indefinite
    searches and to realize the Nehari projection when the nonpositive
    subspace is nontrivial.
    """
    tilde = engine.tilde
    if tilde.size == 0:
        return project_ray(engine, z)
    nt = tilde.size

    def point(y):
        return y[0] * z + _embed(y[1:], tilde, z.size)

    def neg_value(y):
        return -engine.energy(point(y))

    def neg_grad(y):
        g = engine.gradient(point(y))
        return -np.concatenate([[np.dot(g, z)], g[tilde]])

    def neg_hess(y):
        h = engine.hessian(point(y))
        hz = h @ z
        out = np.empty((1 + nt, 1 + nt))
        out[0, 0] = np.dot(z, hz)
        out[0, 1:] = hz[tilde]
        out[1:, 0] = hz[tilde]
        out[1:, 1:] = h[np.ix_(tilde, tilde)]
        return -out

    y0 = np.zeros(1 + nt)
    try:
        y0[0] = np.linalg.norm(project_ray(engine, z)) / max(np.linalg.norm(z), 1e-300)
    except NoProjectionError:
        y0[0] = 1.0
    y, _ = trust_region_min(neg_value, neg_grad, neg_hess, y0, **TRUST_OPTIONS)
    if y[0] < 0:
        y = -y  # same slice; keep t > 0
    out = point(y)
    if not _has_positive_part(engine, out):
        raise NoProjectionError("local maximum sits inside the nonpositive subspace")
    g = engine.gradient(out)
    resid = np.concatenate([[np.dot(g, z)], g[tilde]])
    if np.max(np.abs(resid)) > max(1e-11, 1e-9 * (1.0 + abs(engine.energy(out)))):
        raise NoProjectionError("ray-plus-tilde maximization did not reach stationarity")
    return out


def _embed(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[idx] = values
    return out


def newton_polish(engine, z: np.ndarray) -> tuple[np.ndarray, bool]:
    """Drive the full gradient to zero with a damped dense Newton.

    Converged means a gradient norm of at most NEWTON_TOL.  A converged
    start costs one gradient; each step builds one Hessian.
    """
    return newton_root(engine.gradient, engine.hessian, z, NEWTON_TOL, NEWTON_STEPS, POLISH_DAMPING)


def nehari_descent(engine, z: np.ndarray) -> np.ndarray:
    """L-BFGS on the Nehari quotient from the ray through z (definite case).

    E peaks on the ray through z at Phi(z) = (1/2 - 1/p) Q^(p/(p-2)) /
    N^(2/(p-2)), Q the quadratic form and N the Nehari denominator, and the
    critical rays of Phi are those through critical points of E (Szulkin-Weth,
    2010).  L-BFGS (Liu-Nocedal, 1989) minimizes log Phi in the Sobolev
    variable y = sqrt(gamma_k - kappa_i) z (Neuberger, 1997), with grad N =
    p (shift z - g) from the energy gradient g.  Returns the Nehari point of
    the final iterate, or of the last one before a trial point with a
    vanishing field; Newton polishes it.
    """
    p, root = engine.p, np.sqrt(engine.shift)
    accepted = [root * project_ray(engine, z)]

    def log_quotient(y):
        z = y / root
        q, n = engine.quadratic(z), engine.nehari_denominator(z)
        if not (q > 0.0 and n > 0.0):
            raise NoProjectionError("vanishing field at an L-BFGS trial point")
        sz = engine.shift * z
        grad = (2.0 * p / (p - 2.0)) * (sz / q - (sz - engine.gradient(z)) / n)
        return (p * np.log(q) - 2.0 * np.log(n)) / (p - 2.0), grad / root

    try:
        y = lbfgs_min(log_quotient, accepted[0], callback=accepted.append, **DESCENT_OPTIONS)
    except NoProjectionError:
        y = accepted[-1]
    return project_ray(engine, y / root)


def evaluate_point(engine, z: np.ndarray) -> CriticalPoint:
    """Package a coefficient vector as a CriticalPoint record (orbit_id 0)."""
    m = engine.m
    m1, m2, _ = engine.power_masses(z)
    floor = TRIVIALITY_FLOOR * (m1 + m2)
    nz1, nz2 = m1 > floor, m2 > floor  # strict, so the zero point is trivial
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
        z=z,
        energy=engine.energy(z),
        grad_norm=float(np.linalg.norm(engine.gradient(z))),
        b_value=b1 + b2,
        b1=b1,
        b2=b2,
        mass1=m1,
        mass2=m2,
        classification=cls,
    )


# -- Nehari surface -------------------------------------------------------------


def nehari_residuals(engine, z: np.ndarray) -> NehariResiduals:
    """Derivative of the energy along the ray through z and the tilde directions."""
    if not _has_positive_part(engine, z):
        raise PreconditionError("point lies (numerically) inside the nonpositive subspace")
    g = engine.gradient(z)
    return NehariResiduals(ray=float(np.dot(g, z)), tilde=g[engine.tilde].copy())


# -- orbit handling -------------------------------------------------------------


def orbit_distance(z1: np.ndarray, z2: np.ndarray) -> float:
    """Coefficient distance minimized over the four sign images of z2."""
    return min(float(np.linalg.norm(z1 - img)) for img in sign_orbit(z2))


# -- seeding --------------------------------------------------------------------


def _system_seeds(
    engine: GalerkinSystem,
    config: SolverConfig,
    scalar_states: tuple[ScalarGroundState, ScalarGroundState],
    n_random: int,
) -> Iterable[np.ndarray]:
    """Symmetric mode pairs, scalar-ground-state crosses, and n_random low-mode noise seeds.

    Each pair (e_j, e_j) is followed by its u_2-flip (e_j, -e_j), and the
    two delta = 1 crosses are equal.  `ground_state` skips such sign images;
    `multiplicity_search` keeps them, since deflation sends a repeated seed
    toward a new orbit.  The noise comes from config.rng_seed; its generator,
    and with it numpy.random, is made only when the first noise seed is drawn.
    """
    m = engine.m
    for j in range(min(config.n_mode_seeds, m)):
        e = np.zeros(m)
        e[j] = 1.0
        for s in (1.0, -1.0):
            yield np.concatenate([e, s * e])
    w1, w2 = (s.w for s in scalar_states)
    for delta in (0.1, 1.0):
        yield np.concatenate([w1, delta * w2])
        yield np.concatenate([delta * w1, w2])
    if n_random > 0:
        rng = np.random.default_rng(config.rng_seed)
        low = min(m, max(8, config.n_mode_seeds))
        for _ in range(n_random):
            z = np.zeros(2 * m)
            z[:low] = rng.standard_normal(low)
            z[m : m + low] = rng.standard_normal(low)
            yield z / max(np.linalg.norm(z), 1e-12)


def _converge_seed(engine, z0) -> tuple[np.ndarray | None, str]:
    """Project a seed onto the Nehari set and drive the gradient to zero.

    Returns (z, "") for a converged seed, else (None, why it was dropped):
    NO_POSITIVE_PART or NOT_CONVERGED.
    """
    if not _has_positive_part(engine, z0):
        return None, NO_POSITIVE_PART
    try:
        if engine.tilde.size == 0:
            z = nehari_descent(engine, z0)
        else:
            z = project_general(engine, z0)
    except NoProjectionError:
        z = z0  # let the full Newton try anyway
    z, ok = newton_polish(engine, z)
    return (z, "") if ok else (None, NOT_CONVERGED)


def _least_energy(engine, seeds: Iterable[np.ndarray], orbit=None) -> np.ndarray:
    """The converged seed of least positive energy outside the nonpositive subspace.

    A later seed replaces the best only when its energy lies `below` the
    best's.  With `orbit` (a seed's images under a symmetry of the energy,
    such as `sign_orbit`), a seed equal entry for entry to an image of an
    earlier one is skipped as SIGN_IMAGE: every step commutes with the
    symmetry, so it would end at the image of that seed's end, at the same
    energy, never below it.  Raises
    ConvergenceFailureError, with one reason per dropped or skipped seed,
    when no seed qualifies.
    """
    best, best_energy = None, 0.0
    diagnostics: list[str] = []
    tried: list[np.ndarray] = []  # the images of every seed tried so far
    for z0 in seeds:
        if orbit is not None:
            if any(np.array_equal(z0, img) for img in tried):
                diagnostics.append(SIGN_IMAGE)
                continue
            tried += orbit(z0)
        z, dropped = _converge_seed(engine, z0)
        if z is not None:
            e = engine.energy(z)
            if e <= 0.0:
                z, dropped = None, NONPOSITIVE_ENERGY
            elif not _has_positive_part(engine, z):
                z, dropped = None, NO_POSITIVE_PART
        if z is None:
            diagnostics.append(dropped)
        elif best is None or below(e, best_energy):
            best, best_energy = z, e
    if best is None:
        raise ConvergenceFailureError(
            "no seed gave a positive-energy solution outside the nonpositive subspace", diagnostics)
    return best


# -- scalar ground states and the semitrivial threshold --------------------------

# scalar_ground_state's memo: (lengths, cutoffs, kappa, p, n_mode_seeds, n_random_seeds,
# rng_seed or None without random seeds) -> unit-coefficient state, least recently used first
_scalar_memo: dict[tuple, ScalarGroundState] = {}


def scalar_ground_state(basis: SineBasis, kappa: float, p: float, config: SolverConfig) -> ScalarGroundState:
    """Least-energy nontrivial solution of -Lap w - kappa w = |w|^{p-2} w.

    The state for a coefficient mu follows from it by
    `ScalarGroundState.scaled`.  Seeds: the first max(n_mode_seeds, 4)
    modes, then n_random_seeds random mixtures of the first 8.  The search
    reads the box, kappa, p and the seeding only (the seed only when it
    draws random seeds), so its state is kept by those values (the
    SCALAR_MEMO_SIZE latest) and shared by every mu, lambda and budget of
    the process; a failed search is not kept.
    """
    key = (basis.domain.lengths, basis.cutoffs, kappa, p, config.n_mode_seeds, config.n_random_seeds,
           config.rng_seed if config.n_random_seeds > 0 else None)
    state = _scalar_memo.pop(key, None)
    if state is None:
        state = _scalar_search(basis, kappa, p, config)
        if len(_scalar_memo) >= SCALAR_MEMO_SIZE:
            del _scalar_memo[next(iter(_scalar_memo))]  # the least recently used
    _scalar_memo[key] = state
    return state


def _scalar_search(basis: SineBasis, kappa: float, p: float, config: SolverConfig) -> ScalarGroundState:
    """`scalar_ground_state` without the memo: the multistart search itself."""
    prob = ScalarProblem(basis, kappa, 1.0, p)
    m = basis.size
    seeds = list(np.eye(m)[: min(max(config.n_mode_seeds, 4), m)])
    if config.n_random_seeds > 0:  # numpy.random loads only for a search that draws
        rng = np.random.default_rng(config.rng_seed)
        low = min(m, 8)
        for _ in range(config.n_random_seeds):
            z = np.zeros(m)
            z[:low] = rng.standard_normal(low)
            seeds.append(z / np.linalg.norm(z))
    z = _least_energy(prob, seeds)
    return ScalarGroundState(
        w=z,
        energy=prob.energy(z),
        grad_norm=float(np.linalg.norm(prob.gradient(z))),
        b_value=prob.quadratic(z),
    )


def semitrivial_threshold(params: SystemParams, basis: SineBasis, config: SolverConfig) -> ThresholdResult:
    """The smaller of the two scalar ground-state energies, with their B values.

    Any critical point of the coupled system with energy strictly inside
    (0, c0) must have both components nonzero.  The scalar state depends on
    mu_i only through `ScalarGroundState.scaled`, and the memo of
    `scalar_ground_state` shares one unit-coefficient state between equal
    kappas, so there is one search per distinct kappa.
    """
    s1 = scalar_ground_state(basis, params.kappa1, params.p, config).scaled(params.mu1, params.p)
    s2 = scalar_ground_state(basis, params.kappa2, params.p, config).scaled(params.mu2, params.p)
    return ThresholdResult(scalar_states=(s1, s2), scalar_solves=len({params.kappa1, params.kappa2}))


def below(energy: float, level: float) -> bool:
    """Whether energy lies under level by more than rounding: the one rule for "lower energy"."""
    return bool(energy < level - BELOW_MARGIN * abs(level))


def classify(point: CriticalPoint, c0: float) -> str:
    """Cross-check the energy-window criterion against the mass floors.

    Raises ClassificationContradictionError when a point with positive
    energy `below` c0 fails the componentwise mass floor; that would falsify
    the run.
    """
    if 0.0 < point.energy and below(point.energy, c0) and point.grad_norm <= 1e-6:
        if point.classification != FULLY_NONTRIVIAL:
            raise ClassificationContradictionError(
                f"energy {point.energy:.6g} lies in (0, {c0:.6g}) but masses "
                f"classify the point as {point.classification}"
            )
    return point.classification


# -- ground state and multiplicity ------------------------------------------------


def ground_state(
    params: SystemParams, basis: SineBasis, config: SolverConfig, threshold: ThresholdResult
) -> CriticalPoint:
    """Lowest-energy positive-energy critical point over a multistart search.

    Seeds are carried to a minimum of the Nehari quotient (definite case)
    or projected onto the Nehari set (indefinite case), then Newton-polished;
    the best accepted point is returned with `below_threshold` recording
    whether its energy sits under the semitrivial threshold.  Each sign
    orbit of seeds is converged once: a seed equal to a `sign_orbit` image
    of an earlier one is skipped.
    """
    engine = GalerkinSystem(params, basis)
    seeds = _system_seeds(engine, config, threshold.scalar_states, config.n_random_seeds)
    best = evaluate_point(engine, _least_energy(engine, seeds, sign_orbit))
    return dataclasses.replace(best, below_threshold=below(best.energy, threshold.c0))


def _deflation_factor(z: np.ndarray, images: np.ndarray):
    """eta(z), the deflation factor over the orbit distances to the deflated points, and its gradient.

    `images` stacks the four sign images of each deflated point, in
    `sign_orbit` order; the orbit distance to a point is the least of its four
    image distances, the first one on a tie.
    """
    eta = 1.0
    grad_eta = np.zeros_like(z)
    for orbit in (z - images).reshape(-1, 4, z.size):
        # sqrt(r . r) is the arithmetic of np.linalg.norm(r)
        d, r = min(((np.sqrt(np.dot(row, row)), row) for row in orbit), key=lambda t: t[0])
        d = max(d, 1e-13)
        m_i = d ** (-DEFLATION_POWER) + DEFLATION_SHIFT
        eta *= m_i
        grad_eta += (-DEFLATION_POWER * d ** (-DEFLATION_POWER - 1.0) / m_i) * r / d
    return eta, eta * grad_eta


def _deflated_root(engine, z0: np.ndarray, deflate: list[np.ndarray]):
    """Damped Newton on the residual eta g, scaled by shifted inverse orbit distances.

    The sign images of the deflated points are stacked once per run.
    `newton_root` asks for the Jacobian only at its latest residual's point,
    so the Jacobian reuses that residual's deflation factor and gradient, and
    each point costs one gradient.
    """
    images = np.array([img for zi in deflate for img in sign_orbit(zi)])
    last = {}

    def residual(z):
        eta, grad_eta = _deflation_factor(z, images)
        g = engine.gradient(z)
        last.update(eta=eta, grad_eta=grad_eta, g=g)
        return eta * g

    def jacobian(z):
        return last["eta"] * engine.hessian(z) + np.outer(last["g"], last["grad_eta"])

    return newton_root(residual, jacobian, z0, NEWTON_TOL, NEWTON_STEPS, DEFLATED_DAMPING)[0]


def multiplicity_search(
    params: SystemParams,
    basis: SineBasis,
    k: int,
    config: SolverConfig,
    threshold: ThresholdResult,
) -> list[CriticalPoint]:
    """Distinct sign orbits of fully nontrivial solutions under the threshold.

    Deflated multistart Newton from at most `config.budget` seeds: each found orbit
    (of any classification, including the trivial solution) deflates the
    residual, so later runs are pushed toward new orbits; a point within
    DEDUP_TOL times the smaller coefficient norm of the threshold's scalar
    states of a known orbit is dropped.  Scaling (mu1, mu2, lam) scales every
    solution and both scalar states alike, so the search keeps the same
    orbits at every scale.  Returns fully nontrivial points with energy in
    (0, c0), sorted by energy; may return fewer than k.
    """
    if k < 1:
        raise ValueError("target count k must be at least 1")
    engine = GalerkinSystem(params, basis)

    # never re-converge to 0: the orbit distance from 0 is the norm, so the
    # dedup check also drops every converged point of norm under dedup
    dedup = DEDUP_TOL * min(float(np.linalg.norm(s.w)) for s in threshold.scalar_states)
    deflate: list[np.ndarray] = [np.zeros(2 * engine.m)]
    hits: list[CriticalPoint] = []
    seeds = _system_seeds(engine, config, threshold.scalar_states, config.budget)
    for z0 in itertools.islice(seeds, config.budget):
        if not _has_positive_part(engine, z0):
            continue
        try:
            z_init = project_general(engine, z0)
        except NoProjectionError:
            z_init = z0
        z = _deflated_root(engine, z_init, deflate)
        z, ok = newton_polish(engine, z)
        if not ok:
            continue
        if any(orbit_distance(z, r) < dedup for r in deflate):
            continue
        deflate.append(z.copy())
        pt = evaluate_point(engine, z)
        if (
            pt.classification == FULLY_NONTRIVIAL
            and 0.0 < pt.energy
            and below(pt.energy, threshold.c0)
            and _has_positive_part(engine, z)
        ):
            hits.append(dataclasses.replace(pt, below_threshold=True))
            if len(hits) >= k:  # before the next seed is drawn
                break
    # each hit lies at least dedup from every earlier one (all of them
    # deflate), and orbit_distance is symmetric, so each is its own orbit
    hits.sort(key=lambda p: p.energy)  # stable: equal energies keep the order found
    return [dataclasses.replace(h, orbit_id=i) for i, h in enumerate(hits)]


# -- linking geometry -------------------------------------------------------------


def _mu_eff(params: SystemParams, lam: float) -> float:
    """Nonlinear coefficient (mu_1 + mu_2 + p lam)/2 of the diagonal functional."""
    return 0.5 * (params.mu1 + params.mu2 + params.p * lam)


def _diag_problem(params: SystemParams, lam: float, basis: SineBasis):
    """Scalar problem equivalent to the energy restricted to the diagonal.

    For u = (w, w) the coupled energy equals 2 J(w) with J the scalar
    functional with shift (kappa_1+kappa_2)/2 and coefficient mu_eff(lam).
    """
    kbar = 0.5 * (params.kappa1 + params.kappa2)
    return ScalarProblem(basis, kbar, _mu_eff(params, lam), params.p)


def rescale_diagonal_sup(params: SystemParams, value: float, lam: float) -> float:
    """Diagonal supremum at coupling lam, given its value at params.lam.

    The coupling enters the diagonal functional only through mu_eff, and
    J_mu(s w) = s^2 J_1(w) for s^(p-2) = 1/mu, so over any linear subspace
    sup J_mu = mu^(-2/(p-2)) sup J_1.  The law is exact:
    sup(lam) = sup(params.lam) (mu_eff(params.lam) / mu_eff(lam))^(2/(p-2)).
    """
    ratio = _mu_eff(params, params.lam) / _mu_eff(params, lam)
    return float(value * nehari_power(ratio, 2.0 / (params.p - 2.0)))


def diagonal_sup(params: SystemParams, m: int, basis: SineBasis) -> float:
    """Supremum of the energy over the m-dimensional diagonal subspace, at params.lam.

    Trust-region Newton (`trust_region_min`), on the m x m block of the
    Hessian, runs from the Nehari point of each positive mode and from 4
    fixed mixtures of all m modes, mode j with weight +-1/j by
    MIXTURE_SIGNS, each at the norm of the last mode start; the positive
    modes are those outside the diagonal engine's `tilde`.  No random
    number is drawn, so the result does not depend on the solver seed.
    The 4 mixtures differ up to sign only from m = 3 on: at m = 2 they
    give 2 directions and at m = 1 the mode start again, and as the energy
    is even a repeat just reruns a start, which is accepted.
    Returns exactly 0 when that `tilde`, the nonpositive subspace for kbar =
    (kappa_1 + kappa_2)/2, holds mode m; the modes are sorted by eigenvalue,
    so that is m <= its dimension.  Then gamma_m <= kbar up to the 1e-9
    gamma_1 zero tolerance, so the quadratic part is nonpositive on the
    whole subspace up to it, and the supremum is the 0 attained at the
    origin.  Otherwise the mode-m start has positive energy and the trust
    region never ends below its start, so the result is positive: 0 marks
    exactly the resonant case.
    """
    if not 1 <= m <= basis.size:
        raise PreconditionError(f"m must lie in [1, {basis.size}]")
    prob = _diag_problem(params, params.lam, basis)
    if m <= prob.tilde.size:
        return 0.0

    head = np.arange(m)

    def neg(c):
        return -2.0 * prob.energy(_embed(c, head, basis.size))

    def neg_grad(c):
        return -2.0 * prob.gradient(_embed(c, head, basis.size))[:m]

    def neg_hess(c):
        return -2.0 * prob.hessian(_embed(c, head, basis.size))[:m, :m]

    starts = []
    for j in range(m):
        if prob.plus_weights[j] == 0.0:
            continue
        e = np.zeros(basis.size)
        e[j] = 1.0
        starts.append(project_ray(prob, e)[:m])
    scale = np.linalg.norm(starts[-1]) if starts else 1.0
    for signs in MIXTURE_SIGNS:
        v = np.take(signs, head % 4) / (head + 1.0)
        starts.append(scale / np.linalg.norm(v) * v)
    best = 0.0
    for c0 in starts:
        best = max(best, -trust_region_min(neg, neg_grad, neg_hess, c0, **TRUST_OPTIONS)[1])
    return float(best)


def coupling_threshold(params: SystemParams, c0: float, sup: float) -> float:
    """Smallest coupling beyond which the diagonal supremum drops under c0.

    Closed form from `sup`, the diagonal_sup value at params.lam: the
    supremum is decreasing in lam, and inverting the exact law of
    rescale_diagonal_sup gives mu_eff(lam_bar) = mu_eff(lam) (sup /
    c0)^((p-2)/2).  Returns 0 exactly when sup == 0, which diagonal_sup
    returns exactly when mode m lies in the nonpositive subspace for
    (kappa_1 + kappa_2)/2; raises
    BracketFailureError when lam_bar lies outside LAMBDA_BAR_RANGE = (lo,
    hi], that is lam_bar <= lo or lam_bar > hi.
    """
    if c0 <= 0:
        raise PreconditionError("c0 must be positive")
    if sup == 0.0:
        return 0.0
    mu_bar = _mu_eff(params, params.lam) * (sup / c0) ** ((params.p - 2.0) / 2.0)
    lam_bar = (2.0 * mu_bar - params.mu1 - params.mu2) / params.p
    lo, hi = LAMBDA_BAR_RANGE
    if lam_bar <= lo:
        raise BracketFailureError(f"supremum already below threshold at lam={lo} (lam_bar={lam_bar:.6g})")
    if lam_bar > hi:
        raise BracketFailureError(f"crossing lam_bar={lam_bar:.6g} lies above lam={hi}")
    return float(lam_bar)
