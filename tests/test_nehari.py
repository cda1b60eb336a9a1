"""Nehari projection, ground states, multiplicity, orbits, linking geometry."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinesolve import (
    BoxDomain,
    GalerkinSystem,
    ScalarProblem,
    SineBasis,
    SolverConfig,
    SystemParams,
    classify,
    coupling_threshold,
    diagonal_sup,
    ground_state,
    multiplicity_search,
    nehari_residuals,
    nonpositive_modes,
    rescale_diagonal_sup,
    scalar_ground_state,
    semitrivial_threshold,
)
from sinesolve.energy import sign_orbit
from sinesolve.errors import (
    BracketFailureError,
    ClassificationContradictionError,
    ConvergenceFailureError,
    NoProjectionError,
    PreconditionError,
)
from sinesolve import nehari
from sinesolve.nehari import (
    DEDUP_TOL,
    NEWTON_TOL,
    NO_POSITIVE_PART,
    NONPOSITIVE_ENERGY,
    _converge_seed,
    _deflated_root,
    _deflation_factor,
    _least_energy,
    _system_seeds,
    below,
    evaluate_point,
    nehari_descent,
    newton_polish,
    orbit_distance,
    project_general,
    project_ray,
)


@pytest.fixture(scope="module")
def basis():
    return SineBasis(BoxDomain((1.0,)), (20,))


@pytest.fixture(scope="module")
def config():
    return SolverConfig()


def params_with(**kw):
    base = dict(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=1)
    base.update(kw)
    return SystemParams(**base)


def e1_pair(basis):
    """The stacked pair (e_1, 0)."""
    z = np.zeros(2 * basis.size)
    z[0] = 1.0
    return z


# -- residuals and projection -----------------------------------------------------


def test_ray_residual_unscaled(basis):
    pr = params_with()
    res = nehari_residuals(GalerkinSystem(pr, basis), e1_pair(basis))
    assert res.ray == pytest.approx(np.pi**2 - 1.5, rel=1e-10)


def test_residuals_vanish_at_projection(basis):
    pr = params_with()
    eng = GalerkinSystem(pr, basis)
    res = nehari_residuals(eng, project_general(eng, e1_pair(basis)))
    assert abs(res.ray) < 1e-10


def test_residuals_inside_tilde_rejected(basis):
    pr = params_with(kappa1=15.0, kappa2=15.0)
    z = e1_pair(basis)  # mode 1 is the negative direction at kappa = 15
    with pytest.raises(PreconditionError):
        nehari_residuals(GalerkinSystem(pr, basis), z)


def test_projection_closed_form(basis):
    eng = GalerkinSystem(params_with(), basis)
    proj = project_general(eng, e1_pair(basis))
    t_star = np.sqrt(np.pi**2 / 1.5)
    assert proj[0] == pytest.approx(t_star, rel=1e-10)
    assert eng.energy(proj) == pytest.approx(np.pi**4 / 6, rel=1e-10)


def test_projection_scale_free(basis):
    eng = GalerkinSystem(params_with(), basis)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(2 * basis.size)
    p1 = project_general(eng, z)
    p2 = project_general(eng, 3.7 * z)
    np.testing.assert_allclose(p1, p2, rtol=1e-12, atol=1e-12)


def test_projection_rejects_point_without_plus_part(basis):
    # e1 is the negative direction at kappa = 15, so the e1 pair has no
    # positive part: a search drops it before projecting
    eng = GalerkinSystem(params_with(kappa1=15.0, kappa2=15.0), basis)
    assert _converge_seed(eng, e1_pair(basis)) == (None, NO_POSITIVE_PART)


def test_projection_noprojection_error():
    # 1-D with kappa over every eigenvalue of a tiny truncation: B < 0 on all rays
    basis = SineBasis(BoxDomain((1.0,)), (2,))
    engine = GalerkinSystem(params_with(kappa1=60.0, kappa2=60.0), basis)
    with pytest.raises(NoProjectionError):
        project_ray(engine, e1_pair(basis))


def test_general_projection_with_tilde(basis):
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=5.0)
    rng = np.random.default_rng(1)
    z = np.zeros(2 * basis.size)
    z[:6] = rng.standard_normal(6)
    z[basis.size : basis.size + 6] = rng.standard_normal(6)
    eng = GalerkinSystem(pr, basis)
    res = nehari_residuals(eng, project_general(eng, z))
    assert res.max_abs < 1e-8


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kappa1=st.floats(0.0, 9.0),
    kappa2=st.floats(0.0, 9.0),
    mu1=st.floats(0.1, 10.0),
    mu2=st.floats(0.1, 10.0),
    lam=st.floats(1e-3, 1e2),
    alpha=st.floats(1.1, 3.0),
    beta=st.floats(1.1, 3.0),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(1e-2, 1e2),
    h=st.floats(1e-3, 0.5),
)
def test_project_ray_property(basis, kappa1, kappa2, mu1, mu2, lam, alpha, beta, seed, c, h):
    # kappa below gamma_1 = pi^2: the box is definite and every ray meets the Nehari set once
    pr = params_with(kappa1=kappa1, kappa2=kappa2, mu1=mu1, mu2=mu2, lam=lam, alpha=alpha, beta=beta)
    eng = GalerkinSystem(pr, basis)
    z = np.random.default_rng(seed).standard_normal(2 * basis.size)
    y = project_ray(eng, z)
    assert eng.quadratic(y) == pytest.approx(eng.nehari_denominator(y), rel=1e-12)
    np.testing.assert_allclose(project_ray(eng, c * z), y, rtol=1e-12, atol=1e-12 * np.abs(y).max())
    e_star = eng.energy(y)
    assert e_star >= eng.energy((1.0 + h) * y)
    assert e_star >= eng.energy((1.0 - h) * y)


# -- orbits ------------------------------------------------------------------------


def test_orbit_dedup_sign_images(basis):
    rng = np.random.default_rng(2)
    z = rng.standard_normal(2 * basis.size)
    m = basis.size
    flipped = z.copy()
    flipped[:m] *= -1.0
    assert orbit_distance(flipped, z) < DEDUP_TOL and orbit_distance(z.copy(), z) < DEDUP_TOL
    assert orbit_distance(1.1 * z, z) >= DEDUP_TOL


def test_orbit_closure_of_critical_points(basis, config):
    pr = params_with(lam=50.0)
    th = semitrivial_threshold(pr, basis, config)
    gs = ground_state(pr, basis, config, th)
    eng = GalerkinSystem(pr, basis)
    z = gs.z
    for img in sign_orbit(z):
        pt = evaluate_point(eng, img)
        assert pt.energy == pytest.approx(gs.energy, abs=1e-12 * max(abs(gs.energy), 1.0))
        assert pt.grad_norm == pytest.approx(gs.grad_norm, abs=1e-12)
        assert pt.classification == gs.classification


# -- scalar states and classification ----------------------------------------------


def test_scalar_threshold_symmetric(basis, config):
    th = semitrivial_threshold(params_with(lam=50.0), basis, config)
    s1, s2 = th.scalar_states
    assert s1.energy == pytest.approx(s2.energy, rel=1e-9)
    # the first-mode ray value is an upper bound for the scalar ground energy
    assert th.c0 <= np.pi**4 / 6 + 1e-9


def test_scalar_threshold_monotone_in_mu(basis, config):
    p = params_with().p
    unit = scalar_ground_state(basis, 0.0, p, config)
    e = [unit.scaled(mu, p).energy for mu in (1.0, 2.0)]
    assert e[1] < e[0]


@pytest.mark.parametrize("kappa2, searches", [(0.0, 1), (5.0, 2)])
def test_semitrivial_threshold_one_search_per_kappa(basis, kappa2, searches, scalar_searches):
    cfg = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    th = semitrivial_threshold(params_with(kappa2=kappa2, mu2=2.0), basis, cfg)
    assert len(scalar_searches) == searches
    assert th.scalar_solves == searches
    assert th.c0 == min(s.energy for s in th.scalar_states)


def test_scalar_memo_keys_on_the_box_kappa_p_and_seeding(scalar_searches):
    def box(length=1.0, cutoff=8):
        return SineBasis(BoxDomain((length,)), (cutoff,))

    cfg = SolverConfig(n_mode_seeds=1, n_random_seeds=0)
    first = scalar_ground_state(box(), 0.0, 4.0, cfg)
    with pytest.raises(ValueError):
        first.w[0] = 1.0
    # a new basis object with the same box is a hit; mu, lambda, the budget
    # and, without random seeds, the rng seed do not enter the search
    for params, budget in ((params_with(mu1=2.0, mu2=3.0), 1), (params_with(lam=50.0), 60)):
        th = semitrivial_threshold(params, box(), dataclasses.replace(cfg, budget=budget))
        assert th.scalar_solves == 1
        assert th.scalar_states[0].energy == first.scaled(params.mu1, 4.0).energy
    assert scalar_ground_state(box(), 0.0, 4.0, dataclasses.replace(cfg, rng_seed=1)) is first
    assert scalar_ground_state(box(), 0.0, 4.0, cfg) is first
    assert scalar_searches == [(0.0, 4.0)]
    misses = [
        (box(), 5.0, 4.0, cfg),
        (box(), 0.0, 3.0, cfg),
        (box(length=1.5), 0.0, 4.0, cfg),
        (box(cutoff=10), 0.0, 4.0, cfg),
        (box(), 0.0, 4.0, dataclasses.replace(cfg, n_mode_seeds=5)),
        (box(), 0.0, 4.0, dataclasses.replace(cfg, n_random_seeds=1)),
        (box(), 0.0, 4.0, dataclasses.replace(cfg, n_random_seeds=1, rng_seed=1)),
    ]
    for n, args in enumerate(misses, start=2):
        state = scalar_ground_state(*args)
        assert len(scalar_searches) == n
        assert state is not first
        assert not state.w.flags.writeable
    assert scalar_ground_state(box(), 0.0, 4.0, cfg) is first
    assert len(scalar_searches) == 1 + len(misses)


def test_scalar_memo_is_bounded_and_drops_the_least_recently_used(basis, monkeypatch, scalar_searches):
    monkeypatch.setattr(nehari, "SCALAR_MEMO_SIZE", 2)
    cfg = SolverConfig(n_mode_seeds=1, n_random_seeds=0)
    for kappa in (0.0, 5.0, 0.0, 15.0):  # the second 0.0 is a hit and makes 5.0 the oldest
        scalar_ground_state(basis, kappa, 4.0, cfg)
    assert len(nehari._scalar_memo) == 2
    assert scalar_searches == [(0.0, 4.0), (5.0, 4.0), (15.0, 4.0)]
    scalar_ground_state(basis, 0.0, 4.0, cfg)
    scalar_ground_state(basis, 5.0, 4.0, cfg)
    assert scalar_searches[3:] == [(5.0, 4.0)]


def test_failed_scalar_search_is_not_kept(basis, scalar_searches):
    kappa = 1.01 * basis.eigenvalues[-1]  # no seed has a positive part
    for _ in range(2):
        with pytest.raises(ConvergenceFailureError):
            scalar_ground_state(basis, kappa, 4.0, SolverConfig(n_mode_seeds=1, n_random_seeds=0))
    assert len(scalar_searches) == 2
    assert not nehari._scalar_memo


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mu=st.floats(0.1, 10.0), kappa=st.sampled_from([0.0, 5.0, 15.0, 45.0]))
def test_scalar_ground_state_mu_scaling(basis, mu, kappa):
    # the state scaled from the unit-coefficient search is a critical point
    # of the mu-problem, with the energy and quadratic form that problem gives
    p = params_with().p
    cfg = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    state = scalar_ground_state(basis, kappa, p, cfg).scaled(mu, p)
    prob = ScalarProblem(basis, kappa, mu, p)
    w = state.w
    assert np.linalg.norm(prob.gradient(w)) <= 1e-9
    assert prob.energy(w) == pytest.approx(state.energy, rel=1e-12)
    assert prob.quadratic(w) == pytest.approx(state.b_value, rel=1e-12)


def test_classify_semitrivial(basis, config):
    # (w, 0) or (0, w) from the scalar state that sets c0; at mu = (1, 2) the
    # system engine reads its energy a few ulps under c0, which is rounding
    for mu2 in (1.0, 2.0):
        pr = params_with(lam=50.0, mu2=mu2)
        th = semitrivial_threshold(pr, basis, config)
        i = int(np.argmin([s.energy for s in th.scalar_states]))
        blocks = [np.zeros(basis.size), np.zeros(basis.size)]
        blocks[i] = th.scalar_states[i].w
        pt = evaluate_point(GalerkinSystem(pr, basis), np.concatenate(blocks))
        assert pt.classification == f"semitrivial-{i + 1}"
        assert pt.energy >= th.c0 - 1e-9
        assert not below(pt.energy, th.c0)
        assert classify(pt, th.c0) == f"semitrivial-{i + 1}"


def test_classify_trivial(basis):
    pr = params_with()
    eng = GalerkinSystem(pr, basis)
    pt = evaluate_point(eng, np.zeros(2 * basis.size))
    assert pt.classification == "trivial"


def test_classify_by_relative_mass(basis):
    # power masses scale like |z|^p, so the floor on each is relative to their total
    eng = GalerkinSystem(params_with(), basis)
    e = e1_pair(basis)[: basis.size]
    for size in (1.0, 1e-4):
        assert evaluate_point(eng, size * np.concatenate([e, e])).classification == "fully-nontrivial"
        assert evaluate_point(eng, size * np.concatenate([e, 1e-4 * e])).classification == "semitrivial-1"


def test_classify_contradiction(basis):
    pr = params_with(lam=50.0)
    eng = GalerkinSystem(pr, basis)
    pt = evaluate_point(eng, np.zeros(2 * basis.size))
    fake = dataclasses.replace(pt, energy=1.0, grad_norm=0.0)
    with pytest.raises(ClassificationContradictionError):
        classify(fake, 10.0)


# -- ground state and multiplicity --------------------------------------------------


def test_ground_state_definite(basis, config):
    pr = params_with(lam=50.0)
    th = semitrivial_threshold(pr, basis, config)
    gs = ground_state(pr, basis, config, th)
    assert gs.grad_norm < 1e-8
    assert 0.0 < gs.energy < th.c0
    assert gs.classification == "fully-nontrivial"
    assert gs.below_threshold
    # energy identity at critical points
    assert gs.energy == pytest.approx((0.5 - 1.0 / pr.p) * gs.b_value, rel=1e-6)
    # positivity bound along the Nehari set
    eng = GalerkinSystem(pr, basis)
    m1, m2, _ = eng.power_masses(gs.z)
    assert gs.energy >= (0.5 - 1.0 / pr.p) * (pr.mu1 * m1 + pr.mu2 * m2) - 1e-9


@pytest.fixture(scope="module")
def basis24():
    return SineBasis(BoxDomain((1.0,)), (24,))


def _count_gradients(engine):
    """Record each gradient the engine is asked for; returns the list it appends to."""
    gradient, calls = engine.gradient, []

    def counting(z):
        calls.append(1)
        return gradient(z)

    engine.gradient = counting
    return calls


@pytest.mark.parametrize("kind", ["system", "scalar"])
def test_descent_from_first_mode_is_short(basis24, kind):
    # in the Sobolev variable the iteration count does not grow with the
    # cutoff: a handful of gradients, where 1/gamma_max steps took hundreds
    pr = params_with(lam=50.0)
    e1 = np.eye(basis24.size)[0]
    if kind == "system":
        engine, z0 = GalerkinSystem(pr, basis24), np.concatenate([e1, e1])
    else:
        engine, z0 = ScalarProblem(basis24, pr.kappa1, pr.mu1, pr.p), e1
    calls = _count_gradients(engine)
    z = nehari_descent(engine, z0)
    assert len(calls) <= 20
    assert np.linalg.norm(engine.gradient(z)) < 1e-3


@pytest.mark.parametrize("lam", [50.0, 200.0])
def test_descent_from_cross_seed_is_short(lam):
    # the (w1, 0.1 w2) seed mostly has to move along the slowly contracting
    # u1/u2 balance mode: the Sobolev descent took 203 gradients at lam=50
    # and hit its 400-step cap at lam=200
    basis = SineBasis(BoxDomain((1.0,)), (16,))
    pr = params_with(lam=lam)
    th = semitrivial_threshold(pr, basis, SolverConfig(n_mode_seeds=2, n_random_seeds=0))
    w1, w2 = (s.w for s in th.scalar_states)
    engine = GalerkinSystem(pr, basis)
    calls = _count_gradients(engine)
    z = nehari_descent(engine, np.concatenate([w1, 0.1 * w2]))
    assert len(calls) <= 20
    assert np.linalg.norm(engine.gradient(z)) < 1e-3


def test_descent_stops_before_a_vanishing_field(basis24):
    # a trial point with no Nehari denominator has no quotient to hand to
    # L-BFGS: the descent ends at its last accepted iterate, on the ray
    engine = GalerkinSystem(params_with(lam=50.0), basis24)
    e1, e2 = np.eye(basis24.size)[:2]
    z0 = np.concatenate([e1 + e2, 0.1 * e1])
    denominator, calls = engine.nehari_denominator, []

    def vanishing_once(z):
        calls.append(1)
        return 0.0 if len(calls) == 5 else denominator(z)

    engine.nehari_denominator = vanishing_once
    z = nehari_descent(engine, z0)
    assert len(calls) == 6  # the seed, four trial points, the returned point
    assert engine.quadratic(z) == pytest.approx(denominator(z), rel=1e-12)
    assert engine.quadratic(z) < engine.quadratic(project_ray(engine, z0))


@pytest.mark.parametrize("lam", [50.0, 200.0])
def test_descent_polishes_to_the_reference_energy(lam, reference_nehari_descent):
    # every system and scalar seed of the benchmark's K=16 definite box, at
    # its ground-state (lam=50) and multiplicity (lam=200) coupling
    basis = SineBasis(BoxDomain((1.0,)), (16,))
    pr = params_with(lam=lam)
    seeding = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    th = semitrivial_threshold(pr, basis, seeding)

    def energies(engine, z0):
        out = []
        for descent in (nehari_descent, reference_nehari_descent):
            z, ok = newton_polish(engine, descent(engine, z0))
            assert ok
            out.append(engine.energy(z))
        return out

    system = GalerkinSystem(pr, basis)
    for z0 in _system_seeds(system, seeding, np.random.default_rng(0), th.scalar_states, seeding.n_random_seeds):
        new, ref = energies(system, z0)
        assert new == pytest.approx(ref, rel=1e-12)
    scalar = ScalarProblem(basis, pr.kappa1, 1.0, pr.p)
    seeds = list(np.eye(basis.size)[:4])
    pairs = [energies(scalar, z0) for z0 in seeds]
    for new, ref in pairs[:3]:
        assert new == pytest.approx(ref, rel=1e-12)
    # sin(4 pi x) lies in the span of the modes 4k, which the gradient maps
    # into itself: L-BFGS stays there, on the four-node state, while the
    # Sobolev descent left it by round-off and reached the ground state.
    # The scalar ground state, the lowest of the four, is the same.
    z = nehari_descent(scalar, seeds[3])
    assert np.abs(np.delete(z, np.arange(3, basis.size, 4))).max() < 1e-8 * np.linalg.norm(z)
    assert pairs[3][0] > pairs[3][1]
    assert min(new for new, _ in pairs) == pytest.approx(min(ref for _, ref in pairs), rel=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    kappa1=st.floats(-5.0, 9.0),
    kappa2=st.floats(-5.0, 9.0),
    mu2=st.floats(0.5, 2.0),
    lam=st.floats(0.1, 100.0),
    p=st.sampled_from([3.0, 4.0]),
    share=st.floats(0.2, 0.8),
    seed=st.integers(0, 2**16),
)
def test_descent_lowers_the_ray_energy_and_polishes(kappa1, kappa2, mu2, lam, p, share, seed):
    # definite boxes (kappa < pi^2), alpha != beta allowed: the Nehari energy
    # (1/2 - 1/p) Q never rises above its value at the seed's Nehari point,
    # and Newton converges from where the descent stops
    alpha = 1.0 + share * (p - 2.0)
    pr = SystemParams(kappa1=kappa1, kappa2=kappa2, mu1=1.0, mu2=mu2, lam=lam, alpha=alpha, beta=p - alpha, dim=1)
    basis = SineBasis(BoxDomain((1.0,)), (8,))
    engine = GalerkinSystem(pr, basis)
    z0 = np.random.default_rng(seed).standard_normal(2 * basis.size)
    z = nehari_descent(engine, z0)
    assert engine.quadratic(z) <= engine.quadratic(project_ray(engine, z0)) * (1.0 + 1e-12)
    assert newton_polish(engine, z)[1]


@pytest.mark.parametrize("mu2", [1.0, 2.0])
def test_ground_state_follows_the_cubic_transition(mu2):
    # alpha = beta = 2 and kappa1 = kappa2: (s w, t w) with s^2 = (2 lam - mu2)/(4 lam^2 - mu1 mu2),
    # t^2 = (2 lam - mu1)/(4 lam^2 - mu1 mu2) is a solution of energy (s^2 + t^2) E_w, under
    # c0 = E_w / max(mu) when 2 lam > max(mu); below that the ground state is semitrivial at c0
    basis = SineBasis(BoxDomain((1.0,)), (16,))
    config = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    e_w = scalar_ground_state(basis, 0.0, 4.0, config).energy
    for lam in (0.3, 0.45, 0.55, 0.9, 1.1, 1.5, 5.0):
        pr = params_with(mu2=mu2, lam=lam)
        th = semitrivial_threshold(pr, basis, config)
        gs = ground_state(pr, basis, config, th)
        if 2.0 * lam > max(pr.mu1, mu2):
            det = 4.0 * lam * lam - pr.mu1 * mu2
            expected = ((2.0 * lam - mu2) + (2.0 * lam - pr.mu1)) / det * e_w
            assert gs.classification == "fully-nontrivial", lam
            assert gs.below_threshold, lam
        else:
            expected = th.c0
            assert th.c0 == pytest.approx(e_w / max(pr.mu1, mu2), rel=1e-12)
            wanted = {"semitrivial-1", "semitrivial-2"} if mu2 == pr.mu1 else {"semitrivial-2"}
            assert gs.classification in wanted, lam
            assert not gs.below_threshold, lam
        assert gs.energy == pytest.approx(expected, rel=1e-12), lam


def test_ground_state_definite_default_seeds(basis24):
    pr, cfg = params_with(lam=50.0), SolverConfig()
    gs = ground_state(pr, basis24, cfg, semitrivial_threshold(pr, basis24, cfg))
    assert gs.energy == pytest.approx(0.312001188332069, abs=1e-12)


def test_critical_ground_state_in_four_dimensions():
    # the paper's critical case p = alpha + beta = 2* = 4 in N = 4, with
    # kappa = 25 no Dirichlet eigenvalue, on 2^4 modes: the energy is the one
    # the padded 32^4 Gauss-Legendre grid gave, reached here on 6^4 nodes
    pr = SystemParams(kappa1=25.0, kappa2=25.0, mu1=1.0, mu2=1.0, lam=5.0, alpha=2.0, beta=2.0, dim=4)
    basis = SineBasis(BoxDomain((1.0,) * 4), (2,) * 4)
    cfg = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    gs = ground_state(pr, basis, cfg, semitrivial_threshold(pr, basis, cfg))
    assert pr.p == pr.critical_exponent
    assert basis.grid.shape == (6,) * 4
    assert gs.classification == "fully-nontrivial"
    assert gs.grad_norm < 1e-10
    assert gs.energy == pytest.approx(1.8821510781249648, rel=1e-12)


def test_ground_state_indefinite(basis, config):
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    th = semitrivial_threshold(pr, basis, config)
    gs = ground_state(pr, basis, config, th)
    assert gs.grad_norm < 1e-8
    assert 0.0 < gs.energy < th.c0
    assert gs.classification == "fully-nontrivial"
    assert 0.0 < gs.b_value < th.min_b


def test_multiplicity_orbits(basis, config):
    pr = params_with(lam=200.0)
    th = semitrivial_threshold(pr, basis, config)
    pts = multiplicity_search(pr, basis, 2, dataclasses.replace(config, budget=30), th)
    assert len(pts) >= 2
    # each point lies at least DEDUP_TOL times the smaller scalar state's norm
    # from every earlier one
    dedup = DEDUP_TOL * min(np.linalg.norm(s.w) for s in th.scalar_states)
    assert all(orbit_distance(b.z, a.z) >= dedup for i, a in enumerate(pts) for b in pts[i + 1 :])
    assert [p.orbit_id for p in pts] == list(range(len(pts)))
    for p in pts:
        assert 0.0 < p.energy < th.c0
        assert p.classification == "fully-nontrivial"
        assert 0.0 < p.b_value < th.min_b


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kappa", [0.0, 15.0])
def test_multiplicity_reaches_the_coupling_threshold_count(config, kappa, m):
    # the paper's multiplicity claim on both of the tool's routes to it: just
    # above lambda_bar(m) from the diagonal supremum, the deflated search finds
    # at least m - d orbits under c0, with d the nonpositive modes per component
    basis = SineBasis(BoxDomain((1.0,)), (16,))
    pr = params_with(kappa1=kappa, kappa2=kappa)
    th = semitrivial_threshold(pr, basis, config)
    lam_bar = coupling_threshold(pr, th.c0, diagonal_sup(pr, m, basis))
    d = sum(idx.size for idx in nonpositive_modes(basis, kappa))
    pts = multiplicity_search(dataclasses.replace(pr, lam=1.01 * lam_bar), basis, m,
                              dataclasses.replace(config, budget=16), th)
    assert len(pts) >= m - d
    assert all(0.0 < p.energy < th.c0 and p.classification == "fully-nontrivial" for p in pts)


def test_multiplicity_small_lambda_best_effort(basis, config):
    # with weak coupling no orbit may fall below the threshold; empty is legal
    pr = params_with(lam=1e-3)
    th = semitrivial_threshold(pr, basis, config)
    pts = multiplicity_search(pr, basis, 1, dataclasses.replace(config, budget=6), th)
    for p in pts:
        assert 0.0 < p.energy < th.c0


def test_multiplicity_drops_a_converged_point_near_zero(basis, config, monkeypatch):
    # a converged point of norm 1e-6 lies within DEDUP_TOL times the scalar
    # states' norm of the deflated zero vector: it is no orbit and deflates nothing
    pr = params_with(lam=200.0)
    th = semitrivial_threshold(pr, basis, config)
    tiny = np.full(2 * basis.size, 1e-6 / np.sqrt(2 * basis.size))
    deflated = []

    def recording_root(engine, z0, deflate):
        deflated.append(len(deflate))
        return z0

    monkeypatch.setattr(nehari, "_deflated_root", recording_root)
    monkeypatch.setattr(nehari, "newton_polish", lambda engine, z: (tiny.copy(), True))
    assert multiplicity_search(pr, basis, 1, dataclasses.replace(config, budget=6), th) == []
    assert deflated == [1] * 6


# -- linking geometry ---------------------------------------------------------------


def sup_at(pr, m, basis, lam):
    """diagonal_sup of pr with its coupling set to lam."""
    return diagonal_sup(dataclasses.replace(pr, lam=lam), m, basis)


def test_diagonal_sup_ray_value(basis):
    val = diagonal_sup(params_with(), 1, basis)
    assert val == pytest.approx(np.pi**4 / 9, rel=1e-10)


# kbar = (kappa_1 + kappa_2)/2 against gamma_3 = 9 pi^2, all three above gamma_1
RESONANCE_CASES = {
    "below": lambda g3: g3 * (1.0 - 1e-6),
    "within": lambda g3: g3 * (1.0 - 1e-12),  # inside nonpositive_modes' zero tolerance
    "equal": lambda g3: g3,
    "above": lambda g3: 10.0 * np.pi**2,
}


@pytest.mark.parametrize("case", sorted(RESONANCE_CASES))
def test_diagonal_sup_resonant_zero(basis, case):
    # the supremum is 0 exactly when mode m is a nonpositive mode for kbar, and positive otherwise
    g = basis.eigenvalues
    kbar = RESONANCE_CASES[case](float(g[2]))
    assert g[0] <= kbar < g[3]
    sup = diagonal_sup(params_with(kappa1=kbar, kappa2=kbar), 3, basis)
    if case == "below":
        assert sup > 0.0
    else:
        assert sup == 0.0


def test_diagonal_sup_starts_from_the_modes_outside_tilde(basis, monkeypatch):
    # kbar = gamma_2 (1 - 1e-12) leaves mode 2 a positive shift, but inside
    # the zero tolerance it is a zero mode of X~, so no start comes from it:
    # the m - |X~| = 1 mode start and the 4 random ones run
    runs = []
    original = nehari.trust_region_min

    def counting(*args, **options):
        runs.append(1)
        return original(*args, **options)

    monkeypatch.setattr(nehari, "trust_region_min", counting)
    kbar = float(basis.eigenvalues[1]) * (1.0 - 1e-12)
    assert diagonal_sup(params_with(kappa1=kbar, kappa2=kbar), 3, basis) > 0.0
    assert len(runs) == (3 - 2) + 4


def test_diagonal_sup_decreasing_in_lambda(basis):
    pr = params_with()
    vals = [sup_at(pr, 3, basis, l) for l in np.geomspace(0.5, 50.0, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_coupling_threshold_contract(basis, config):
    pr = params_with()
    th = semitrivial_threshold(pr, basis, config)
    lam_bar = coupling_threshold(pr, th.c0, diagonal_sup(pr, 3, basis))
    hi = sup_at(pr, 3, basis, 1.01 * lam_bar)
    lo = sup_at(pr, 3, basis, 0.99 * lam_bar)
    assert hi < th.c0 <= lo


@pytest.mark.parametrize("case", sorted(RESONANCE_CASES))
def test_coupling_threshold_resonant_zero(basis, case):
    # lambda_bar is 0 exactly in the resonant cases; below resonance a c0
    # under the supremum puts it above the current coupling
    kbar = RESONANCE_CASES[case](float(basis.eigenvalues[2]))
    pr = params_with(kappa1=kbar, kappa2=kbar)
    sup = diagonal_sup(pr, 3, basis)
    if case == "below":
        assert coupling_threshold(pr, 0.25 * sup, sup) > pr.lam
    else:
        assert coupling_threshold(pr, 1.0, sup) == 0.0


def test_coupling_threshold_monotone_in_m(basis, config):
    pr = params_with()
    th = semitrivial_threshold(pr, basis, config)
    lams = [coupling_threshold(pr, th.c0, diagonal_sup(pr, m, basis)) for m in (1, 2, 3)]
    assert lams[0] <= lams[1] * 1.01 and lams[1] <= lams[2] * 1.01


def test_coupling_threshold_bracket_failure(basis, monkeypatch):
    from sinesolve import nehari

    monkeypatch.setattr(nehari, "LAMBDA_BAR_RANGE", (1e-6, 10.0))
    pr = params_with()
    with pytest.raises(BracketFailureError, match="already below"):
        coupling_threshold(pr, 1e6, diagonal_sup(pr, 1, basis))


def test_coupling_threshold_bracket_failure_above_lam_hi(basis, monkeypatch):
    from sinesolve import nehari

    # c0 far under the supremum puts lambda-bar near 1.6e4, above the range
    monkeypatch.setattr(nehari, "LAMBDA_BAR_RANGE", (1e-6, 10.0))
    pr = params_with()
    with pytest.raises(BracketFailureError, match="lies above"):
        coupling_threshold(pr, 1e-3, diagonal_sup(pr, 1, basis))


def test_coupling_threshold_exact(basis, config):
    pr = params_with()
    th = semitrivial_threshold(pr, basis, config)
    lam_bar = coupling_threshold(pr, th.c0, diagonal_sup(pr, 3, basis))
    assert sup_at(pr, 3, basis, lam_bar) == pytest.approx(th.c0, rel=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    lam=st.floats(1e-3, 1e3),
    alpha=st.floats(1.1, 3.0),
    beta=st.floats(1.1, 3.0),
    k1=st.floats(0.0, 0.95),
    k2=st.floats(0.0, 0.95),
    m=st.integers(1, 4),
)
def test_diagonal_sup_lambda_law(basis, lam, alpha, beta, k1, k2, m):
    # kappa_i below gamma_m, so the supremum is positive
    gamma_m = basis.eigenvalues[m - 1]
    pr = params_with(kappa1=k1 * gamma_m, kappa2=k2 * gamma_m, alpha=alpha, beta=beta)
    sup1 = diagonal_sup(pr, m, basis)  # at pr.lam = 1
    direct = sup_at(pr, m, basis, lam)
    assert rescale_diagonal_sup(pr, sup1, lam) == pytest.approx(direct, rel=1e-10)


def _diagonal_ray_values(pr, basis, thetas):
    """2 J at the ray maximum through each direction (cos t, sin t) of the first two modes."""
    prob = nehari._diag_problem(pr, pr.lam, basis)
    out = []
    for t in thetas:
        c = np.zeros(basis.size)
        c[:2] = np.cos(t), np.sin(t)
        out.append(2.0 * prob.energy(project_ray(prob, c)))
    return np.array(out)


def test_diagonal_sup_near_p2_takes_few_steps_per_start(basis, monkeypatch):
    # at p = 2.2 the maximizers lie at norms near 1e8: a trust radius that
    # starts at each start's norm reaches them in at most 22 Hessians here,
    # where a unit radius spent a 500-step budget on every random start
    hessians = []
    original = nehari.trust_region_min

    def counting(fun, grad, hess, x0, **options):
        hessians.append(0)

        def counted(c):
            hessians[-1] += 1
            return hess(c)

        return original(fun, grad, counted, x0, **options)

    monkeypatch.setattr(nehari, "trust_region_min", counting)
    for m in (2, 4):
        hessians.clear()
        pr = params_with(alpha=1.1, beta=1.1)
        sup = diagonal_sup(pr, m, basis)
        assert len(hessians) == m + 4  # the m mode starts and 4 random ones
        assert max(hessians) <= 30
        # each start converges: the exact coupling law holds to 1e-10
        doubled = dataclasses.replace(pr, lam=2.0)
        assert rescale_diagonal_sup(doubled, diagonal_sup(doubled, m, basis), 1.0) == pytest.approx(sup, rel=1e-10)


def test_diagonal_sup_from_a_zero_gradient_start(basis):
    # the Nehari point of mode 2 is a critical point of the diagonal
    # functional on span(e_1, e_2) (by the x -> 1 - x symmetry), and here
    # its maximizer; starting there ends with no error, and the supremum is
    # the largest ray maximum over the directions of that plane
    pr = params_with(alpha=1.25, beta=1.25, lam=1.25)
    prob = nehari._diag_problem(pr, pr.lam, basis)
    start = project_ray(prob, np.eye(basis.size)[1])
    assert np.linalg.norm(prob.gradient(start)[:2]) < 1e-10 * np.linalg.norm(start)
    sup = diagonal_sup(pr, 2, basis)
    assert 2.0 * prob.energy(start) == pytest.approx(sup, rel=1e-12)
    best = _diagonal_ray_values(pr, basis, np.linspace(0.0, np.pi, 20001)).max()
    assert best <= sup * (1.0 + 1e-12)
    assert sup == pytest.approx(best, rel=1e-6)


def test_ground_state_convergence_failure(basis, monkeypatch):
    # an unreachable tolerance forces every seed to be rejected
    monkeypatch.setattr(nehari, "NEWTON_TOL", 1e-30)
    pr = params_with(lam=50.0)
    cfg = SolverConfig(n_mode_seeds=1, n_random_seeds=1)
    from sinesolve.errors import ConvergenceFailureError
    from sinesolve.nehari import ThresholdResult, ScalarGroundState
    fake_scalar = ScalarGroundState(w=np.zeros(basis.size), energy=1.0, grad_norm=0.0, b_value=1.0)
    th = ThresholdResult(scalar_states=(fake_scalar, fake_scalar), scalar_solves=0)
    with pytest.raises(ConvergenceFailureError) as failure:
        ground_state(pr, basis, cfg, th)
    # the two mode seeds and the random one reach Newton; the four crosses
    # of the zero scalar states have no positive part
    diagnostics = failure.value.diagnostics
    assert diagnostics.count("did not converge") == 3
    assert diagnostics.count("no positive part") == 4
    assert len(diagnostics) == 7


def test_least_energy_names_each_converged_seed_it_drops(basis, monkeypatch):
    # a seed that converges to the zero point has energy 0
    monkeypatch.setattr(nehari, "_converge_seed", lambda engine, z0: (np.zeros_like(z0), ""))
    with pytest.raises(ConvergenceFailureError) as failure:
        _least_energy(GalerkinSystem(params_with(), basis), [e1_pair(basis)] * 2)
    assert failure.value.diagnostics == [NONPOSITIVE_ENERGY] * 2
    # at kappa = gamma_1 (1 - 1e-10) mode 1 is a zero mode, in the nonpositive
    # subspace, but its quadratic form is positive: a small point on it has
    # positive energy and no positive part, at every scale
    kappa = basis.eigenvalues[0] * (1.0 - 1e-10)
    engine = GalerkinSystem(params_with(kappa1=kappa, kappa2=kappa), basis)
    e1 = np.eye(basis.size)[0]
    for size in (1e-6, 1e-12):
        inside = size * np.concatenate([e1, e1])
        assert engine.energy(inside) > 0.0
        monkeypatch.setattr(nehari, "_converge_seed", lambda engine, z0: (inside, ""))
        with pytest.raises(ConvergenceFailureError) as failure:
            _least_energy(engine, [e1_pair(basis)] * 2)
        assert failure.value.diagnostics == [NO_POSITIVE_PART] * 2


def test_scalar_ground_state_records_seeds_without_positive_part(basis):
    # above gamma_20 every mode is nonpositive, so no seed has a ray to the
    # Nehari set; each is dropped for that reason, not as unconverged
    pr = params_with(kappa1=1.01 * basis.eigenvalues[-1])
    from sinesolve.errors import ConvergenceFailureError

    with pytest.raises(ConvergenceFailureError) as failure:
        scalar_ground_state(basis, pr.kappa1, pr.p, SolverConfig(n_mode_seeds=2, n_random_seeds=2))
    assert len(failure.value.diagnostics) == 6  # max(2, 4) mode seeds and 2 random ones
    assert set(failure.value.diagnostics) == {"no positive part"}


def test_residuals_vanish_at_converged_critical_point(basis, config):
    # every exact Galerkin critical point lies on the generalized Nehari set
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    gs = ground_state(pr, basis, config, semitrivial_threshold(pr, basis, config))
    res = nehari_residuals(GalerkinSystem(pr, basis), gs.z)
    assert res.max_abs < 1e-8


def test_newton_builds_one_hessian_per_step(basis24, monkeypatch):
    # plain damped Newton: each step builds one Hessian (or deflated
    # Jacobian) at an accepted point whose gradient it already has, each
    # point's gradient is asked once, and the converged end builds none.  The
    # first mode lies in the nonpositive subspace at kappa = 15 > gamma_1, and
    # its projection is the trivial root, so start from the next two modes
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    engine = GalerkinSystem(pr, basis24)
    e2, e3 = (np.eye(basis24.size)[j] for j in (1, 2))
    z0, w0 = (project_general(engine, np.concatenate([e, e])) for e in (e2, e3))
    gradient = engine.gradient
    _, asked = _count_point_work(monkeypatch, engine)
    z, ok = newton_polish(engine, z0)
    polish = {name: list(points) for name, points in asked.items()}
    w = _deflated_root(engine, w0, [np.zeros_like(z), z])
    deflated = {name: points[len(polish[name]):] for name, points in asked.items()}
    assert ok and ok == (np.linalg.norm(gradient(z)) <= NEWTON_TOL)
    assert np.linalg.norm(gradient(w)) <= NEWTON_TOL and orbit_distance(w, z) > 0.1
    for run, end in ((polish, z), (deflated, w)):
        steps, points = run["hessian"], run["gradient"]
        assert steps and len(set(steps)) == len(steps)
        assert len(set(points)) == len(points) and set(steps) <= set(points)
        assert points[-1] == end.tobytes() and end.tobytes() not in steps


def test_ground_state_skips_seeds_without_positive_part(basis24, monkeypatch):
    # at kappa = 15 > gamma_1 the seeds (e_1, +-e_1) lie in the nonpositive
    # subspace, where the ray-plus-tilde maximum is the zero vector
    from sinesolve import nehari

    projected = []
    original = nehari.project_general

    def recording(engine, z):
        projected.append(z.copy())
        return original(engine, z)

    monkeypatch.setattr(nehari, "project_general", recording)
    cfg = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    gs = ground_state(pr, basis24, cfg, semitrivial_threshold(pr, basis24, cfg))
    e1 = np.eye(basis24.size)[0]
    inside = [np.concatenate([e1, s * e1]) for s in (1.0, -1.0)]
    system = [z for z in projected if z.size == 2 * basis24.size]
    assert system and not any(np.array_equal(z, w) for z in system for w in inside)
    assert gs.energy > 0.0


def _sign_images(deflate):
    # the stack `_deflated_root` builds once per run: four rows per point
    return np.array([img for zi in deflate for img in sign_orbit(zi)])


def test_deflation_factor_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(10)
    images = _sign_images([np.zeros(10), z + 0.5 * rng.standard_normal(10)])
    eta, grad_eta = _deflation_factor(z, images)
    h = 1e-6

    def eta_at(x):
        return _deflation_factor(x, images)[0]

    fd = np.array([(eta_at(z + h * e) - eta_at(z - h * e)) / (2 * h) for e in np.eye(z.size)])
    assert eta > 1.0
    np.testing.assert_allclose(grad_eta, fd, rtol=1e-7, atol=1e-9 * np.abs(fd).max())


def _deflation_cases():
    rng = np.random.default_rng(29)
    for n in (10, 48):
        for i in range(5):
            z = rng.standard_normal(n)
            deflate = [np.zeros(n), *(z + s * rng.standard_normal(n) for s in (0.3, 1.0, 3.0))]
            yield pytest.param(z, deflate, id=f"random-{n}-{i}")
    m = 12
    z = rng.standard_normal(2 * m)
    w = rng.standard_normal(2 * m)
    w[m:] = 0.0  # a point with zero second component: its images tie in pairs
    yield pytest.param(z, [np.zeros(2 * m), w], id="tied-images")
    # z with zero second component ties the distances to (u1, +-u2)
    yield pytest.param(np.concatenate([z[:m], np.zeros(m)]), [np.zeros(2 * m), z], id="tied-distances")
    # within the 1e-13 distance floor of a deflated point and of its mirror image
    near = z + 1e-14 * rng.standard_normal(2 * m)
    mirror = np.concatenate([-z[:m], z[m:]])
    yield pytest.param(near, [np.zeros(2 * m), w, z], id="floor")
    yield pytest.param(near, [np.zeros(2 * m), mirror], id="floor-mirror")


@pytest.mark.parametrize("z, deflate", list(_deflation_cases()))
def test_deflation_factor_matches_per_point_oracle(z, deflate, reference_deflation_factor):
    # the stacked images give the per-point factor's bits: the same z - img,
    # the same sqrt(r . r), and the first of tied images
    eta, grad_eta = _deflation_factor(z, _sign_images(deflate))
    want_eta, want_grad = reference_deflation_factor(z, deflate)
    assert np.float64(eta).tobytes() == np.float64(want_eta).tobytes()
    assert grad_eta.tobytes() == want_grad.tobytes()


def _count_point_work(monkeypatch, engine):
    """Count field syntheses, projections and Hessian blocks, and record the
    points at which `engine` is asked for gradients and Hessians."""
    energy_module = importlib.import_module("sinesolve.energy")
    work = {"synthesize": 0, "project": 0, "mode_mass_matrix": 0}
    asked = {"gradient": [], "hessian": []}
    for name in work:

        def counting(*args, _name=name, _original=getattr(energy_module, name)):
            work[_name] += 1
            return _original(*args)

        monkeypatch.setattr(energy_module, name, counting)
    for name in asked:

        def recording(z, _name=name, _method=getattr(engine, name)):
            asked[_name].append(z.tobytes())
            return _method(z)

        monkeypatch.setattr(engine, name, recording)
    return work, asked


@pytest.fixture(scope="module")
def indefinite24(basis24):
    # a converged nontrivial point of the 1-D K=24 box with kappa = 15 > gamma_1
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    engine = GalerkinSystem(pr, basis24)
    e2 = np.eye(basis24.size)[1]
    w0 = project_general(engine, np.concatenate([e2, e2]))
    z, ok = newton_polish(engine, _deflated_root(engine, w0, [np.zeros_like(w0)]))
    assert ok and np.linalg.norm(z) > 0.1
    return pr, w0, z


def test_newton_evaluates_each_point_once(basis24, indefinite24, monkeypatch):
    # a converged start costs one gradient and no Hessian; from the projected
    # start the fields of each point are built once, for its gradient and,
    # at each step, its Hessian
    pr, w0, z = indefinite24
    engine = GalerkinSystem(pr, basis24)
    work, asked = _count_point_work(monkeypatch, engine)
    _, ok = newton_polish(engine, z)
    assert ok
    assert asked == {"gradient": [z.tobytes()], "hessian": []}
    assert work == {"synthesize": 2, "project": 2, "mode_mass_matrix": 0}
    engine = GalerkinSystem(pr, basis24)
    work, asked = _count_point_work(monkeypatch, engine)
    _, ok = newton_polish(engine, w0)
    assert ok and asked["hessian"]
    points = set(asked["gradient"]) | set(asked["hessian"])
    assert work["synthesize"] == 2 * len(points)
    assert work["project"] == 2 * len(set(asked["gradient"]))
    assert work["mode_mass_matrix"] == 3 * len(set(asked["hessian"]))


def test_deflated_jacobian_reuses_the_residual_gradient(basis24, indefinite24, monkeypatch):
    pr, w0, _ = indefinite24
    engine = GalerkinSystem(pr, basis24)
    work, asked = _count_point_work(monkeypatch, engine)
    w = _deflated_root(engine, w0, [np.zeros_like(w0)])
    assert np.linalg.norm(w) > 0.1 and asked["hessian"]
    # every Jacobian is built where the residual was just taken, from its gradient
    assert set(asked["hessian"]) <= set(asked["gradient"])
    points = set(asked["gradient"])
    assert len(points) == len(asked["gradient"])
    assert work["synthesize"] == 2 * len(points)
    assert work["project"] == 2 * len(points)
    assert work["mode_mass_matrix"] == 3 * len(set(asked["hessian"]))


@pytest.mark.parametrize("lengths, cutoffs, kappa", [((1.0,), (24,), 15.0), ((1.0, 1.0), (8, 8), 25.0)],
                         ids=["1d-k24", "2d-8x8"])
def test_mirror_mode_seeds_converge_to_the_exact_sign_image(lengths, cutoffs, kappa):
    # the energy is even in u_2 and every step of the projection and Newton
    # commutes with flipping it, so the seed (e_j, -e_j) ends at the sign
    # image of where (e_j, e_j) ends, byte for byte; e_1 spans X^- on both
    # boxes, so that pair is dropped both times
    basis = SineBasis(BoxDomain(lengths), cutoffs)
    engine = GalerkinSystem(params_with(kappa1=kappa, kappa2=kappa, lam=50.0, dim=len(lengths)), basis)
    m = basis.size
    for j in range(3):
        e = np.eye(m)[j]
        z, dropped = _converge_seed(engine, np.concatenate([e, e]))
        mirror, mirror_dropped = _converge_seed(engine, np.concatenate([e, -e]))
        assert mirror_dropped == dropped and (z is None) == (j == 0)
        if z is not None:
            assert np.concatenate([z[:m], -z[m:]]).tobytes() == mirror.tobytes()
