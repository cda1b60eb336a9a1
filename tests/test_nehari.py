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
    PairField,
    QuadratureGrid,
    ScalarField,
    ScalarProblem,
    SineBasis,
    SolverConfig,
    SystemParams,
    classify,
    coupling_threshold,
    diagonal_sup,
    ground_state,
    multiplicity_search,
    nehari_project,
    nehari_residuals,
    orbit_dedup,
    rescale_diagonal_sup,
    scalar_ground_state,
    semitrivial_threshold,
    spectral_split,
    sphere_infimum,
    unit_mode,
)
from sinesolve.energy import sign_orbit
from sinesolve.errors import (
    BracketFailureError,
    ClassificationContradictionError,
    NoProjectionError,
    PreconditionError,
)
from sinesolve.nehari import (
    _deflated_root,
    _deflation_factor,
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


@pytest.fixture(scope="module")
def grid(basis, config):
    return config.make_grid(basis)


def params_with(**kw):
    base = dict(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=1)
    base.update(kw)
    return SystemParams(**base)


def e1_pair(basis):
    return PairField(unit_mode(basis, 0), ScalarField(basis, np.zeros(basis.size)))


# -- residuals and projection -----------------------------------------------------


def test_ray_residual_unscaled(basis, grid):
    pr = params_with()
    split = spectral_split(pr, basis)
    res = nehari_residuals(e1_pair(basis), pr, split, grid)
    assert res.ray == pytest.approx(np.pi**2 - 1.5, rel=1e-10)


def test_residuals_vanish_at_projection(basis, grid):
    pr = params_with()
    split = spectral_split(pr, basis)
    proj = nehari_project(e1_pair(basis), pr, split, grid)
    res = nehari_residuals(proj, pr, split, grid)
    assert abs(res.ray) < 1e-10


def test_residuals_inside_tilde_rejected(basis, grid):
    pr = params_with(kappa1=15.0, kappa2=15.0)
    split = spectral_split(pr, basis)
    u = e1_pair(basis)  # mode 1 is the negative direction at kappa = 15
    with pytest.raises(PreconditionError):
        nehari_residuals(u, pr, split, grid)


def test_projection_closed_form(basis, grid):
    pr = params_with()
    split = spectral_split(pr, basis)
    proj = nehari_project(e1_pair(basis), pr, split, grid)
    t_star = np.sqrt(np.pi**2 / 1.5)
    assert proj.u1.coeffs[0] == pytest.approx(t_star, rel=1e-10)
    eng = GalerkinSystem(pr, basis, grid)
    assert eng.energy(proj.coeffs()) == pytest.approx(np.pi**4 / 6, rel=1e-10)


def test_projection_scale_free(basis, grid):
    pr = params_with()
    split = spectral_split(pr, basis)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(2 * basis.size)
    u = PairField.from_coeffs(basis, z)
    v = PairField.from_coeffs(basis, 3.7 * z)
    p1 = nehari_project(u, pr, split, grid).coeffs()
    p2 = nehari_project(v, pr, split, grid).coeffs()
    np.testing.assert_allclose(p1, p2, rtol=1e-12, atol=1e-12)


def test_projection_rejects_point_without_plus_part(basis, grid):
    # e1 is the negative direction at kappa = 15, so the e1 pair has no
    # positive part and cannot be projected
    pr = params_with(kappa1=15.0, kappa2=15.0)
    split = spectral_split(pr, basis)
    with pytest.raises(PreconditionError):
        nehari_project(e1_pair(basis), pr, split, grid)


def test_projection_noprojection_error():
    # 1-D with kappa over every eigenvalue of a tiny truncation: B < 0 on all rays
    basis = SineBasis(BoxDomain((1.0,)), (2,))
    pr = params_with(kappa1=60.0, kappa2=60.0)
    # force the definite path by building a split that reports no tilde modes
    split = spectral_split(params_with(kappa1=0.0, kappa2=0.0), basis)
    with pytest.raises(NoProjectionError):
        nehari_project(e1_pair(basis), pr, split)


def test_general_projection_with_tilde(basis, grid):
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=5.0)
    split = spectral_split(pr, basis)
    rng = np.random.default_rng(1)
    z = np.zeros(2 * basis.size)
    z[:6] = rng.standard_normal(6)
    z[basis.size : basis.size + 6] = rng.standard_normal(6)
    proj = nehari_project(PairField.from_coeffs(basis, z), pr, split, grid)
    res = nehari_residuals(proj, pr, split, grid)
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
def test_project_ray_property(basis, grid, kappa1, kappa2, mu1, mu2, lam, alpha, beta, seed, c, h):
    # kappa below gamma_1 = pi^2: the box is definite and every ray meets the Nehari set once
    pr = params_with(kappa1=kappa1, kappa2=kappa2, mu1=mu1, mu2=mu2, lam=lam, alpha=alpha, beta=beta)
    eng = GalerkinSystem(pr, basis, grid)
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
    ids = orbit_dedup([z, flipped, 1.1 * z, z.copy()], tol=1e-4)
    assert ids[0] == ids[1] == ids[3]
    assert ids[2] != ids[0]


def test_orbit_closure_of_critical_points(basis, grid, config):
    pr = params_with(lam=50.0)
    split = spectral_split(pr, basis)
    th = semitrivial_threshold(pr, basis, grid, config)
    gs = ground_state(pr, basis, split, config, grid, th)
    eng = GalerkinSystem(pr, basis, grid)
    z = gs.u.coeffs()
    for img in sign_orbit(z):
        pt = evaluate_point(eng, img, config)
        assert pt.energy == pytest.approx(gs.energy, abs=1e-12 * max(abs(gs.energy), 1.0))
        assert pt.grad_norm == pytest.approx(gs.grad_norm, abs=1e-12)
        assert pt.classification == gs.classification


# -- scalar states and classification ----------------------------------------------


def test_scalar_threshold_symmetric(basis, grid, config):
    th = semitrivial_threshold(params_with(lam=50.0), basis, grid, config)
    s1, s2 = th.scalar_states
    assert s1.energy == pytest.approx(s2.energy, rel=1e-9)
    # the first-mode ray value is an upper bound for the scalar ground energy
    assert th.c0 <= np.pi**4 / 6 + 1e-9


def test_scalar_threshold_monotone_in_mu(basis, grid, config):
    e = []
    for mu in (1.0, 2.0):
        s = scalar_ground_state(params_with(mu1=mu), 1, basis, grid, config)
        e.append(s.energy)
    assert e[1] < e[0]


@pytest.mark.parametrize("kappa2, searches", [(0.0, 1), (5.0, 2)])
def test_semitrivial_threshold_one_search_per_kappa(basis, grid, monkeypatch, kappa2, searches):
    from sinesolve import nehari

    calls = []
    original = nehari.scalar_ground_state

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(nehari, "scalar_ground_state", counting)
    cfg = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    th = semitrivial_threshold(params_with(kappa2=kappa2, mu2=2.0), basis, grid, cfg)
    assert len(calls) == searches
    assert th.scalar_solves == searches
    assert th.c0 == min(s.energy for s in th.scalar_states)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.1, 10.0),
    kappa=st.sampled_from([0.0, 5.0, 15.0, 45.0]),
    i=st.sampled_from([1, 2]),
    via_params=st.booleans(),
)
def test_scalar_ground_state_mu_scaling(basis, grid, mu, kappa, i, via_params):
    # the state scaled from the unit-coefficient search is a critical point
    # of the mu-problem, with the energy and quadratic form that problem gives
    pr = params_with(**{f"kappa{i}": kappa, f"mu{i}": mu if via_params else 1.0})
    cfg = SolverConfig(n_mode_seeds=2, n_random_seeds=0)
    state = scalar_ground_state(pr, i, basis, grid, cfg, mu=None if via_params else mu)
    prob = ScalarProblem(pr, i, basis, grid, mu=mu)
    w = state.w.coeffs
    assert np.linalg.norm(prob.gradient(w)) <= 1e-9
    assert prob.energy(w) == pytest.approx(state.energy, rel=1e-12)
    assert prob.quadratic(w) == pytest.approx(state.b_value, rel=1e-12)


def test_classify_semitrivial(basis, grid, config):
    pr = params_with(lam=50.0)
    th = semitrivial_threshold(pr, basis, grid, config)
    eng = GalerkinSystem(pr, basis, grid)
    z = np.concatenate([th.scalar_states[0].w.coeffs, np.zeros(basis.size)])
    pt = evaluate_point(eng, z, config)
    assert pt.classification == "semitrivial-1"
    assert pt.energy >= th.c0 - 1e-9
    assert classify(pt, th.c0, pr) == "semitrivial-1"


def test_classify_trivial(basis, grid, config):
    pr = params_with()
    eng = GalerkinSystem(pr, basis, grid)
    pt = evaluate_point(eng, np.zeros(2 * basis.size), config)
    assert pt.classification == "trivial"


def test_classify_contradiction(basis, grid, config):
    pr = params_with(lam=50.0)
    eng = GalerkinSystem(pr, basis, grid)
    pt = evaluate_point(eng, np.zeros(2 * basis.size), config)
    fake = dataclasses.replace(pt, energy=1.0, grad_norm=0.0)
    with pytest.raises(ClassificationContradictionError):
        classify(fake, 10.0, pr)


# -- ground state and multiplicity --------------------------------------------------


def test_ground_state_definite(basis, grid, config):
    pr = params_with(lam=50.0)
    split = spectral_split(pr, basis)
    th = semitrivial_threshold(pr, basis, grid, config)
    gs = ground_state(pr, basis, split, config, grid, th)
    assert gs.grad_norm < 1e-8
    assert 0.0 < gs.energy < th.c0
    assert gs.classification == "fully-nontrivial"
    assert gs.below_threshold
    # energy identity at critical points
    assert gs.energy == pytest.approx((0.5 - 1.0 / pr.p) * gs.b_value, rel=1e-6)
    # positivity bound along the Nehari set
    eng = GalerkinSystem(pr, basis, grid)
    m1, m2, _ = eng.power_masses(gs.u.coeffs())
    assert gs.energy >= (0.5 - 1.0 / pr.p) * (pr.mu1 * m1 + pr.mu2 * m2) - 1e-9


@pytest.fixture(scope="module")
def box24():
    basis24 = SineBasis(BoxDomain((1.0,)), (24,))
    return basis24, SolverConfig().make_grid(basis24)


@pytest.mark.parametrize("kind", ["system", "scalar"])
def test_descent_from_first_mode_is_short(box24, config, kind):
    # Sobolev-preconditioned steps: a handful of gradients where plain
    # 1/gamma_max steps took hundreds (system) or hit the 400-step cap (scalar)
    basis24, grid24 = box24
    pr = params_with(lam=50.0)
    e1 = unit_mode(basis24, 0).coeffs
    if kind == "system":
        engine, z0 = GalerkinSystem(pr, basis24, grid24), np.concatenate([e1, e1])
    else:
        engine, z0 = ScalarProblem(pr, 1, basis24, grid24), e1
    gradient, calls = engine.gradient, []

    def counting(z):
        calls.append(1)
        return gradient(z)

    engine.gradient = counting
    z = nehari_descent(engine, z0, config)
    assert np.linalg.norm(gradient(z)) < config.descent_switch_tol
    assert len(calls) <= 20


def test_ground_state_definite_default_seeds(box24):
    basis24, grid24 = box24
    gs = ground_state(params_with(lam=50.0), basis24, config=SolverConfig(), grid=grid24)
    assert gs.energy == pytest.approx(0.312001188332069, abs=1e-12)


def test_ground_state_indefinite(basis, grid, config):
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    split = spectral_split(pr, basis)
    th = semitrivial_threshold(pr, basis, grid, config)
    gs = ground_state(pr, basis, split, config, grid, th)
    assert gs.grad_norm < 1e-8
    assert 0.0 < gs.energy < th.c0
    assert gs.classification == "fully-nontrivial"
    assert 0.0 < gs.b_value < th.min_b


def test_multiplicity_orbits(basis, grid, config):
    pr = params_with(lam=200.0)
    split = spectral_split(pr, basis)
    th = semitrivial_threshold(pr, basis, grid, config)
    pts = multiplicity_search(pr, basis, k=2, budget=30, split=split, config=config, grid=grid, threshold=th)
    assert len(pts) >= 2
    ids = orbit_dedup([p.u for p in pts], tol=1e-4)
    assert len(set(ids)) == len(pts)
    for p in pts:
        assert 0.0 < p.energy < th.c0
        assert p.classification == "fully-nontrivial"
        assert 0.0 < p.b_value < th.min_b


def test_multiplicity_small_lambda_best_effort(basis, grid, config):
    # with weak coupling no orbit may fall below the threshold; empty is legal
    pr = params_with(lam=1e-3)
    split = spectral_split(pr, basis)
    th = semitrivial_threshold(pr, basis, grid, config)
    pts = multiplicity_search(pr, basis, k=1, budget=6, split=split, config=config, grid=grid, threshold=th)
    for p in pts:
        assert 0.0 < p.energy < th.c0


# -- linking geometry ---------------------------------------------------------------


def test_sphere_infimum_quadratic_coefficient(basis, grid):
    pr = params_with(kappa1=3.0, kappa2=5.0)
    rhos = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    vals = np.array([sphere_infimum(pr, basis, r, budget=150, grid=grid) for r in rhos])
    coef = np.polyfit(rhos**2, vals, 1)[0]
    expected = 0.5 * min(np.pi**2 - 3.0, np.pi**2 - 5.0)
    assert coef == pytest.approx(expected, rel=0.10)
    assert np.all(vals > 0.0)


def test_sphere_infimum_running_minimum(basis, grid):
    pr = params_with(kappa1=3.0, kappa2=5.0)
    v_small = sphere_infimum(pr, basis, 0.5, budget=40, grid=grid)
    v_large = sphere_infimum(pr, basis, 0.5, budget=160, grid=grid)
    assert v_large <= v_small + 1e-12


def test_diagonal_sup_ray_value(basis, grid):
    val = diagonal_sup(params_with(), 1, lam=1.0, basis=basis, grid=grid)
    assert val == pytest.approx(np.pi**4 / 9, rel=1e-10)


def test_diagonal_sup_resonant_zero(basis, grid):
    pr = params_with(kappa1=9 * np.pi**2, kappa2=9 * np.pi**2)
    assert diagonal_sup(pr, 3, lam=1.0, basis=basis, grid=grid) == 0.0


def test_diagonal_sup_decreasing_in_lambda(basis, grid):
    pr = params_with()
    vals = [diagonal_sup(pr, 3, lam=l, basis=basis, grid=grid) for l in np.geomspace(0.5, 50.0, 6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_coupling_threshold_contract(basis, grid, config):
    pr = params_with()
    th = semitrivial_threshold(pr, basis, grid, config)
    lam_bar = coupling_threshold(pr, 3, th.c0, basis, grid)
    hi = diagonal_sup(pr, 3, lam=1.01 * lam_bar, basis=basis, grid=grid)
    lo = diagonal_sup(pr, 3, lam=0.99 * lam_bar, basis=basis, grid=grid)
    assert hi < th.c0 <= lo


def test_coupling_threshold_resonant_zero(basis, grid):
    pr = params_with(kappa1=9 * np.pi**2, kappa2=9 * np.pi**2)
    assert coupling_threshold(pr, 3, 1.0, basis, grid) == 0.0


def test_coupling_threshold_monotone_in_m(basis, grid, config):
    pr = params_with()
    th = semitrivial_threshold(pr, basis, grid, config)
    lams = [coupling_threshold(pr, m, th.c0, basis, grid) for m in (1, 2, 3)]
    assert lams[0] <= lams[1] * 1.01 and lams[1] <= lams[2] * 1.01


def test_coupling_threshold_bracket_failure(basis, grid):
    with pytest.raises(BracketFailureError):
        coupling_threshold(params_with(), 1, 1e6, basis, grid, lam_lo=1e-6, lam_hi=10.0)


def test_coupling_threshold_bracket_failure_above_lam_hi(basis, grid):
    # c0 far under the supremum puts lambda-bar near 1.6e4, above lam_hi
    with pytest.raises(BracketFailureError):
        coupling_threshold(params_with(), 1, 1e-3, basis, grid, lam_lo=1e-6, lam_hi=10.0)


def test_coupling_threshold_exact(basis, grid, config):
    pr = params_with()
    th = semitrivial_threshold(pr, basis, grid, config)
    lam_bar = coupling_threshold(pr, 3, th.c0, basis, grid)
    assert diagonal_sup(pr, 3, lam=lam_bar, basis=basis, grid=grid) == pytest.approx(th.c0, rel=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    lam=st.floats(1e-3, 1e3),
    alpha=st.floats(1.1, 3.0),
    beta=st.floats(1.1, 3.0),
    k1=st.floats(0.0, 0.95),
    k2=st.floats(0.0, 0.95),
    m=st.integers(1, 4),
)
def test_diagonal_sup_lambda_law(basis, grid, lam, alpha, beta, k1, k2, m):
    # kappa_i below gamma_m, so the supremum is positive
    gamma_m = basis.eigenvalues[m - 1]
    pr = params_with(kappa1=k1 * gamma_m, kappa2=k2 * gamma_m, alpha=alpha, beta=beta)
    sup1 = diagonal_sup(pr, m, lam=1.0, basis=basis, grid=grid)
    direct = diagonal_sup(pr, m, lam=lam, basis=basis, grid=grid)
    assert rescale_diagonal_sup(pr, sup1, 1.0, lam) == pytest.approx(direct, rel=1e-10)


def test_ground_state_convergence_failure(basis, grid):
    # an unreachable tolerance forces every seed to be rejected
    pr = params_with(lam=50.0)
    split = spectral_split(pr, basis)
    cfg = SolverConfig(tol=1e-30, n_mode_seeds=1, n_random_seeds=1)
    from sinesolve.errors import ConvergenceFailureError
    from sinesolve.nehari import ThresholdResult, ScalarGroundState
    from sinesolve import ScalarField
    fake_scalar = ScalarGroundState(
        w=ScalarField(basis, np.zeros(basis.size)), energy=1.0, grad_norm=0.0, b_value=1.0
    )
    th = ThresholdResult(c0=1.0, scalar_states=(fake_scalar, fake_scalar))
    with pytest.raises(ConvergenceFailureError):
        ground_state(pr, basis, split, cfg, grid, th)


def test_residuals_vanish_at_converged_critical_point(basis, grid, config):
    # every exact Galerkin critical point lies on the generalized Nehari set
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    split = spectral_split(pr, basis)
    gs = ground_state(pr, basis, split, config, grid)
    res = nehari_residuals(gs.u, pr, split, grid)
    assert res.max_abs < 1e-8


def test_newton_builds_hessians_on_demand(box24, config):
    # MINPACK asks for the Hessian at the start and after its Broyden updates
    # stall, so a Newton solve builds far fewer Hessians than gradients
    basis24, grid24 = box24
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    engine = GalerkinSystem(pr, basis24, grid24)
    t_idx = engine.tilde_indices(spectral_split(pr, basis24))
    e1, e2 = (unit_mode(basis24, j).coeffs for j in (0, 1))
    gradient, hessian, calls = engine.gradient, engine.hessian, {"gradient": 0, "hessian": 0}

    def counting(name, fn):
        def wrapped(z):
            calls[name] += 1
            return fn(z)

        return wrapped

    z0, w0 = (project_general(engine, np.concatenate([e, e]), t_idx) for e in (e1, e2))
    engine.gradient, engine.hessian = counting("gradient", gradient), counting("hessian", hessian)
    z, ok = newton_polish(engine, z0, config.tol)
    w = _deflated_root(engine, w0, [np.zeros_like(z), z], config)
    assert ok and ok == (np.linalg.norm(gradient(z)) <= config.tol)
    assert np.linalg.norm(gradient(w)) <= config.tol and orbit_distance(w, z) > 0.1
    assert calls["hessian"] < calls["gradient"] / 2


def test_deflation_factor_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(10)
    deflate = [np.zeros(10), z + 0.5 * rng.standard_normal(10)]
    eta, grad_eta = _deflation_factor(z, deflate, 2.0, 1.0)
    h = 1e-6

    def eta_at(x):
        return _deflation_factor(x, deflate, 2.0, 1.0)[0]

    fd = np.array([(eta_at(z + h * e) - eta_at(z - h * e)) / (2 * h) for e in np.eye(z.size)])
    assert eta > 1.0
    np.testing.assert_allclose(grad_eta, fd, rtol=1e-7, atol=1e-9 * np.abs(fd).max())


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
def indefinite24(box24, config):
    # a converged nontrivial point of the 1-D K=24 box with kappa = 15 > gamma_1
    basis24, grid24 = box24
    pr = params_with(kappa1=15.0, kappa2=15.0, lam=50.0)
    engine = GalerkinSystem(pr, basis24, grid24)
    e2 = unit_mode(basis24, 1).coeffs
    w0 = project_general(engine, np.concatenate([e2, e2]), engine.tilde_indices(spectral_split(pr, basis24)))
    z, ok = newton_polish(engine, _deflated_root(engine, w0, [np.zeros_like(w0)], config), config.tol)
    assert ok and np.linalg.norm(z) > 0.1
    return pr, w0, z


def test_newton_evaluates_each_point_once(box24, config, indefinite24, monkeypatch):
    # at a converged start SciPy's shape checks and MINPACK ask for the
    # gradient and the Hessian more than once; the fields are built once
    basis24, grid24 = box24
    pr, _, z = indefinite24
    engine = GalerkinSystem(pr, basis24, grid24)
    work, asked = _count_point_work(monkeypatch, engine)
    _, ok = newton_polish(engine, z, config.tol)
    assert ok
    assert asked["gradient"].count(z.tobytes()) >= 3 and asked["hessian"].count(z.tobytes()) >= 2
    points = set(asked["gradient"]) | set(asked["hessian"])
    assert work["synthesize"] == 2 * len(points)
    assert work["project"] == 2 * len(set(asked["gradient"]))
    assert work["mode_mass_matrix"] == 3 * len(set(asked["hessian"]))


def test_deflated_jacobian_reuses_the_residual_gradient(box24, config, indefinite24, monkeypatch):
    basis24, grid24 = box24
    pr, w0, _ = indefinite24
    engine = GalerkinSystem(pr, basis24, grid24)
    work, asked = _count_point_work(monkeypatch, engine)
    w = _deflated_root(engine, w0, [np.zeros_like(w0)], config)
    assert np.linalg.norm(w) > 0.1 and asked["hessian"]
    # every Jacobian is built where MINPACK has just taken the residual
    assert set(asked["hessian"]) <= set(asked["gradient"])
    points = set(asked["gradient"])
    assert work["synthesize"] == 2 * len(points)
    assert work["project"] == 2 * len(points)
    assert work["mode_mass_matrix"] == 3 * len(set(asked["hessian"]))
