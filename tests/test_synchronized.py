"""Ratio-equation roots, amplitude algebra, and synchronized assembly."""

import numpy as np
import pytest

from sinesolve import (
    BoxDomain,
    GalerkinSystem,
    ScalarProblem,
    SineBasis,
    SolverConfig,
    SystemParams,
    amplitudes,
    find_roots,
    ratio_function,
    scalar_ground_state,
    synchronized_solution,
)
from sinesolve.errors import NoProjectionError, PreconditionError
from sinesolve.nehari import _least_energy
from sinesolve.synchronized import R_WINDOW, amplitude_identities, root_guaranteed


def params_with(**kw):
    base = dict(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=1)
    base.update(kw)
    return SystemParams(**base)


def test_ratio_symmetric_cancellation():
    assert ratio_function(1.0, params_with(mu1=2.0, mu2=2.0, lam=3.0)) == 0.0


def test_ratio_quadratic_closed_form():
    # alpha = beta = 2: h(r) = (mu1 - 2 lam) r^2 + (2 lam - mu2)
    pr = params_with(mu1=1.0, mu2=2.0, lam=2.0)
    r = 0.7
    assert ratio_function(r, pr) == pytest.approx((1.0 - 4.0) * r**2 + (4.0 - 2.0), rel=1e-14)


def test_roots_quadratic_case():
    roots = find_roots(params_with(mu1=1.0, mu2=2.0, lam=2.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)
    assert abs(ratio_function(roots[0], params_with(mu1=1.0, mu2=2.0, lam=2.0))) < 1e-12


def test_roots_absent_case():
    # h(r) = r^2 + 1 > 0 everywhere
    assert find_roots(params_with(mu1=3.0, mu2=1.0, lam=1.0)) == ()


def test_roots_symmetric_contains_one():
    assert any(abs(r - 1.0) < 1e-10 for r in find_roots(params_with()))


def test_guaranteed_flag_and_probes():
    # alpha, beta < 2 guarantee sign changes at both ends
    pr = params_with(alpha=1.5, beta=1.5, mu2=2.0, lam=0.7)
    assert root_guaranteed(pr)
    assert len(find_roots(pr)) >= 1
    assert ratio_function(1e-8, pr) > 0.0
    assert ratio_function(1e8, pr) < 0.0
    # alpha = 2 requires lam > mu2/2 for the small-r sign
    assert root_guaranteed(params_with(lam=0.6, mu2=1.0))
    assert not root_guaranteed(params_with(lam=0.4, mu2=1.0))
    # a guaranteed root can lie outside R_WINDOW: here h < 0 on all of it
    pr = params_with(mu2=3.0, alpha=1.99, beta=1.5)
    assert root_guaranteed(pr)
    assert find_roots(pr) == ()
    assert ratio_function(1e-20, pr) > 0.0 > ratio_function(1e-17, pr)
    assert max(ratio_function(np.geomspace(*R_WINDOW, 4001), pr)) < 0.0


# (mu1, mu2, lam, alpha, beta); the second is the benchmark's synchronized problem
_SCALE_CASES = [(0.3, 0.7, 0.2, 1.5, 1.5), (1.0, 2.0, 2.0, 2.0, 2.0), (0.8, 1.3, 1.1, 1.75, 2.25),
                (1.0, 1.0, 1e-3, 1.5, 1.5), (1.0, 1.0, 10.0, 3.0, 1.5)]


@pytest.mark.parametrize("mu1, mu2, lam, alpha, beta", _SCALE_CASES)
def test_roots_do_not_depend_on_the_coefficients_scale(mu1, mu2, lam, alpha, beta):
    # scaling (mu1, mu2, lam) by 2^k scales every value of h by 2^k exactly
    roots = find_roots(params_with(mu1=mu1, mu2=mu2, lam=lam, alpha=alpha, beta=beta))
    assert roots
    for k in range(-40, 61, 10):
        c = 2.0**k
        pr = params_with(mu1=c * mu1, mu2=c * mu2, lam=c * lam, alpha=alpha, beta=beta)
        assert find_roots(pr) == roots, k
        for r in roots:
            amplitudes(r, pr)  # raises unless r is a root relative to h's scale


def test_amplitudes_closed_form():
    s, t = amplitudes(1.0, params_with())
    assert t == pytest.approx(3.0 ** (-0.5), rel=1e-14)
    assert s == pytest.approx(t, rel=1e-14)


def test_amplitudes_identities_everywhere():
    for pr in (
        params_with(mu1=1.0, mu2=2.0, lam=2.0),
        params_with(alpha=1.5, beta=1.5, mu2=2.0, lam=0.7),
        params_with(alpha=1.75, beta=2.25, mu1=0.8, mu2=1.3, lam=1.1),
    ):
        for r in find_roots(pr):
            s, t = amplitudes(r, pr)
            id1, id2 = amplitude_identities(s, t, pr)
            assert id1 == pytest.approx(1.0, abs=1e-10)
            assert id2 == pytest.approx(1.0, abs=1e-10)


def test_amplitudes_rejects_nonroot():
    with pytest.raises(PreconditionError):
        amplitudes(0.5, params_with(mu1=1.0, mu2=2.0, lam=2.0))


@pytest.fixture(scope="module")
def solved_profile():
    basis = SineBasis(BoxDomain((1.0,)), (20,))
    cfg = SolverConfig()
    pr = params_with()
    state = scalar_ground_state(basis, pr.kappa1, pr.p, cfg)
    return basis, cfg, pr, state


def test_unit_coefficient_rescaling(solved_profile):
    basis, cfg, pr, state = solved_profile
    # the unit-coefficient state carried to mu = 4 reproduces the least-energy
    # state that a search run on the mu = 4 equation itself finds
    prob = ScalarProblem(basis, pr.kappa1, 4.0, pr.p)
    direct = _least_energy(prob, np.eye(basis.size)[:4])
    scaled = state.scaled(4.0, pr.p)
    d = min(np.linalg.norm(scaled.w - direct), np.linalg.norm(scaled.w + direct))
    assert d < 1e-7 * 4.0 ** (-1.0 / (pr.p - 2.0))
    assert scaled.energy == pytest.approx(prob.energy(direct), rel=1e-12)
    # and solves the mu = 4 equation: the engine at mu = 4 finds it critical
    assert np.linalg.norm(prob.gradient(scaled.w)) < 1e-9
    assert prob.energy(scaled.w) == pytest.approx(scaled.energy, rel=1e-12)


def test_synchronized_assembly(solved_profile):
    basis, cfg, pr, state = solved_profile
    s, t = amplitudes(1.0, pr)
    pt = synchronized_solution(GalerkinSystem(pr, basis), state.w, s, t)
    # rounding floor keeps the 10x bound meaningful at machine-converged profiles
    assert pt.grad_norm < 10.0 * max(state.grad_norm, 1e-13)
    assert pt.classification == "fully-nontrivial"
    assert pt.energy == pytest.approx((0.5 - 1.0 / pr.p) * pt.b_value, rel=1e-6)


def test_scalar_residual_is_the_states_grad_norm(solved_profile):
    # the synchronized report reads its scalar residual from the state; it has
    # the bits of the residual recomputed on a fresh unit-coefficient problem
    basis, cfg, pr, state = solved_profile
    prob = ScalarProblem(basis, pr.kappa1, 1.0, pr.p)
    assert state.grad_norm == float(np.linalg.norm(prob.gradient(state.w)))


def test_synchronized_requires_equal_kappas(solved_profile):
    basis, cfg, pr, state = solved_profile
    bad = params_with(kappa1=1.0, kappa2=2.0)
    s, t = amplitudes(1.0, params_with())
    with pytest.raises(PreconditionError):
        synchronized_solution(GalerkinSystem(bad, basis), state.w, s, t)


def test_amplitudes_beyond_the_float_range_raise_no_projection():
    # r = 1 is a root when mu1 = mu2 and alpha = beta; then t = (mu2 + lam beta)^(-1/(p-2)),
    # a 5000th power of 1/0.51 at p = 2.0002
    pr = params_with(mu1=0.5, mu2=0.5, lam=0.01, alpha=1.0001, beta=1.0001)
    assert ratio_function(1.0, pr) == 0.0
    with pytest.raises(NoProjectionError, match="overflows"):
        amplitudes(1.0, pr)


def test_amplitudes_that_underflow_raise_no_projection():
    # the same root at mu1 = mu2 = 1, lam = 50: t = 51.005^-5000 rounds to 0.0,
    # which would report the trivial point (0, 0) as a synchronized solution
    pr = params_with(lam=50.0, alpha=1.0001, beta=1.0001)
    assert ratio_function(1.0, pr) == 0.0
    with pytest.raises(NoProjectionError, match="underflows"):
        amplitudes(1.0, pr)
    # a small amplitude that stays a float is kept
    s, t = amplitudes(1.0, params_with(lam=50.0, alpha=1.01, beta=1.01))
    assert s == t > 0.0
