"""Cutoff-bubble orders, ray formula, linking harness, inequalities."""

import dataclasses
import json

import numpy as np
import pytest

from sinesolve import (
    BoxDomain,
    CutoffSpec,
    SineBasis,
    calculus_inequalities,
    cutoff_bubble_integrals,
    fit_orders,
    linking_sweep,
    nonpositive_modes,
    ray_maximum,
)
from sinesolve import estimates
from sinesolve.cli import main
from sinesolve.errors import PreconditionError
from sinesolve.estimates import (
    bubble_deficits,
    default_eps_grid,
    linking_scope,
    ray_energy,
    sharp_single_constant,
    verify_product_powers,
    verify_single_power,
)
from sinesolve.limit import (
    BubbleProfile,
    LimitParams,
    bubble_norms,
    coupled_sobolev_constant,
    interior_threshold,
    minimizer_amplitudes,
)
from sinesolve.radial import radial_integral


@pytest.fixture(scope="module")
def sweep_cutoff():
    return CutoffSpec(1.5)


def test_cutoff_shape(sweep_cutoff):
    r = np.linspace(0.0, 4.0, 2001)
    v = sweep_cutoff.value(r)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.all(v[r <= 1.5] == 1.0)
    assert np.all(v[r >= 3.0] == 0.0)
    # C^1 across the junctions: finite differences of the value match the
    # analytic derivative through both endpoints of the bridge
    h = 1e-6
    for r0 in (1.5, 2.0, 2.7, 3.0):
        fd = (sweep_cutoff.value(r0 + h) - sweep_cutoff.value(r0 - h)) / (2 * h)
        assert fd == pytest.approx(float(sweep_cutoff.derivative(r0)), abs=1e-8)


def test_cutoff_validation():
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError):
            CutoffSpec(delta)
    assert CutoffSpec(1.5).support_radius == 3.0


def test_bn_regime_precondition(sweep_cutoff):
    # the fitted orders are asymptotic: a sweep eps at delta/10 or above is refused by the fit
    with pytest.raises(PreconditionError, match="plateau"):
        fit_orders(np.geomspace(0.5, 5e-3, 6), 4)
    # the integrals themselves refuse only eps at or below the overflow floor
    for eps in (estimates.eps_floor(4), 0.5 * estimates.eps_floor(4)):
        with pytest.raises(PreconditionError, match="floor"):
            cutoff_bubble_integrals(eps, sweep_cutoff, 4)


def test_bn_gradient_approaches_full_norm(sweep_cutoff):
    grad_full, _ = bubble_norms(4, 1.0)
    integ = cutoff_bubble_integrals(1e-3, sweep_cutoff, 4)
    assert abs(integ.grad_sq - grad_full) < 1e-2 * grad_full


def test_bn_square_log_window(sweep_cutoff):
    # int (psi U)^2 / (eps^2 |ln eps|) stays between positive constants at N=4
    ratios = []
    for eps in default_eps_grid():
        integ = cutoff_bubble_integrals(eps, sweep_cutoff, 4)
        ratios.append(integ.square / (eps**2 * abs(np.log(eps))))
    assert min(ratios) > 0.0
    assert max(ratios) / min(ratios) < 3.0


def test_bn_cutoff_bounded_by_ball_integrals(sweep_cutoff):
    # psi <= 1 pointwise, so each cutoff *value* integral is below the bubble
    # integral over the support ball (and the full critical mass); gradient
    # integrals are exempt: the bridge psi' adds gradient mass, so
    # int |grad(psi U)|^2 may exceed int |grad U|^2 by O(eps^{N-2})
    n = 5
    ts = 2.0 * n / (n - 2.0)
    for eps in (1e-2, 1e-3):
        integ = cutoff_bubble_integrals(eps, sweep_cutoff, n)
        b = BubbleProfile(n, eps)
        grad_full, crit_full = bubble_norms(n, eps)
        assert integ.crit <= crit_full * (1.0 + 1e-12)
        assert abs(integ.grad_sq - grad_full) <= 1e-3 * grad_full
        rmax = sweep_cutoff.support_radius
        for name, q in (("crit_minus_one", ts - 1.0), ("crit_minus_two", ts - 2.0), ("square", 2.0), ("linear", 1.0)):
            ball = radial_integral(lambda r: b.value(r) ** q, n, r_max=rmax, scale=eps)
            assert getattr(integ, name) <= ball * (1.0 + 1e-12)


def test_deficits_positive_and_small(sweep_cutoff):
    g, c = bubble_deficits(1e-3, sweep_cutoff, 5)
    assert 0 < abs(c) < abs(g)  # crit deficit is higher order


@pytest.mark.parametrize("n_dim", [4, 5])
def test_fit_orders_pass(n_dim):
    rep = fit_orders(default_eps_grid(), n_dim)
    for f in rep.fits:
        assert f.passed, f
    assert rep.square_prefactor > 0.0


@pytest.mark.parametrize("n_dim", [3, 4, 5])
def test_fit_orders_reports_the_sweep_it_fits(n_dim):
    # the sweep runs at the one cutoff the deficits use, SWEEP_CUTOFF
    grid = default_eps_grid()
    rep = fit_orders(grid, n_dim)
    assert len(rep.sweeps) == len(grid)
    for eps, row in zip(grid, rep.sweeps):
        want = cutoff_bubble_integrals(eps, estimates.SWEEP_CUTOFF, n_dim)
        assert dataclasses.astuple(row) == dataclasses.astuple(want)


def test_fit_orders_needs_two_decades():
    with pytest.raises(PreconditionError):
        fit_orders(np.geomspace(1e-1, 2e-2, 6), 4)


@pytest.fixture(scope="module")
def n5_setting():
    n = 5
    dom = BoxDomain((8.0,) * n)
    kappa = 0.5 * (n * np.pi**2 / 64.0)
    lam = 2.0 * interior_threshold(1.0, 1.0, 5.0 / 3.0, 5.0 / 3.0, n)
    lp = LimitParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=lam, alpha=5.0 / 3.0, beta=5.0 / 3.0, dim=n)
    s_coupled, r_min = coupled_sobolev_constant(lp)
    s_amp, t_amp = minimizer_amplitudes(lp, s_coupled, r_min)
    return dom, kappa, lp, s_coupled, s_amp, t_amp


def test_ray_maximum_consistency_sweep(n5_setting, grid_ray_maximum):
    dom, kappa, lp, s_coupled, s_amp, t_amp = n5_setting
    cut = CutoffSpec.for_domain(dom)
    for eps in (2e-2, 1e-2, 5e-3, 1e-3):
        for kscale in (0.5, 1.0):
            shifted = dataclasses.replace(lp, kappa1=kscale * kappa, kappa2=kappa)
            quad, hom = estimates._ray_coefficients(eps, cut, shifted, s_amp, t_amp)
            closed, direct = ray_maximum(quad, hom, lp)
            assert closed == pytest.approx(direct, rel=1e-8)
            # the stationary point is the maximizer a grid-plus-golden search finds
            assert direct == pytest.approx(grid_ray_maximum(quad, hom, lp.critical_exponent), rel=1e-14)


def test_ray_maximum_zero_without_positive_quadratic_part():
    lp = LimitParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=4)
    assert ray_maximum(0.0, 1.0, lp) == (0.0, 0.0)
    assert ray_maximum(-2.5, 1.0, lp) == (0.0, 0.0)


def test_ray_maximum_gap_shrinks_as_kappa_vanishes(n5_setting):
    dom, kappa, lp, s_coupled, s_amp, t_amp = n5_setting
    cut = CutoffSpec.for_domain(dom)
    target = s_coupled ** (lp.dim / 2.0) / lp.dim
    gaps = []
    for scale in (1.0, 0.5, 0.25, 0.125):
        shifted = dataclasses.replace(lp, kappa1=scale * kappa, kappa2=scale * kappa)
        quad, hom = estimates._ray_coefficients(1e-3, cut, shifted, s_amp, t_amp)
        closed, _ = ray_maximum(quad, hom, lp)
        gaps.append(target - closed)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_linking_definite_reduces_to_ray(n5_setting):
    dom, kappa, lp, s_coupled, s_amp, t_amp = n5_setting
    basis = SineBasis(dom, (2,) * 5)
    params = dataclasses.replace(lp, kappa1=kappa, kappa2=kappa)
    assert all(z.size == 0 for z in nonpositive_modes(basis, kappa))
    cut = CutoffSpec.for_domain(dom)
    recs = linking_sweep([1e-2, 1e-3], params, basis, s_amp, t_amp, s_coupled)
    for rec, ray_pair in recs:
        quad, hom = estimates._ray_coefficients(rec.eps, cut, params, s_amp, t_amp)
        assert ray_pair == ray_maximum(quad, hom, lp)
        assert rec.best_value == ray_pair[0]
        assert rec.passed
        # past its positive zero the ray energy stays negative
        assert ray_energy(2.0 * max(rec.ray_radius, 1.0), quad, hom, lp.critical_exponent) < 0.0


def test_linking_rejects_nonpositive_kappa_and_wide_eps(n5_setting):
    dom, kappa, lp, s_coupled, s_amp, t_amp = n5_setting
    basis = SineBasis(dom, (2,) * 5)
    cut = CutoffSpec.for_domain(dom)
    for kappa1, eps in ((0.0, 1e-2), (kappa, cut.delta / 2.0)):
        params = dataclasses.replace(lp, kappa1=kappa1, kappa2=kappa)
        with pytest.raises(PreconditionError):
            linking_sweep([eps], params, basis, s_amp, t_amp, s_coupled)


@pytest.mark.parametrize("n", [3, 5])
def test_linking_rejects_nontrivial_tilde(n):
    # the ray is the whole linking set only when X~ = {0}: the same sweep
    # runs with kappa below gamma_1 and is refused between gamma_1 and gamma_2
    dom = BoxDomain((1.0,) * n)
    basis = SineBasis(dom, (2,) * n)
    g = basis.eigenvalues
    ab = n / (n - 2.0)
    lam = 4.0 * interior_threshold(1.0, 1.0, ab, ab, n)
    lp = LimitParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=lam, alpha=ab, beta=ab, dim=n)
    s_coupled, r_min = coupled_sobolev_constant(lp)
    s_amp, t_amp = minimizer_amplitudes(lp, s_coupled, r_min)

    def sweep(kappa):
        return linking_sweep([1e-2], dataclasses.replace(lp, kappa1=kappa, kappa2=kappa),
                             basis, s_amp, t_amp, s_coupled)

    below, between = 0.5 * g[0], 0.5 * (g[0] + g[1])
    assert [z.tolist() for z in nonpositive_modes(basis, below)] == [[], []]
    assert len(sweep(below)) == 1
    assert [z.tolist() for z in nonpositive_modes(basis, between)] == [[], [0]]
    with pytest.raises(PreconditionError, match="nonpositive subspace"):
        sweep(between)


_SCOPE_NOTES = {
    "nonpositive": "nonpositive kappa: linking bound skipped",
    "resonant": ("resonant kappa: linking bound skipped (a shift matches a Dirichlet "
                 "eigenvalue; the dimension-4 bound requires nonresonance)"),
    "tilde": "nonpositive subspace: linking bound skipped",
}


@pytest.mark.parametrize("n, kappas, note", [
    (5, ("zero", "below"), "nonpositive"),
    (3, ("below", "negative"), "nonpositive"),
    (4, ("gamma1", "negative"), "nonpositive"),  # the sign is checked first
    (4, ("gamma1", "below"), "resonant"),
    (4, ("below", "gamma1"), "resonant"),
    (3, ("gamma1", "below"), "tilde"),  # resonance is a dimension-4 note only
    (3, ("between", "between"), "tilde"),
    (4, ("between", "below"), "tilde"),
    (5, ("between", "between"), "tilde"),
    (3, ("below", "below"), None),
    (4, ("below", "below"), None),
    (5, ("below", "below"), None),
])
def test_linking_scope_note_is_the_sweep_refusal(n, kappas, note):
    # one rule says where the ray check applies; the sweep refuses with its note
    basis = SineBasis(BoxDomain((1.0,) * n), (2,) * n)
    g = basis.eigenvalues
    at = {"zero": 0.0, "negative": -1.0, "below": 0.5 * g[0], "gamma1": g[0],
          "between": 0.5 * (g[0] + g[1])}
    ab = n / (n - 2.0)
    lam = 4.0 * interior_threshold(1.0, 1.0, ab, ab, n)
    lp = LimitParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=lam, alpha=ab, beta=ab, dim=n)
    s_coupled, r_min = coupled_sobolev_constant(lp)
    s_amp, t_amp = minimizer_amplitudes(lp, s_coupled, r_min)
    params = dataclasses.replace(lp, kappa1=at[kappas[0]], kappa2=at[kappas[1]])
    want = _SCOPE_NOTES.get(note)
    assert linking_scope(params, basis) == want
    if want is None:
        assert len(linking_sweep([1e-2], params, basis, s_amp, t_amp, s_coupled)) == 1
    else:
        with pytest.raises(PreconditionError) as refusal:
            linking_sweep([1e-2], params, basis, s_amp, t_amp, s_coupled)
        assert str(refusal.value) == want


# -- elementary inequalities --------------------------------------------------------


def test_single_power_sharp_constant_q2():
    # max_s (r s - s^2) = r^2/4, so C_2 = 1/4 exactly
    assert sharp_single_constant(2.0) == pytest.approx(0.25, rel=1e-15)
    rep = verify_single_power(2.0, np.geomspace(1e-3, 1e3, 41))
    assert rep.passed


def test_single_power_zero_r():
    rep = verify_single_power(1.5, np.array([0.0]))
    assert rep.passed  # max of a nonpositive function against a zero bound


def test_product_powers_symmetric_quarter():
    # alpha = beta = 2, r = 1, R = 1: max(s1 s2 - s1^2 s2^2) = 1/4 at s1 s2 = 1/2
    rep = verify_product_powers(2.0, 2.0, np.array([1.0]))
    assert rep.constant == 0.25
    assert rep.passed


def test_calculus_inequalities_default_suite():
    for rep in calculus_inequalities():
        assert rep.passed, rep
        assert rep.worst_slack >= -1e-9


# the r-grid of calculus_inequalities
R_GRID = np.geomspace(1e-3, 1e3, 61)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_single_power_bounds_grid_oracle(q, grid_single_power_max):
    rep = verify_single_power(q, R_GRID)
    assert rep.passed
    bound = rep.constant * R_GRID ** (q / (q - 1.0))
    assert np.all(grid_single_power_max(q, R_GRID) <= bound * (1.0 + 1e-9))


@pytest.mark.parametrize("a, b", [(2.0, 2.0), (1.5, 2.5), (2.5, 1.5)])
def test_product_powers_bounds_grid_oracle(a, b, grid_product_powers):
    # (2.5, 1.5) takes the swapped branch, the maximizer (s*, 1)
    rep = verify_product_powers(a, b, R_GRID)
    assert rep.passed
    assert rep.constant == sharp_single_constant(max(a, b))
    lhs, c_fit = grid_product_powers(a, b, R_GRID)
    majorant = np.maximum(R_GRID ** (a / (a - 1.0)), R_GRID ** (b / (b - 1.0)))
    assert np.all(lhs <= rep.constant * majorant * (1.0 + 1e-9))
    assert rep.constant * (1.0 - 1e-7) <= c_fit <= rep.constant


@pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.0 - 1e-6])
def test_perturbed_constant_fails_every_check(factor, monkeypatch, tmp_path):
    # a constant too large leaves the bound unattained and one too small
    # breaks it; either must fail every check and make verify-estimates exit 4
    cfg = {"problem": {"mu1": 1.0, "mu2": 1.0, "lambda": 1.0, "alpha": 5.0 / 3.0,
                       "beta": 5.0 / 3.0, "dim": 5},
           "output": {"report": str(tmp_path / "ve.json"), "formats": ["json"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify-estimates", "--config", str(path)]) == 0
    sharp = estimates.sharp_single_constant
    monkeypatch.setattr(estimates, "sharp_single_constant", lambda q: factor * sharp(q))
    assert not any(rep.passed for rep in calculus_inequalities())
    assert main(["verify-estimates", "--config", str(path)]) == 4


def test_fit_orders_degenerate_rejected(monkeypatch):
    from sinesolve.estimates import BubbleIntegrals

    def fake(eps, cutoff, n_dim):
        return BubbleIntegrals(eps=eps, grad_sq=1.0, crit=1.0, crit_minus_one=0.0,
                               linear=1.0, grad_abs=1.0, crit_minus_two=1.0, square=1.0)

    monkeypatch.setattr(estimates, "cutoff_bubble_integrals", fake)
    with pytest.raises(PreconditionError, match="degenerate fit: crit_minus_one"):
        fit_orders(default_eps_grid(), 5)


@pytest.mark.parametrize("last", [0.0, -1e-3])
def test_sweep_ending_at_or_below_zero_rejected(last):
    # each eps meets the floor before the grid's span divides by the last one
    grid = (0.1, 0.05, 0.02, 0.01, 0.005, last)
    for refuse in (estimates.check_sweep, fit_orders):
        with pytest.raises(PreconditionError, match="floor"):
            refuse(grid, 5)


def test_linking_dim4_nonresonant_calibrated_cutoff():
    # in dimension 4 the kappa gain carries only a |ln eps| advantage over the
    # cutoff-bridge term and both scale the same way with the box, so the
    # default plateau (inscribed/8) misses the bound at eps >= 1e-3; a fatter
    # plateau (inscribed/4) quarters the bridge constant and the ray maximum
    # stays below it.  linking_sweep takes the default cutoff of the box, so
    # the ray is built here
    n = 4
    dom = BoxDomain((8.0,) * n)
    basis = SineBasis(dom, (2,) * n)
    kappa = 0.5 * float(basis.eigenvalues[0])
    lp = LimitParams(kappa1=kappa, kappa2=kappa, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=n)
    s_coupled, r_min = coupled_sobolev_constant(lp)
    s_amp, t_amp = minimizer_amplitudes(lp, s_coupled, r_min)
    cut = CutoffSpec(dom.inscribed_radius / 4.0)
    threshold = s_coupled ** (n / 2.0) / n
    for eps in (1e-2, 1e-3):
        quad, hom = estimates._ray_coefficients(eps, cut, lp, s_amp, t_amp)
        closed, _ = ray_maximum(quad, hom, lp)
        assert closed < threshold, eps
