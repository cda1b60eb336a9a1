"""Whole-space constants: the one-variable quotient, bubbles, and amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinesolve import (
    BubbleProfile,
    LimitParams,
    coupled_sobolev_constant,
    f_lambda,
    interior_threshold,
    minimizer_amplitudes,
    sobolev_constant,
)
from sinesolve import limit
from sinesolve.errors import BoundaryInfimumError, PreconditionError
from sinesolve.limit import bubble_norms, pair_grid_infimum

# regression constant pinned after the first run; cross-checked below against
# the closed form pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N)
S4_PINNED = 10.260398641294913


def lp_with(**kw):
    base = dict(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=4)
    base.update(kw)
    return LimitParams(**base)


def test_limit_params_validation():
    with pytest.raises(ValueError):
        lp_with(alpha=2.0, beta=2.5)  # alpha + beta != 2*
    with pytest.raises(ValueError):
        lp_with(dim=2)
    with pytest.raises(ValueError):
        lp_with(lam=-1.0)


def test_quotient_endpoints():
    lp = lp_with(mu2=3.0, alpha=1.8, beta=2.2)
    assert f_lambda(0.0, lp) == pytest.approx(3.0 ** (-0.5), rel=1e-12)
    assert f_lambda(1e6, lp) == pytest.approx(1.0, rel=1e-3)


def test_quotient_symmetric_value():
    assert f_lambda(1.0, lp_with()) == pytest.approx(2.0 / np.sqrt(6.0), rel=1e-14)


def test_quotient_negative_r_rejected():
    with pytest.raises(PreconditionError):
        f_lambda(-0.5, lp_with())


def test_bubble_values():
    b = BubbleProfile(4, 1.0)
    assert b.value(0.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)
    radii = np.linspace(0.0, 10.0, 50)
    vals = b.value(radii)
    assert np.all(np.diff(vals) < 0.0)


def test_bubble_scaling_identity():
    eps = 0.37
    b_eps = BubbleProfile(5, eps)
    b_one = BubbleProfile(5, 1.0)
    r = np.linspace(0.0, 5.0, 33)
    lhs = b_eps.value(r)
    rhs = eps ** (-1.5) * b_one.value(r / eps)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_sobolev_constant_identity_and_pin():
    s4 = sobolev_constant(4)
    assert s4 == pytest.approx(S4_PINNED, abs=1e-10)
    for n in (3, 4, 5):
        sn = sobolev_constant(n)
        closed = np.pi * n * (n - 2.0) * (math.gamma(n / 2.0) / math.gamma(float(n))) ** (2.0 / n)
        assert sn == pytest.approx(closed, rel=1e-12)
        grad2, mass = bubble_norms(n, 1.0)
        assert grad2 == pytest.approx(mass, rel=1e-8)
        assert grad2 == pytest.approx(sn ** (n / 2.0), rel=1e-12)


def test_bubble_norm_eps_independent():
    g1, _ = bubble_norms(4, 1.0)
    g2, _ = bubble_norms(4, 0.5)
    assert g2 == pytest.approx(g1, rel=1e-8)


def test_coupled_constant_symmetric_case():
    lp = lp_with()
    s = sobolev_constant(4)
    val, r_min = coupled_sobolev_constant(lp)
    assert r_min == pytest.approx(1.0, abs=1e-6)
    assert val == pytest.approx(2.0 / np.sqrt(6.0) * s, rel=1e-10)
    # upper bound from the equal-amplitude pair
    assert val <= 2.0 * s / np.sqrt(2.0 + 4.0 * lp.lam) + 1e-12
    assert val > 0.0


def test_coupled_constant_grid_oracle():
    lp = lp_with(mu2=2.0, alpha=1.7, beta=2.3, lam=3.0)
    s = sobolev_constant(4)
    val, r_min = coupled_sobolev_constant(lp)
    oracle = pair_grid_infimum(lp)
    assert val == pytest.approx(oracle, rel=1e-4)
    boundary = min(lp.mu1, lp.mu2) ** (-0.5) * s
    assert val < boundary


def _critical(dim, mu2, lam, alpha=None, mu1=1.0):
    ts = 2.0 * dim / (dim - 2.0)
    a = ts / 2.0 if alpha is None else alpha
    return LimitParams(kappa1=0.0, kappa2=0.0, mu1=mu1, mu2=mu2, lam=lam, alpha=a, beta=ts - a, dim=dim)


# lam = 0.003 is below every interior threshold: the flat boundary branch,
# where many ratio diagonals tie with the smallest one
PAIR_GRID_CASES = [
    _critical(dim, mu2, lam)
    for dim in (3, 4, 5)
    for mu2 in (0.5, 1.0, 2.0, 4.0)
    for lam in (0.003, 0.1, 3.0, 100.0)
] + [_critical(4, mu2, lam, alpha=1.7) for mu2 in (0.5, 2.0) for lam in (0.003, 0.3, 3.0, 100.0)] + [
    # found by a random search: here the diagonal with the smallest
    # representative does not hold the grid minimum, so the margin matters
    _critical(6, 2.0, 0.0015073808889023283),
    _critical(5, 1.0, 0.0008440743757177344, alpha=1.929641597439314, mu1=2.642113446046113),
]


@pytest.mark.parametrize("lp", PAIR_GRID_CASES, ids=lambda lp: f"n{lp.dim}-a{lp.alpha:g}-mu{lp.mu2:g}-lam{lp.lam:g}")
def test_pair_grid_infimum_equals_full_grid(lp, full_pair_grid):
    assert pair_grid_infimum(lp) == full_pair_grid(lp)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([3, 4, 5, 6, 8]),
    split=st.floats(0.05, 0.95),
    mu1=st.floats(0.2, 5.0),
    mu2=st.floats(0.2, 5.0),
    log_lam=st.floats(-3.0, 2.0),
)
def test_pair_grid_infimum_equals_full_grid_property(full_pair_grid, dim, split, mu1, mu2, log_lam):
    # alpha anywhere in (1, 2* - 1), so alpha != beta in general
    ts = 2.0 * dim / (dim - 2.0)
    lp = _critical(dim, mu2, 10.0**log_lam, alpha=1.0 + split * (ts - 2.0), mu1=mu1)
    assert pair_grid_infimum(lp) == full_pair_grid(lp)


def test_coupled_constant_decreasing_in_lambda():
    vals = [coupled_sobolev_constant(lp_with(lam=l))[0] for l in (0.6, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_boundary_infimum_error_below_threshold():
    with pytest.raises(BoundaryInfimumError):
        coupled_sobolev_constant(lp_with(lam=0.25))


def test_interior_threshold_symmetric_closed_form():
    lam0 = interior_threshold(1.0, 1.0, 2.0, 2.0, 4)
    assert lam0 <= 0.5 + 1e-6
    assert lam0 >= 0.5 - 1e-6


def test_interior_threshold_bisection_contract():
    lam0 = interior_threshold(1.0, 2.0, 2.0, 2.0, 4)
    bound = min(1.0, 2.0 ** (-0.5))  # smaller of the two semitrivial limits

    def inf_f(lam):
        lp = lp_with(mu2=2.0, lam=lam)
        r = np.geomspace(1e-6, 1e6, 20001)
        ts = lp.critical_exponent
        vals = (r**2 + 1.0) / (lp.mu1 * r**ts + lp.mu2 + ts * lp.lam * r**lp.alpha) ** (2.0 / ts)
        return vals.min()

    assert inf_f(1.01 * lam0) < bound - 1e-12
    assert not inf_f(0.99 * lam0) < bound - 1e-12


# (N, mu2) of the `constants` benchmark, mu1 = 1 and alpha = beta = 2*/2; in
# N=5 with mu2 = 0.5 and 1 the interior scan minimum comes within ulps of the
# cut at some steps (the ~1e-12-deep dip of the r-window)
THRESHOLD_CASES = [(1.0, mu2, ab, ab, dim) for dim, ab in ((3, 3.0), (4, 2.0), (5, 5.0 / 3.0))
                   for mu2 in (0.5, 1.0, 2.0, 4.0)]
KNIFE_EDGE_CASES = [(1.0, 0.5, 5.0 / 3.0, 5.0 / 3.0, 5), (1.0, 1.0, 5.0 / 3.0, 5.0 / 3.0, 5)]


@pytest.mark.parametrize("case", THRESHOLD_CASES, ids=lambda c: f"n{c[4]}-mu{c[1]:g}")
def test_interior_threshold_equals_reference_bisection(case, reference_interior_threshold):
    assert interior_threshold(*case) == reference_interior_threshold(*case)


@pytest.mark.parametrize("case", KNIFE_EDGE_CASES, ids=lambda c: f"n{c[4]}-mu{c[1]:g}")
def test_interior_threshold_knife_edge_needs_the_slack(case, reference_interior_threshold, monkeypatch):
    # deciding every interior step from the scan alone flips a step here
    expected = reference_interior_threshold(*case)
    assert interior_threshold(*case) == expected
    monkeypatch.setattr(limit, "_LAMBDA0_SLACK", 0.0)
    interior_threshold.cache_clear()  # the memo holds the value found with the slack
    assert interior_threshold(*case) != expected


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([3, 4, 5, 6, 8]),
    split=st.floats(0.05, 0.95).filter(lambda s: s != 0.5),
    mu1=st.floats(0.2, 5.0).filter(lambda m: m != 1.0),
    mu2=st.floats(0.2, 5.0),
)
def test_interior_threshold_equals_reference_bisection_property(reference_interior_threshold, dim, split, mu1, mu2):
    ts = 2.0 * dim / (dim - 2.0)
    alpha = 1.0 + split * (ts - 2.0)
    case = (mu1, mu2, alpha, ts - alpha, dim)
    assert interior_threshold(*case) == reference_interior_threshold(*case)


@pytest.mark.parametrize("lp", PAIR_GRID_CASES[::5], ids=lambda lp: f"n{lp.dim}-a{lp.alpha:g}-mu{lp.mu2:g}-lam{lp.lam:g}")
def test_log_scan_equals_the_quotient_on_the_grid(lp):
    # the lam-free parts are hoisted without changing one bit of the scan
    x, f_at = limit._log_scan(lp)
    r = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 2001))
    ts = lp.critical_exponent
    vals = (r**2 + 1.0) / (lp.mu1 * r**ts + lp.mu2 + ts * lp.lam * r**lp.alpha) ** (2.0 / ts)
    assert np.array_equal(np.exp(x), r)
    assert np.array_equal(f_at(lp.lam), vals)


@pytest.mark.parametrize("dim", [3, 4, 5, 8])
def test_golden_refinement_never_raises_an_interior_scan_minimum(dim):
    # the invariant that lets interior_threshold skip the refinement
    ts = 2.0 * dim / (dim - 2.0)
    interior = 0
    for mu2, alpha in ((1.0, ts / 2.0), (0.5, ts / 2.0), (2.0, 1.0 + 0.3 * (ts - 2.0))):
        x, f_at = limit._log_scan(_critical(dim, mu2, 1.0, alpha=alpha))
        for lam in np.geomspace(1e-3, 1e2, 41):
            vals = f_at(lam)
            j = int(np.argmin(vals))
            if 0 < j < len(x) - 1:
                interior += 1
                refined, _, _ = limit._refine(x, vals, _critical(dim, mu2, lam, alpha=alpha))
                assert refined <= vals[j] * (1.0 + 1e-14)
    assert interior >= 40


@pytest.mark.parametrize("case", [
    (1.0, 1.0, 2.0, 2.5, 4),  # alpha + beta != 2*
    (0.0, 1.0, 2.0, 2.0, 4),  # mu1 <= 0
    (1.0, -1.0, 2.0, 2.0, 4),  # mu2 <= 0
    (1.0, 1.0, 2.0, 2.0, 2),  # dim < 3
], ids=["alpha-beta", "mu1", "mu2", "dim"])
def test_interior_threshold_rejects_bad_input_before_any_scan(case, monkeypatch):
    def no_scan(lp):
        raise AssertionError("scanned before validating")

    monkeypatch.setattr(limit, "_log_scan", no_scan)
    with pytest.raises(ValueError):
        interior_threshold(*case)


def test_interior_threshold_nonincreasing_in_mu1_below_mu2():
    # while mu1 <= mu2 the boundary bound is the constant mu2 side and the
    # quotient decreases pointwise in mu1, so the threshold cannot grow;
    # beyond mu1 > mu2 the bound itself decays and the threshold genuinely
    # increases (e.g. mu1=2, mu2=1 gives ~1.0 against ~0.5 at mu1=1)
    vals = [interior_threshold(mu1, 1.0, 2.0, 2.0, 4) for mu1 in (0.25, 0.5, 1.0)]
    assert all(a >= b - 1e-6 * abs(a) for a, b in zip(vals, vals[1:]))
    assert interior_threshold(2.0, 1.0, 2.0, 2.0, 4) > vals[-1]


def test_amplitudes_energy_identity_and_symmetry():
    lp = lp_with()
    val, r_min = coupled_sobolev_constant(lp)
    s_amp, t_amp = minimizer_amplitudes(lp, val, r_min)
    assert s_amp == pytest.approx(t_amp, rel=1e-6)
    # stationarity of the ray through the scaled pair
    grad2, mass = bubble_norms(4, 1.0)
    ts = lp.critical_exponent
    ray = (s_amp**2 + t_amp**2) * grad2 - (
        lp.mu1 * s_amp**ts + lp.mu2 * t_amp**ts + ts * lp.lam * s_amp**lp.alpha * t_amp**lp.beta
    ) * mass
    assert abs(ray) < 1e-8 * grad2


def test_amplitudes_asymmetric_identity():
    lp = lp_with(mu2=2.5, lam=2.0)
    val, r_min = coupled_sobolev_constant(lp)
    # minimizer_amplitudes verifies the (1/N) S^{N/2} identity internally
    s_amp, t_amp = minimizer_amplitudes(lp, val, r_min)
    assert s_amp > 0 and t_amp > 0
    assert s_amp / t_amp == pytest.approx(r_min, rel=1e-10)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_amplitudes_closed_form_equals_quadrature(dim, reference_minimizer_amplitudes):
    ab = 2.0 * dim / (dim - 2.0) / 2.0
    for mu2 in (0.5, 1.0, 2.0, 4.0):
        lam0 = interior_threshold(1.0, mu2, ab, ab, dim)
        for lam in (1.5 * lam0, 4.0 * lam0, 50.0 * lam0):
            lp = _critical(dim, mu2, lam)
            s_coupled, r_min = coupled_sobolev_constant(lp)
            expected = reference_minimizer_amplitudes(lp, r_min)
            np.testing.assert_allclose(minimizer_amplitudes(lp, s_coupled, r_min), expected, rtol=1e-14)


def test_amplitudes_identity_violation_raises():
    from sinesolve.errors import InconsistencyError

    lp = lp_with()
    s_coupled, _ = coupled_sobolev_constant(lp)
    with pytest.raises(InconsistencyError):
        minimizer_amplitudes(lp, s_coupled, 5.0)  # not the minimizing ratio
