"""Shared test helpers."""

import sys
import warnings

import numpy as np
import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports this module
# to explain the failing example.  It loads libcst, which defines a
# mypy_extensions.TypedDict; under `filterwarnings = error` that import's
# DeprecationWarning raised inside the plugin's hook, pytest stopped with
# INTERNALERROR and no later test ran.  Importing it here once, with only that
# warning ignored, keeps the error filter for all code the tests run.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the explanation itself
        pass


def _clear_memos():
    # a module not yet imported holds no memo; test_harness.py copies this
    # file where sinesolve is not importable at all
    limit = sys.modules.get("sinesolve.limit")
    if limit is not None:
        limit.interior_threshold.cache_clear()
    nehari = sys.modules.get("sinesolve.nehari")
    if nehari is not None:
        nehari._scalar_memo.clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty the per-process memos of lambda0 and the unit scalar states before each test.

    A memo filled by an earlier test would hide a constant or a function the
    next test monkeypatches (`_LAMBDA0_SLACK`, `NEWTON_TOL`, `_converge_seed`).
    A test that needs them empty again calls the function this returns.
    """
    _clear_memos()
    return _clear_memos


@pytest.fixture
def scalar_searches(monkeypatch):
    """The (kappa, p) of every scalar search that runs past the memo of `scalar_ground_state`."""
    from sinesolve import nehari

    searches = []
    original = nehari._scalar_search

    def counting(*args):
        searches.append(args[1:3])
        return original(*args)

    monkeypatch.setattr(nehari, "_scalar_search", counting)
    return searches


def _full_pair_grid(lp, n=601, lo=1e-3, hi=1e3):
    # the whole n x n (s, t) grid, broadcast at once; imported here, as
    # test_harness.py copies this file where sinesolve is not
    from sinesolve.limit import sobolev_constant

    ts = lp.critical_exponent
    s = np.geomspace(lo, hi, n)[:, None]
    t = np.geomspace(lo, hi, n)[None, :]
    denom = lp.mu1 * s**ts + lp.mu2 * t**ts + ts * lp.lam * s**lp.alpha * t**lp.beta
    q = (s**2 + t**2) / denom ** (2.0 / ts)
    return float(q.min() * sobolev_constant(lp.dim))


@pytest.fixture(scope="session")
def full_pair_grid():
    """Brute-force oracle for `limit.pair_grid_infimum`."""
    return _full_pair_grid


def _reference_mode_mass_matrix(values, basis, grid):
    # sine tables from axis_matrix, the per-axis weights, one einsum per axis
    # that plans its own path (optimize=True) on every call, the (k.., l..)
    # transpose and an np.ix_ gather into sorted mode order.
    # `domain.mode_mass_matrix` contracts in one fixed order instead, weight
    # first in 1-D and table first on every axis in n-D, so the bits agree
    # where the planner picks that order too
    n = grid.dim
    a = values
    for i, w in enumerate(grid.axis_weights):
        a = a * w.reshape((-1,) + (1,) * (n - 1 - i))
    for i in range(n):
        s = basis.axis_matrix(i, grid.axis_nodes[i])
        a = np.einsum("q...,qk,ql->...kl", a, s, s, optimize=True)
    a = np.transpose(a, axes=list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    perm = np.ravel_multi_index((basis.modes - 1).T, basis.cutoffs)
    return a.reshape(basis.size, basis.size)[np.ix_(perm, perm)]


@pytest.fixture(scope="session")
def reference_mode_mass_matrix():
    """Oracle for `domain.mode_mass_matrix`: one planned einsum per axis, on every call."""
    return _reference_mode_mass_matrix


def _reference_interior_threshold(mu1, mu2, alpha, beta, dim, n=2001, lo=1e-6, hi=1e6):
    # the bisection with a fresh scan and a golden refinement at every step;
    # imported here, as test_harness.py copies this file where sinesolve is not
    from sinesolve import limit

    def below(lam):
        lp = limit.LimitParams(kappa1=0.0, kappa2=0.0, mu1=mu1, mu2=mu2, lam=lam,
                               alpha=alpha, beta=beta, dim=dim)
        x = np.linspace(np.log(lo), np.log(hi), n)
        r = np.exp(x)
        ts = lp.critical_exponent
        vals = (r**2 + 1.0) / (lp.mu1 * r**ts + lp.mu2 + ts * lp.lam * r**lp.alpha) ** (2.0 / ts)
        j = int(np.argmin(vals))
        val = vals[j]
        if 0 < j < n - 1:
            xm = limit._golden_min(lambda t: limit.f_lambda(float(np.exp(t)), lp), x[j - 1], x[j + 1])
            val = limit.f_lambda(float(np.exp(xm)), lp)
        return val < limit._boundary_bound(lp) - 1e-12

    lam_lo, lam_hi = 0.0, 1.0
    while not below(lam_hi):
        lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
    while (lam_hi - lam_lo) > 1e-6 * lam_hi:
        mid = 0.5 * (lam_lo + lam_hi)
        if below(mid):
            lam_hi = mid
        else:
            lam_lo = mid
    return float(lam_hi)


@pytest.fixture(scope="session")
def reference_interior_threshold():
    """Per-step oracle for `limit.interior_threshold`: it refines every step."""
    return _reference_interior_threshold


def _reference_minimizer_amplitudes(lp, r_min):
    # the Nehari scaling of (r_min U_1, U_1) with the bubble integrals taken
    # by radial quadrature, as `limit.minimizer_amplitudes` did before it used
    # their common value S^{N/2}; imported here, as test_harness.py copies
    # this file where sinesolve is not
    from sinesolve.limit import BubbleProfile, bubble_norms
    from sinesolve.radial import radial_integral

    n, ts = lp.dim, lp.critical_exponent
    grad2, mass = bubble_norms(n, 1.0)
    b = BubbleProfile(n, 1.0)
    mix = radial_integral(lambda r: b.value(r) ** lp.alpha * b.value(r) ** lp.beta, n)
    norm_v = (r_min**2 + 1.0) * grad2
    denom = (lp.mu1 * r_min**ts + lp.mu2) * mass + ts * lp.lam * r_min**lp.alpha * mix
    t_lam = (norm_v / denom) ** (1.0 / (ts - 2.0))
    return float(r_min * t_lam), float(t_lam)


@pytest.fixture(scope="session")
def reference_minimizer_amplitudes():
    """The quadrature `limit.minimizer_amplitudes` that the closed form replaced, as an oracle."""
    return _reference_minimizer_amplitudes


def _reference_nehari_descent(engine, z):
    # the project-after-step Sobolev gradient descent that L-BFGS on the
    # Nehari quotient replaced: steps along g / shift, Armijo backtracking,
    # a ray projection after every step, at most 400 steps, handing over to
    # Newton at gradient norm 1e-3; imported here, as test_harness.py copies
    # this file where sinesolve is not
    from sinesolve.errors import NoProjectionError
    from sinesolve.nehari import project_ray

    on_ray = 0.5 - 1.0 / engine.p
    z = project_ray(engine, z)
    e0 = on_ray * engine.quadratic(z)
    step = 1.0
    for _ in range(400):
        g = engine.gradient(z)
        if np.linalg.norm(g) < 1e-3:
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


@pytest.fixture(scope="session")
def reference_nehari_descent():
    """The Sobolev descent that `nehari.nehari_descent` replaced, as an oracle."""
    return _reference_nehari_descent


def _reference_deflation_factor(z, deflate):
    # the per-point deflation factor that stacking the sign images replaced:
    # four fresh sign images and one np.linalg.norm per image at every call;
    # imported here, as test_harness.py copies this file where sinesolve is not
    from sinesolve.energy import sign_orbit
    from sinesolve.nehari import DEFLATION_POWER, DEFLATION_SHIFT

    eta = 1.0
    grad_eta = np.zeros_like(z)
    for zi in deflate:
        dists = [(np.linalg.norm(z - img), img) for img in sign_orbit(zi)]
        d, img = min(dists, key=lambda t: t[0])
        d = max(d, 1e-13)
        m_i = d ** (-DEFLATION_POWER) + DEFLATION_SHIFT
        eta *= m_i
        grad_eta += (-DEFLATION_POWER * d ** (-DEFLATION_POWER - 1.0) / m_i) * (z - img) / d
    return eta, eta * grad_eta


@pytest.fixture(scope="session")
def reference_deflation_factor():
    """The per-point `nehari._deflation_factor` before the images were stacked, as an oracle."""
    return _reference_deflation_factor


def _grid_single_power_max(q, r_grid):
    # max_s (r s - s^q) searched on a 1e4-point s-grid for each r, as
    # `estimates.verify_single_power` did before it took the exact maximizer
    r = np.asarray(r_grid, dtype=float)
    s_hi = 2.0 * (np.max(r) / q) ** (1.0 / (q - 1.0)) + 1.0
    s = np.linspace(0.0, s_hi, 10000)
    return np.maximum(np.max(r[:, None] * s[None, :] - s[None, :] ** q, axis=1), 0.0)


@pytest.fixture(scope="session")
def grid_single_power_max():
    """Brute-force oracle for the left side of `estimates.verify_single_power`."""
    return _grid_single_power_max


def _grid_product_powers(alpha, beta, r_grid):
    # max over [0,1]^2 of r s1 s2 - s1^a s2^b on a 300 x 300 grid for each r,
    # and the constant fitted as the largest ratio to the majorant, as
    # `estimates.verify_product_powers` did before it took the sharp constant
    r = np.asarray(r_grid, dtype=float)
    s = np.linspace(0.0, 1.0, 300)
    prod = s[:, None] * s[None, :]
    power = s[:, None] ** alpha * s[None, :] ** beta
    lhs = np.array([max(np.max(rr * prod - power), 0.0) for rr in r])
    majorant = np.maximum(r ** (alpha / (alpha - 1.0)), r ** (beta / (beta - 1.0)))
    pos = majorant > 0
    return lhs, float(np.max(lhs[pos] / majorant[pos]))


@pytest.fixture(scope="session")
def grid_product_powers():
    """Brute-force oracle for `estimates.verify_product_powers`: grid maxima and fitted constant."""
    return _grid_product_powers


def _grid_ray_maximum(quad, hom, two_star):
    # max_t of quad t^2/2 - hom t^{2*}/2* by a 4001-point grid on [0, 2 t*] and
    # a golden section between the neighbours of its best node, as
    # `estimates.ray_maximum` did before it took the stationary point;
    # imported here, as test_harness.py copies this file where sinesolve is not
    from sinesolve.estimates import ray_energy
    from sinesolve.limit import _golden_min

    t_star = (quad / hom) ** (1.0 / (two_star - 2.0))
    ts_grid = np.linspace(0.0, 2.0 * t_star, 4001)
    j = int(np.argmax(ray_energy(ts_grid, quad, hom, two_star)))
    lo, hi = ts_grid[max(j - 1, 0)], ts_grid[min(j + 1, len(ts_grid) - 1)]
    t_max = _golden_min(lambda t: -ray_energy(t, quad, hom, two_star), lo, hi, tol=1e-14 * max(t_star, 1.0))
    return float(ray_energy(t_max, quad, hom, two_star))


@pytest.fixture(scope="session")
def grid_ray_maximum():
    """Grid-plus-golden oracle for the direct value of `estimates.ray_maximum`."""
    return _grid_ray_maximum
