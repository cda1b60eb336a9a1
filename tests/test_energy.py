"""Bilinear forms, coupled energy, Galerkin gradient, and nonpositive modes."""

import numpy as np
import pytest

from sinesolve import (
    BoxDomain,
    GalerkinSystem,
    ScalarProblem,
    SineBasis,
    SystemParams,
    nonpositive_modes,
)


@pytest.fixture(scope="module")
def basis():
    return SineBasis(BoxDomain((1.0,)), (16,))


def params_with(**kw):
    base = dict(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=1)
    base.update(kw)
    return SystemParams(**base)


def e1_pair(basis):
    """The stacked pair (e_1, 0)."""
    z = np.zeros(2 * basis.size)
    z[0] = 1.0
    return z


def test_params_validation():
    with pytest.raises(ValueError):
        params_with(mu1=-1.0)
    with pytest.raises(ValueError):
        params_with(alpha=1.0)
    with pytest.raises(ValueError):
        params_with(lam=0.0)
    # p above critical rejected for dim >= 3
    with pytest.raises(ValueError):
        params_with(alpha=3.0, beta=4.0, dim=3)


def test_params_critical_flag():
    p4 = params_with(dim=4)  # alpha + beta = 4 = 2*4/2
    assert p4.p == p4.critical_exponent
    assert params_with(dim=1, alpha=2.5, beta=2.5).critical_exponent == float("inf")


def test_bilinear_examples(basis):
    # B_1(e_1, e_1) is the quadratic form of the pair (e_1, 0)
    z = e1_pair(basis)
    assert GalerkinSystem(params_with(), basis).quadratic(z) == pytest.approx(np.pi**2, rel=1e-14)
    assert GalerkinSystem(params_with(kappa1=np.pi**2), basis).quadratic(z) == pytest.approx(0.0, abs=1e-14)
    assert GalerkinSystem(params_with(kappa1=15.0), basis).quadratic(z) == pytest.approx(np.pi**2 - 15.0, rel=1e-12)


def test_bilinear_symmetry(basis):
    # B(u, v) = u . H(0) v, with H(0) the Hessian at the origin, where the
    # nonlinear weights vanish; it agrees with the polarized quadratic form
    rng = np.random.default_rng(0)
    sys = GalerkinSystem(params_with(kappa1=5.0, kappa2=-2.0), basis)
    u, v = rng.standard_normal((2, 2 * basis.size))
    h0 = sys.hessian(np.zeros(2 * basis.size))
    assert u @ h0 @ v == pytest.approx(v @ h0 @ u, rel=1e-15)
    assert u @ h0 @ v == pytest.approx((sys.quadratic(u + v) - sys.quadratic(u - v)) / 4, rel=1e-12)


def test_energy_zero(basis):
    assert GalerkinSystem(params_with(), basis).energy(np.zeros(2 * basis.size)) == 0.0


def test_energy_single_component(basis):
    expected = np.pi**2 / 2 - 1.5 / 4  # analytic: ||e1||^2/2 - (1/4) int e1^4
    assert GalerkinSystem(params_with(), basis).energy(e1_pair(basis)) == pytest.approx(expected, rel=1e-12)


def test_energy_symmetric_pair(basis):
    z = e1_pair(basis)
    z[basis.size] = 1.0  # (e_1, e_1)
    expected = np.pi**2 - 2 * (1.5 / 4) - 1.5
    assert GalerkinSystem(params_with(), basis).energy(z) == pytest.approx(expected, rel=1e-12)


def test_gradient_zero(basis):
    g = GalerkinSystem(params_with(), basis).gradient(np.zeros(2 * basis.size))
    assert np.all(g == 0.0)


def test_gradient_semitrivial_structure(basis):
    # with u2 = 0 and beta > 1 the second component of the gradient vanishes
    g = GalerkinSystem(params_with(), basis).gradient(e1_pair(basis))
    assert np.linalg.norm(g[basis.size :]) == 0.0


def test_gradient_finite_differences(basis):
    rng = np.random.default_rng(1)
    pr = params_with(kappa1=3.0, kappa2=-1.0, mu2=2.0, lam=1.5)
    sys = GalerkinSystem(pr, basis)
    z = 0.3 * rng.standard_normal(2 * basis.size)
    g = sys.gradient(z)
    h = 1e-5
    for _ in range(10):
        v = rng.standard_normal(2 * basis.size)
        v /= np.linalg.norm(v)
        fd = (sys.energy(z + h * v) - sys.energy(z - h * v)) / (2 * h)
        assert np.dot(g, v) == pytest.approx(fd, rel=1e-5)


def test_hessian_is_gradient_jacobian(basis):
    rng = np.random.default_rng(2)
    pr = params_with(kappa1=15.0, lam=2.0)
    sys = GalerkinSystem(pr, basis)
    z = 0.4 * rng.standard_normal(2 * basis.size)
    H = sys.hessian(z)
    h = 1e-5
    for j in rng.choice(2 * basis.size, size=6, replace=False):
        dz = np.zeros(2 * basis.size)
        dz[j] = h
        col = (sys.gradient(z + dz) - sys.gradient(z - dz)) / (2 * h)
        np.testing.assert_allclose(H[:, j], col, rtol=1e-4, atol=1e-8)


def test_spectral_split_cases(basis):
    # nonpositive_modes gives (zero, minus) for one kappa
    gamma1, gamma2 = basis.eigenvalues[:2]
    # positive definite
    assert [z.tolist() for z in nonpositive_modes(basis, 5.0)] == [[], []]
    # resonant kappa lands in the zero part
    assert [z.tolist() for z in nonpositive_modes(basis, np.pi**2)] == [[0], []]
    # one negative mode
    assert [z.tolist() for z in nonpositive_modes(basis, 15.0)] == [[], [0]]
    # kappa = gamma_2 = 4 pi^2: mode 1 is the zero part, mode 0 the negative one
    assert [z.tolist() for z in nonpositive_modes(basis, 4 * np.pi**2)] == [[1], [0]]
    # the zero band is 1e-9 gamma_1 wide
    assert nonpositive_modes(basis, gamma2 + 0.5e-9 * gamma1)[0].tolist() == [1]
    assert nonpositive_modes(basis, gamma2 + 2e-9 * gamma1)[1].tolist() == [0, 1]
    assert nonpositive_modes(basis, gamma2 - 2e-9 * gamma1)[1].tolist() == [0]


@pytest.mark.parametrize("kappa1, kappa2, stacked", [
    (5.0, 5.0, []),  # definite
    (15.0, 15.0, [0, 16]),  # one negative mode
    (np.pi**2, np.pi**2, [0, 16]),  # resonant: the zero part
    (15.0, 45.0, [0, 16, 17]),  # kappa_1 != kappa_2
    (4 * np.pi**2, 15.0, [1, 0, 16]),  # kappa_1 = gamma_2: zero part first
], ids=["definite", "negative", "resonant", "unequal", "resonant-second"])
def test_engine_tilde_is_the_spectral_split(basis, kappa1, kappa2, stacked):
    # each engine's tilde is zero followed by minus from nonpositive_modes, per kappa
    pr = params_with(kappa1=kappa1, kappa2=kappa2)
    m = basis.size
    tilde = [np.concatenate(nonpositive_modes(basis, k)) for k in (kappa1, kappa2)]
    system = GalerkinSystem(pr, basis)
    assert system.tilde.tolist() == stacked
    np.testing.assert_array_equal(system.tilde, np.concatenate([tilde[0], m + tilde[1]]))
    # the H^1 weights of the positive part: gamma_k off X~, 0 on it
    gamma = np.tile(basis.eigenvalues, 2)
    np.testing.assert_array_equal(system.plus_weights, np.where(np.isin(np.arange(2 * m), stacked), 0.0, gamma))
    for kappa, t in zip((kappa1, kappa2), tilde):
        scalar = ScalarProblem(basis, kappa, 1.0, pr.p)
        np.testing.assert_array_equal(scalar.tilde, t)
        np.testing.assert_array_equal(scalar.plus_weights, np.where(np.isin(np.arange(m), t), 0.0, basis.eigenvalues))


def test_split_size_monotone_in_kappa(basis):
    sizes = []
    for kappa in (1.0, 15.0, 45.0, 100.0):
        sizes.append(sum(z.size for z in nonpositive_modes(basis, kappa)))
    assert sizes == sorted(sizes)


def test_b_positive_definite_on_plus(basis):
    rng = np.random.default_rng(6)
    pr = params_with(kappa1=15.0, kappa2=15.0)
    n = 2 * basis.size
    plus = np.ones(n, dtype=bool)
    plus[GalerkinSystem(pr, basis).tilde] = False
    floor = min(np.tile(basis.eigenvalues - 15.0, 2)[plus])
    sys = GalerkinSystem(pr, basis)
    for _ in range(20):
        z = np.where(plus, rng.standard_normal(n), 0.0)
        assert sys.quadratic(z) >= floor * np.sum(z**2) - 1e-12


def test_engines_integrate_on_the_basis_grid(basis):
    pr = params_with()
    assert GalerkinSystem(pr, basis).grid is basis.grid
    assert ScalarProblem(basis, pr.kappa1, pr.mu1, pr.p).grid is basis.grid


def test_evenness(basis):
    rng = np.random.default_rng(7)
    pr = params_with(kappa1=2.0, mu2=3.0, lam=0.7)
    z = rng.standard_normal(2 * basis.size)
    sys = GalerkinSystem(pr, basis)
    m = basis.size
    flip2 = z.copy()
    flip2[m:] *= -1.0
    e0 = sys.energy(z)
    assert sys.energy(-z) == pytest.approx(e0, abs=1e-12 * max(abs(e0), 1))
    assert sys.energy(flip2) == pytest.approx(e0, abs=1e-12 * max(abs(e0), 1))


def test_euler_identity(basis):
    # E(u) = <g,u>/2 + (1/2 - 1/p) int(mu |u|^p) + lam (p/2 - 1) int |u1|^a |u2|^b
    rng = np.random.default_rng(8)
    pr = params_with(kappa1=12.0, mu2=2.0, lam=2.5)
    sys = GalerkinSystem(pr, basis)
    for _ in range(10):
        z = rng.standard_normal(2 * basis.size)
        m1, m2, mix = sys.power_masses(z)
        lhs = sys.energy(z)
        rhs = (
            0.5 * np.dot(sys.gradient(z), z)
            + (0.5 - 1.0 / pr.p) * (pr.mu1 * m1 + pr.mu2 * m2)
            + pr.lam * (pr.p / 2.0 - 1.0) * mix
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_scalar_energy_and_gradient(basis):
    pr = params_with()
    prob1 = ScalarProblem(basis, pr.kappa1, pr.mu1, pr.p)
    assert prob1.energy(e1_pair(basis)[: basis.size]) == pytest.approx(np.pi**2 / 2 - 0.375, rel=1e-12)
    assert prob1.energy(np.zeros(basis.size)) == 0.0
    rng = np.random.default_rng(9)
    c = 0.5 * rng.standard_normal(basis.size)
    prob2 = ScalarProblem(basis, pr.kappa2, pr.mu2, pr.p)
    g = prob2.gradient(c)
    h = 1e-5
    for _ in range(5):
        v = rng.standard_normal(basis.size)
        v /= np.linalg.norm(v)
        fd = (prob2.energy(c + h * v) - prob2.energy(c - h * v)) / (2 * h)
        assert np.dot(g, v) == pytest.approx(fd, rel=1e-5)


# -- the point state -------------------------------------------------------------

POINT_CASES = {
    1: ((1.0,), (8,)),
    2: ((1.0, 0.7), (4, 3)),
    3: ((1.0, 1.3, 0.8), (3, 2, 2)),
}


def _point_engines(dim):
    # alpha < 2 puts a negative exponent into the Hessian weights
    lengths, cutoffs = POINT_CASES[dim]
    basis = SineBasis(BoxDomain(lengths), cutoffs)
    gamma1 = float(basis.eigenvalues[0])
    pr = params_with(kappa1=1.5 * gamma1, kappa2=0.5 * gamma1, mu2=2.0, lam=3.0, alpha=1.5, beta=2.5, dim=dim)
    return {
        "system": (lambda: GalerkinSystem(pr, basis), 2 * basis.size, "power_masses"),
        "scalar": (lambda: ScalarProblem(basis, pr.kappa1, pr.mu1, pr.p), basis.size, "mass"),
    }


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("kind", ["system", "scalar"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_state_matches_fresh_engine(dim, kind):
    # one engine asked over z_a, z_b, z_a in varying orders gives the bits of
    # a fresh engine per call
    make, n, masses = _point_engines(dim)[kind]
    rng = np.random.default_rng(dim)
    za, zb = rng.standard_normal(n), rng.standard_normal(n)
    names = ["energy", "gradient", "hessian", masses, "nehari_denominator", "quadratic"]
    engine = make()
    for z, order in ((za, names), (zb, names[::-1]), (za, names[2:] + names[:2])):
        for name in order:
            got = getattr(engine, name)(z)
            want = getattr(make(), name)(z)
            assert _bits(got) == _bits(want), name


@pytest.mark.parametrize("kind", ["system", "scalar"])
def test_point_state_follows_caller_mutation(kind):
    make, n, _ = _point_engines(2)[kind]
    engine = make()
    z = np.random.default_rng(4).standard_normal(n)
    g_old = engine.gradient(z)
    e_old = engine.energy(z)
    z[1] += 0.25  # the caller reuses its buffer
    assert _bits(engine.gradient(z)) == _bits(make().gradient(z))
    assert _bits(engine.energy(z)) == _bits(make().energy(z))
    assert engine.energy(z) != e_old and not np.array_equal(engine.gradient(z), g_old)
    # a bitwise-different zero is a different point
    z0 = np.zeros(n)
    assert engine.at(z0) is engine.at(z0.copy())
    assert engine.at(-z0) is not engine.at(z0)


@pytest.mark.parametrize("kind", ["system", "scalar"])
def test_point_state_keeps_the_last_point_only(kind):
    make, n, _ = _point_engines(1)[kind]
    engine = make()
    za, zb = np.random.default_rng(6).standard_normal((2, n))
    a = engine.at(za)
    assert engine.at(za.copy()) is a
    b = engine.at(zb)
    assert b is not a and engine.at(zb) is b
    # the new point evicted the old one: asking for za again builds a fresh state
    a2 = engine.at(za)
    assert a2 is not a and a2.values == {}
    assert engine.at(zb) is not b


@pytest.mark.parametrize("kind", ["system", "scalar"])
def test_point_state_arrays_are_read_only(kind):
    make, n, _ = _point_engines(1)[kind]
    engine = make()
    z = np.random.default_rng(5).standard_normal(n)
    for arr in (engine.gradient(z), engine.hessian(z), engine.at(z).z):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert engine.at(z).z is not z
