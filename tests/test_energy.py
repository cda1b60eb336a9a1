"""Bilinear forms, coupled energy, Galerkin gradient, and spectral splitting."""

import numpy as np
import pytest

from sinesolve import (
    BoxDomain,
    GalerkinSystem,
    PairField,
    QuadratureGrid,
    ScalarField,
    ScalarProblem,
    SineBasis,
    SystemParams,
    bilinear_b,
    bilinear_bi,
    energy,
    gradient,
    scalar_energy,
    scalar_gradient,
    spectral_split,
    unit_mode,
    zero_pair,
)


@pytest.fixture(scope="module")
def basis():
    return SineBasis(BoxDomain((1.0,)), (16,))


@pytest.fixture(scope="module")
def grid(basis):
    return QuadratureGrid.for_basis(basis, oversample=2.0)


def params_with(**kw):
    base = dict(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=1)
    base.update(kw)
    return SystemParams(**base)


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
    assert p4.critical
    assert not params_with(dim=1, alpha=2.5, beta=2.5).critical


def test_bilinear_examples(basis):
    e1 = unit_mode(basis, 0)
    assert bilinear_bi(1, e1, e1, params_with()) == pytest.approx(np.pi**2, rel=1e-14)
    assert bilinear_bi(1, e1, e1, params_with(kappa1=np.pi**2)) == pytest.approx(0.0, abs=1e-14)
    assert bilinear_bi(1, e1, e1, params_with(kappa1=15.0)) == pytest.approx(np.pi**2 - 15.0, rel=1e-12)


def test_bilinear_symmetry(basis):
    rng = np.random.default_rng(0)
    pr = params_with(kappa1=5.0, kappa2=-2.0)
    u = PairField.from_coeffs(basis, rng.standard_normal(2 * basis.size))
    v = PairField.from_coeffs(basis, rng.standard_normal(2 * basis.size))
    assert bilinear_b(u, v, pr) == pytest.approx(bilinear_b(v, u, pr), rel=1e-15)


def test_energy_zero(basis, grid):
    assert energy(zero_pair(basis), params_with(), grid) == 0.0


def test_energy_single_component(basis, grid):
    u = PairField(unit_mode(basis, 0), ScalarField(basis, np.zeros(basis.size)))
    expected = np.pi**2 / 2 - 1.5 / 4  # analytic: ||e1||^2/2 - (1/4) int e1^4
    assert energy(u, params_with(), grid) == pytest.approx(expected, rel=1e-12)


def test_energy_symmetric_pair(basis, grid):
    u = PairField(unit_mode(basis, 0), unit_mode(basis, 0))
    expected = np.pi**2 - 2 * (1.5 / 4) - 1.5
    assert energy(u, params_with(), grid) == pytest.approx(expected, rel=1e-12)


def test_gradient_zero(basis, grid):
    g = gradient(zero_pair(basis), params_with(), grid)
    assert np.all(g.coeffs() == 0.0)


def test_gradient_semitrivial_structure(basis, grid):
    # with u2 = 0 and beta > 1 the second component of the gradient vanishes
    u = PairField(unit_mode(basis, 0), ScalarField(basis, np.zeros(basis.size)))
    g = gradient(u, params_with(), grid)
    assert np.linalg.norm(g.u2.coeffs) == 0.0


def test_gradient_finite_differences(basis, grid):
    rng = np.random.default_rng(1)
    pr = params_with(kappa1=3.0, kappa2=-1.0, mu2=2.0, lam=1.5)
    sys = GalerkinSystem(pr, basis, grid)
    z = 0.3 * rng.standard_normal(2 * basis.size)
    g = sys.gradient(z)
    h = 1e-5
    for _ in range(10):
        v = rng.standard_normal(2 * basis.size)
        v /= np.linalg.norm(v)
        fd = (sys.energy(z + h * v) - sys.energy(z - h * v)) / (2 * h)
        assert np.dot(g, v) == pytest.approx(fd, rel=1e-5)


def test_hessian_is_gradient_jacobian(basis, grid):
    rng = np.random.default_rng(2)
    pr = params_with(kappa1=15.0, lam=2.0)
    sys = GalerkinSystem(pr, basis, grid)
    z = 0.4 * rng.standard_normal(2 * basis.size)
    H = sys.hessian(z)
    h = 1e-5
    for j in rng.choice(2 * basis.size, size=6, replace=False):
        dz = np.zeros(2 * basis.size)
        dz[j] = h
        col = (sys.gradient(z + dz) - sys.gradient(z - dz)) / (2 * h)
        np.testing.assert_allclose(H[:, j], col, rtol=1e-4, atol=1e-8)


def test_spectral_split_cases(basis):
    # positive definite
    s = spectral_split(params_with(kappa1=5.0, kappa2=5.0), basis)
    assert s.definite
    assert all(len(s.minus[i]) == 0 and len(s.zero[i]) == 0 for i in (0, 1))
    # resonant kappa lands in the zero part
    s = spectral_split(params_with(kappa1=np.pi**2, kappa2=np.pi**2), basis, tol=1e-9)
    assert s.zero[0].tolist() == [0]
    assert len(s.minus[0]) == 0
    # one negative mode
    s = spectral_split(params_with(kappa1=15.0, kappa2=15.0), basis)
    assert s.minus[0].tolist() == [0]
    assert len(s.zero[0]) == 0


def test_split_size_monotone_in_kappa(basis):
    sizes = []
    for kappa in (1.0, 15.0, 45.0, 100.0):
        s = spectral_split(params_with(kappa1=kappa, kappa2=kappa), basis)
        sizes.append(len(s.tilde(1)))
    assert sizes == sorted(sizes)


def test_split_projections(basis):
    rng = np.random.default_rng(5)
    s = spectral_split(params_with(kappa1=15.0, kappa2=45.0), basis)
    u = PairField.from_coeffs(basis, rng.standard_normal(2 * basis.size))
    plus = s.project_plus(u)
    tilde = s.project_tilde(u)
    np.testing.assert_allclose(plus.coeffs() + tilde.coeffs(), u.coeffs(), atol=1e-15)
    assert np.all(plus.u1.coeffs[s.tilde(1)] == 0.0)
    assert np.all(tilde.u2.coeffs[s.plus[1]] == 0.0)


def test_b_positive_definite_on_plus(basis):
    rng = np.random.default_rng(6)
    pr = params_with(kappa1=15.0, kappa2=15.0)
    s = spectral_split(pr, basis)
    floor = min((basis.eigenvalues - 15.0)[s.plus[0]])
    for _ in range(20):
        u = s.project_plus(PairField.from_coeffs(basis, rng.standard_normal(2 * basis.size)))
        c2 = np.sum(u.coeffs() ** 2)
        assert bilinear_b(u, u, pr) >= floor * c2 - 1e-12


def test_evenness(basis, grid):
    rng = np.random.default_rng(7)
    pr = params_with(kappa1=2.0, mu2=3.0, lam=0.7)
    z = rng.standard_normal(2 * basis.size)
    u = PairField.from_coeffs(basis, z)
    m = basis.size
    flip2 = z.copy()
    flip2[m:] *= -1.0
    e0 = energy(u, pr, grid)
    assert energy(PairField.from_coeffs(basis, -z), pr, grid) == pytest.approx(e0, abs=1e-12 * max(abs(e0), 1))
    assert energy(PairField.from_coeffs(basis, flip2), pr, grid) == pytest.approx(e0, abs=1e-12 * max(abs(e0), 1))


def test_euler_identity(basis, grid):
    # E(u) = <g,u>/2 + (1/2 - 1/p) int(mu |u|^p) + lam (p/2 - 1) int |u1|^a |u2|^b
    rng = np.random.default_rng(8)
    pr = params_with(kappa1=12.0, mu2=2.0, lam=2.5)
    sys = GalerkinSystem(pr, basis, grid)
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


def test_scalar_energy_and_gradient(basis, grid):
    pr = params_with()
    w = unit_mode(basis, 0)
    assert scalar_energy(w, 1, pr, grid) == pytest.approx(np.pi**2 / 2 - 0.375, rel=1e-12)
    assert scalar_energy(ScalarField(basis, np.zeros(basis.size)), 1, pr, grid) == 0.0
    rng = np.random.default_rng(9)
    c = 0.5 * rng.standard_normal(basis.size)
    w = ScalarField(basis, c)
    g = scalar_gradient(w, 2, pr, grid)
    h = 1e-5
    for _ in range(5):
        v = rng.standard_normal(basis.size)
        v /= np.linalg.norm(v)
        fd = (
            scalar_energy(ScalarField(basis, c + h * v), 2, pr, grid)
            - scalar_energy(ScalarField(basis, c - h * v), 2, pr, grid)
        ) / (2 * h)
        assert np.dot(g.coeffs, v) == pytest.approx(fd, rel=1e-5)


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
    grid = QuadratureGrid.for_basis(basis, oversample=2.0)
    gamma1 = float(basis.eigenvalues[0])
    pr = params_with(kappa1=1.5 * gamma1, kappa2=0.5 * gamma1, mu2=2.0, lam=3.0, alpha=1.5, beta=2.5, dim=dim)
    return {
        "system": (lambda: GalerkinSystem(pr, basis, grid), 2 * basis.size, "power_masses"),
        "scalar": (lambda: ScalarProblem(pr, 1, basis, grid), basis.size, "mass"),
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
    z[1] += 0.25  # the caller reuses its buffer, as MINPACK does
    assert _bits(engine.gradient(z)) == _bits(make().gradient(z))
    assert _bits(engine.energy(z)) == _bits(make().energy(z))
    assert engine.energy(z) != e_old and not np.array_equal(engine.gradient(z), g_old)
    # a bitwise-different zero is a different point
    z0 = np.zeros(n)
    assert engine.at(z0) is engine.at(z0.copy())
    assert engine.at(-z0) is not engine.at(z0)


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


@pytest.mark.parametrize("kind", ["system", "scalar"])
def test_point_state_shared_across_threads(kind):
    # threads asking one engine for their own points get the serial values
    import sys
    import threading

    make, n, _ = _point_engines(2)[kind]
    engine = make()
    points = [np.random.default_rng(10 + i).standard_normal(n) for i in range(8)]
    names = ("energy", "gradient", "hessian", "nehari_denominator")
    expected = [[_bits(getattr(make(), name)(z)) for name in names] for z in points]
    mismatches = []

    def work(i):
        for _ in range(40):
            for name, want in zip(names, expected[i]):
                if _bits(getattr(engine, name)(points[i])) != want:
                    mismatches.append((i, name))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
