"""Eigenbasis, quadrature, and transform checks for the box sine basis."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinesolve import (
    BoxDomain,
    QuadratureGrid,
    ScalarProblem,
    SineBasis,
    integrate,
    project,
    synthesize,
)
from sinesolve.domain import SineTransform, mode_mass_matrix
from sinesolve.errors import BasisMismatchError


@pytest.fixture(scope="module")
def basis_1d():
    return SineBasis(BoxDomain((1.0,)), (16,))


@pytest.fixture(scope="module")
def grid_1d(basis_1d):
    return basis_1d.grid


@pytest.fixture(scope="module")
def tr_1d(basis_1d):
    return basis_1d.transform


def unit(basis, index):
    """The coefficients of the index-th basis function (sorted mode order)."""
    return np.eye(basis.size)[index]


def h1_squared(basis, c):
    """Squared H^1 seminorm of c: the quadratic form of an engine at kappa = 0."""
    return ScalarProblem(basis, 0.0, 1.0, 4.0).quadratic(c)


def test_eigenvalue_analytic_1d(basis_1d):
    assert basis_1d.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-14)


def test_eigenvalue_analytic_2d():
    b = SineBasis(BoxDomain((1.0, 1.0)), (4, 4))
    # lowest mode of the unit square
    assert b.modes[0].tolist() == [1, 1]
    assert b.eigenvalues[0] == pytest.approx(2 * np.pi**2, rel=1e-14)


def test_eigenvalue_anisotropic_box():
    b = SineBasis(BoxDomain((1.0, 2.0)), (4, 4))
    assert b.eigenvalues[0] == pytest.approx(np.pi**2 * (1.0 + 0.25), rel=1e-14)


def test_mode_ordering_nondecreasing():
    b = SineBasis(BoxDomain((1.0, 2.0, 0.7)), (3, 4, 2))
    assert np.all(np.diff(b.eigenvalues) >= -1e-14)


def test_mode_ordering_ties_lexicographic():
    b = SineBasis(BoxDomain((1.0, 1.0)), (3, 3))
    # (1,2) and (2,1) tie; lexicographic order puts (1,2) first
    gamma = b.eigenvalues
    tied = np.flatnonzero(np.abs(gamma - 5 * np.pi**2) < 1e-9)
    assert [b.modes[t].tolist() for t in tied] == [[1, 2], [2, 1]]


def test_synthesize_zero(basis_1d, tr_1d):
    assert np.all(synthesize(np.zeros(basis_1d.size), tr_1d) == 0.0)


def test_synthesize_single_mode(basis_1d, grid_1d, tr_1d):
    vals = synthesize(unit(basis_1d, 2), tr_1d)
    x = grid_1d.axis_nodes[0]
    k = basis_1d.modes[2][0]
    np.testing.assert_allclose(vals, np.sqrt(2) * np.sin(k * np.pi * x), atol=1e-14)


def test_synthesize_linearity(basis_1d, tr_1d):
    f = unit(basis_1d, 0)
    g = unit(basis_1d, 1)
    both = synthesize(f + g, tr_1d)
    np.testing.assert_allclose(both, synthesize(f, tr_1d) + synthesize(g, tr_1d), atol=1e-14)


def test_synthesize_domain_mismatch(basis_1d):
    other = QuadratureGrid.for_domain(BoxDomain((2.0,)), 32)
    with pytest.raises(BasisMismatchError):
        SineTransform(basis_1d, other)


def test_integrate_constant_unit_square():
    # a constant is not in the sine space: the interior-node rule gives it
    # Q/(Q+1) per axis, while a squared tensor mode integrates to 1
    dom = BoxDomain((1.0, 1.0))
    grid = QuadratureGrid.for_domain(dom, 24)
    assert integrate(np.ones(grid.shape), grid) == pytest.approx((24 / 25) ** 2, abs=1e-15)
    basis = SineBasis(dom, (24, 24))
    mode = synthesize(unit(basis, 575), SineTransform(basis, grid))
    assert integrate(mode**2, grid) == pytest.approx(1.0, abs=1e-14)


def test_integrate_mode_square(basis_1d, grid_1d, tr_1d):
    vals = synthesize(unit(basis_1d, 0), tr_1d)
    assert integrate(vals**2, grid_1d) == pytest.approx(1.0, abs=1e-10)


def test_integrate_mode_quartic(basis_1d, grid_1d, tr_1d):
    # oracle: high-resolution trapezoid of (sqrt(2) sin(pi x))^4
    x = np.linspace(0.0, 1.0, 200001)
    oracle = np.trapezoid((np.sqrt(2.0) * np.sin(np.pi * x)) ** 4, x)
    assert oracle == pytest.approx(1.5, abs=1e-9)
    vals = synthesize(unit(basis_1d, 0), tr_1d)
    assert integrate(vals**4, grid_1d) == pytest.approx(1.5, abs=1e-10)


def test_integrate_shape_mismatch(grid_1d):
    with pytest.raises(ValueError):
        integrate(np.ones(3), grid_1d)


def test_h1_inner_first_mode(basis_1d):
    assert h1_squared(basis_1d, unit(basis_1d, 0)) == pytest.approx(np.pi**2, rel=1e-14)


def test_h1_inner_orthogonal(basis_1d):
    # polarization: the cross term of e_1 and e_4 vanishes
    f, g = unit(basis_1d, 0), unit(basis_1d, 3)
    assert h1_squared(basis_1d, f + g) == h1_squared(basis_1d, f) + h1_squared(basis_1d, g)


def test_h1_inner_two_modes(basis_1d):
    c = np.zeros(basis_1d.size)
    c[:2] = 1.0
    assert h1_squared(basis_1d, c) == pytest.approx(np.pi**2 + 4 * np.pi**2, rel=1e-14)


def test_gram_identity(basis_1d, grid_1d, tr_1d):
    gram = mode_mass_matrix(np.ones(grid_1d.shape), tr_1d)
    assert np.abs(gram - np.eye(basis_1d.size)).max() < 1e-14


@pytest.mark.parametrize(
    "cutoffs, shape",
    [((4,), (12,)), ((16,), (48,)), ((24,), (72,)), ((8, 3), (24, 9)), ((4, 4, 4), (12, 12, 12))],
)
def test_basis_grid_follows_the_node_rule(cutoffs, shape):
    # 3K interior nodes x_j = jL/(Q+1) per axis with weights L/(Q+1), built
    # once; the Gram matrix is exact, and so are the quartic and sextic
    # integrals of random fields against a 4x finer grid of the same rule
    lengths = (1.0, 0.7, 1.3)[: len(cutoffs)]
    basis = SineBasis(BoxDomain(lengths), cutoffs)
    grid = basis.grid
    assert grid.shape == shape
    assert grid is basis.grid
    assert grid.lengths == basis.domain.lengths
    for x, w, L, q in zip(grid.axis_nodes, grid.axis_weights, lengths, shape):
        np.testing.assert_allclose(x, L * np.arange(1, q + 1) / (q + 1), rtol=1e-15, atol=0)
        assert np.all(w == L / (q + 1))
    gram = mode_mass_matrix(np.ones(grid.shape), basis.transform)
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-14

    fine = QuadratureGrid.for_domain(basis.domain, [4 * q for q in shape])
    rng = np.random.default_rng(5)
    u1, u2 = (rng.standard_normal(basis.size) for _ in range(2))

    def quartic_and_sextic(tr):
        v1, v2 = synthesize(u1, tr), synthesize(u2, tr)
        return integrate(v1**4, tr.grid), integrate(v1**3 * v2**3, tr.grid)

    fine_sums = quartic_and_sextic(SineTransform(basis, fine))
    assert quartic_and_sextic(basis.transform) == pytest.approx(fine_sums, rel=1e-13)


def test_basis_with_grid_is_freed_without_the_cycle_collector():
    # the transform keeps the grid and the tables, so basis -> transform holds
    # no reference back to the basis
    import gc
    import weakref

    basis = SineBasis(BoxDomain((1.0, 0.5)), (4, 3))
    synthesize(unit(basis, 0), basis.transform)
    ref = weakref.ref(basis)
    gc.disable()
    try:
        del basis
        assert ref() is None
    finally:
        gc.enable()


def test_quadrature_weights_positive_and_sum(grid_1d):
    # equal weights L/(Q+1) on interior nodes, so they sum to L Q/(Q+1)
    for w, L in zip(grid_1d.axis_weights, grid_1d.lengths):
        q = len(w)
        assert np.all(w > 0)
        assert np.all(w == L / (q + 1))
        assert np.sum(w) == pytest.approx(L * q / (q + 1), rel=1e-14)


def test_parseval_property():
    # quadrature of the squared synthesis equals sum of squared coefficients
    rng = np.random.default_rng(3)
    for K in (8, 24, 50):
        basis = SineBasis(BoxDomain((1.0,)), (K,))
        grid = QuadratureGrid.for_domain(basis.domain, 2 * K + 8)
        c = rng.standard_normal(K)
        quad = integrate(synthesize(c, SineTransform(basis, grid)) ** 2, grid)
        assert quad == pytest.approx(np.sum(c**2), rel=1e-8)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=3),
    cutoffs=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_property_nd(lengths, cutoffs, seed):
    # the tensor sine modes stay orthonormal on 2-D and 3-D boxes
    basis = SineBasis(BoxDomain(tuple(lengths)), tuple(cutoffs[: len(lengths)]))
    grid = basis.grid
    c = np.random.default_rng(seed).standard_normal(basis.size)
    quad = integrate(synthesize(c, basis.transform) ** 2, grid)
    assert quad == pytest.approx(np.sum(c**2), rel=1e-8)


def test_poincare_in_coefficients():
    rng = np.random.default_rng(4)
    basis = SineBasis(BoxDomain((1.3,)), (12,))
    for _ in range(20):
        c = rng.standard_normal(basis.size)
        assert h1_squared(basis, c) >= basis.eigenvalues[0] * np.sum(c**2) - 1e-12


def test_eigenvalue_order_invariant():
    b = SineBasis(BoxDomain((1.0, 0.6)), (5, 7))
    for i in range(b.size - 1):
        assert b.eigenvalues[i] <= b.eigenvalues[i + 1] + 1e-14


def test_fields_immutable(basis_1d):
    # the records keep read-only copies of the coefficients they are built from
    from sinesolve import GalerkinSystem, SolverConfig, SystemParams, scalar_ground_state
    from sinesolve.nehari import evaluate_point

    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=1)
    z = np.zeros(2 * basis_1d.size)
    z[0] = 1.0
    point = evaluate_point(GalerkinSystem(pr, basis_1d), z)
    z[0] = 2.0
    assert point.z[0] == 1.0
    state = scalar_ground_state(basis_1d, pr.kappa1, pr.p, SolverConfig(n_mode_seeds=1, n_random_seeds=0))
    for arr in (point.z, state.w, state.scaled(4.0, pr.p).w):
        with pytest.raises(ValueError):
            arr[0] = 2.0


# -- transform tables ----------------------------------------------------------


# the contraction numpy's planner picks for one axis of the oracle's einsum
WEIGHT_FIRST, TABLE_FIRST = ((0, 1), (0, 1)), ((1, 2), (0, 1))


def _planner_takes_the_fixed_rule(basis, grid):
    """Whether the oracle's einsum contracts every axis as `mode_mass_matrix`
    does: weight first in 1-D, table first on every axis in n-D."""
    want = WEIGHT_FIRST if grid.dim == 1 else TABLE_FIRST
    shape = grid.shape
    for i in range(grid.dim):
        S = basis.axis_matrix(i, grid.axis_nodes[i])
        # the path depends on the shapes only, so a zero-stride stand-in serves
        a = np.broadcast_to(0.0, shape)
        if tuple(np.einsum_path("q...,qk,ql->...kl", a, S, S, optimize=True)[0][1:]) != want:
            return False
        shape = shape[1:] + (S.shape[1],) * 2
    return True


def _assert_matches_oracle(got, expected, basis, grid):
    # bit for bit where the planner contracts as the fixed rule does; on other
    # shapes it sums the same products in another order
    if _planner_takes_the_fixed_rule(basis, grid):
        assert got.tobytes() == expected.tobytes()
    else:
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def _table_apply(tensor, mats):
    out = tensor
    for ax, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=(1, ax)), 0, ax)
    return out


@pytest.mark.parametrize(
    "lengths, cutoffs",
    [
        ((1.0,), (12,)),
        ((1.0, 0.7), (5, 4)),
        ((1.0, 1.3, 0.8), (3, 4, 2)),
        ((1.0,), (16,)),
        ((1.0,), (24,)),
        ((1.0, 1.0), (8, 8)),
        ((1.0, 1.0, 1.0), (4, 4, 4)),
        ((1.0,) * 4, (2,) * 4),
    ],
)
def test_transforms_match_explicit_tables(lengths, cutoffs, reference_mode_mass_matrix):
    # the arithmetic of sine tables rebuilt from axis_matrix on every call, on
    # the basis grid and, as `estimates` builds, on a grid of its own
    basis = SineBasis(BoxDomain(lengths), cutoffs)
    other = QuadratureGrid.for_domain(basis.domain, 32)
    for grid, tr in ((basis.grid, basis.transform), (other, SineTransform(basis, other))):
        rng = np.random.default_rng(7)
        tables = [basis.axis_matrix(i, grid.axis_nodes[i]) for i in range(grid.dim)]
        perm = np.ravel_multi_index((basis.modes - 1).T, basis.cutoffs)

        c = rng.standard_normal(basis.size)
        t = np.zeros(basis.cutoffs)
        t.ravel()[perm] = c
        expected = _table_apply(t, tables)
        got = synthesize(c, tr)
        assert got.shape == expected.shape and np.all(got == expected)
        # the same memory layout, so sums over the values keep their order too
        assert got.strides == expected.strides

        values = rng.standard_normal(grid.shape)
        weighted = [(s * w[:, None]).T for s, w in zip(tables, grid.axis_weights)]
        assert np.all(project(values, tr) == _table_apply(values, weighted).ravel()[perm])
        # a transposed view, not C-contiguous once dim >= 2
        view = rng.standard_normal(grid.shape[::-1]).T
        assert np.all(project(view, tr) == _table_apply(view, weighted).ravel()[perm])

        expected = reference_mode_mass_matrix(values, basis, grid)
        _assert_matches_oracle(mode_mass_matrix(values, tr), expected, basis, grid)


# mixed cutoffs in dims 1-3 on non-cubic boxes, plus (2,)*4, (2,)*5 and (3,)*4
MASS_SWEEP = (
    [(k,) for k in (1, 2, 3, 5, 8, 16, 24, 40)]
    + [(k1, k2) for k1 in (1, 2, 3, 5, 8) for k2 in (1, 2, 3, 5, 8)]
    + [(k1, k2, k3) for k1 in (1, 2, 4) for k2 in (1, 3, 4) for k3 in (1, 2, 4)]
    + [(2,) * 4, (2,) * 5, (3,) * 4]
)


def _sweep_basis(cutoffs):
    lengths = (1.0, 0.7, 1.3, 0.9, 1.1)[: len(cutoffs)]
    return SineBasis(BoxDomain(lengths), cutoffs)


@pytest.mark.parametrize("cutoffs", MASS_SWEEP, ids=str)
def test_mode_mass_matrix_equals_einsum_oracle(cutoffs, reference_mode_mass_matrix):
    # the fixed contractions against the per-call einsum, on the basis grid
    # and on a coarser grid of its own
    basis = _sweep_basis(cutoffs)
    other = QuadratureGrid.for_domain(basis.domain, 7)
    rng = np.random.default_rng(sum(cutoffs))
    for grid, tr in ((basis.grid, basis.transform), (other, SineTransform(basis, other))):
        values = rng.standard_normal(grid.shape)
        for weights in (values, np.abs(values) ** 0.7):
            expected = reference_mode_mass_matrix(weights, basis, grid)
            _assert_matches_oracle(mode_mass_matrix(weights, tr), expected, basis, grid)


@pytest.mark.parametrize("cutoffs", [(24,), (8, 3), (4, 4, 4), (1, 1, 2)], ids=str)
def test_hessians_plan_no_einsum_after_construction(cutoffs, monkeypatch):
    # mode_mass_matrix contracts in one fixed order per dimension; neither it
    # nor a Hessian built on it ever reaches numpy's einsum planner
    from sinesolve import GalerkinSystem, SystemParams

    basis = _sweep_basis(cutoffs)
    tr = basis.transform

    def refuse(*args, **kwargs):
        raise AssertionError("einsum_path reached after the transform was built")

    monkeypatch.setattr(np, "einsum_path", refuse)
    # np.einsum calls the planner of its own module, not the numpy attribute
    monkeypatch.setattr(sys.modules[np.einsum.__wrapped__.__module__], "einsum_path", refuse)
    with pytest.raises(AssertionError, match="einsum_path reached"):
        np.einsum("ij,jk,kl->il", *[np.ones((2, 2))] * 3, optimize=True)

    values = np.random.default_rng(3).standard_normal(tr.grid.shape)
    mode_mass_matrix(values, tr)
    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=len(cutoffs))
    z = np.linspace(0.5, 1.5, 2 * basis.size)
    GalerkinSystem(pr, basis).hessian(z)
    ScalarProblem(basis, 0.0, 1.0, 4.0).hessian(z[: basis.size])


def test_transform_tables_built_once(monkeypatch):
    # one axis_matrix build per axis, and both engines on the basis share the tables
    from sinesolve import GalerkinSystem, SystemParams

    basis = SineBasis(BoxDomain((1.0, 0.5)), (6, 3))
    calls = []
    original = SineBasis.axis_matrix

    def counting(self, axis, x):
        calls.append(axis)
        return original(self, axis, x)

    monkeypatch.setattr(SineBasis, "axis_matrix", counting)
    c = np.arange(basis.size, dtype=float)
    for _ in range(3):
        vals = synthesize(c, basis.transform)
        project(vals, basis.transform)
        mode_mass_matrix(vals, basis.transform)
    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=2)
    system, scalar = GalerkinSystem(pr, basis), ScalarProblem(basis, 0.0, 1.0, 4.0)
    system.hessian(np.ones(2 * basis.size))
    scalar.gradient(c)
    assert calls == [0, 1]
    assert system.transform is scalar.transform is basis.transform


def test_two_bases_on_one_grid_keep_their_own_tables():
    small = SineBasis(BoxDomain((1.0,)), (4,))
    large = SineBasis(BoxDomain((1.0,)), (9,))
    grid = QuadratureGrid.for_domain(small.domain, 32)
    tr_small, tr_large = SineTransform(small, grid), SineTransform(large, grid)
    assert tr_small.synthesis[0].shape == (32, 4)
    assert tr_large.synthesis[0].shape == (32, 9)
    c = np.zeros(large.size)
    c[:4] = [1.0, -2.0, 0.5, 3.0]
    np.testing.assert_allclose(synthesize(c, tr_large), synthesize(c[:4], tr_small), atol=1e-13)
    np.testing.assert_allclose(
        project(np.ones(grid.shape), tr_large)[:4],
        project(np.ones(grid.shape), tr_small),
        atol=1e-13,
    )


def test_transform_domain_mismatch(basis_1d):
    other = QuadratureGrid.for_domain(BoxDomain((2.0,)), 32)
    with pytest.raises(BasisMismatchError):
        SineTransform(basis_1d, other)
    with pytest.raises(BasisMismatchError):
        SineTransform(SineBasis(BoxDomain((1.0, 2.0)), (4, 4)), other)
