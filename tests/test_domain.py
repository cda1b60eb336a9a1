"""Eigenbasis, quadrature, and transform checks for the box sine basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinesolve import (
    BoxDomain,
    QuadratureGrid,
    ScalarField,
    SineBasis,
    eigenvalue,
    h1_inner,
    integrate,
    project,
    synthesize,
    unit_mode,
)
from sinesolve.domain import mode_mass_matrix
from sinesolve.errors import BasisMismatchError


@pytest.fixture(scope="module")
def basis_1d():
    return SineBasis(BoxDomain((1.0,)), (16,))


@pytest.fixture(scope="module")
def grid_1d(basis_1d):
    return QuadratureGrid.for_basis(basis_1d)


def test_eigenvalue_analytic_1d(basis_1d):
    assert eigenvalue(basis_1d, 0) == pytest.approx(np.pi**2, rel=1e-14)


def test_eigenvalue_analytic_2d():
    b = SineBasis(BoxDomain((1.0, 1.0)), (4, 4))
    # lowest mode of the unit square
    assert b.modes[0].tolist() == [1, 1]
    assert eigenvalue(b, 0) == pytest.approx(2 * np.pi**2, rel=1e-14)


def test_eigenvalue_anisotropic_box():
    b = SineBasis(BoxDomain((1.0, 2.0)), (4, 4))
    assert eigenvalue(b, 0) == pytest.approx(np.pi**2 * (1.0 + 0.25), rel=1e-14)


def test_eigenvalue_range_check(basis_1d):
    with pytest.raises(IndexError):
        eigenvalue(basis_1d, basis_1d.size)


def test_mode_ordering_nondecreasing():
    b = SineBasis(BoxDomain((1.0, 2.0, 0.7)), (3, 4, 2))
    assert np.all(np.diff(b.eigenvalues) >= -1e-14)


def test_mode_ordering_ties_lexicographic():
    b = SineBasis(BoxDomain((1.0, 1.0)), (3, 3))
    # (1,2) and (2,1) tie; lexicographic order puts (1,2) first
    gamma = b.eigenvalues
    tied = np.flatnonzero(np.abs(gamma - 5 * np.pi**2) < 1e-9)
    assert [b.modes[t].tolist() for t in tied] == [[1, 2], [2, 1]]


def test_synthesize_zero(basis_1d, grid_1d):
    f = ScalarField(basis_1d, np.zeros(basis_1d.size))
    assert np.all(synthesize(f, grid_1d) == 0.0)


def test_synthesize_single_mode(basis_1d, grid_1d):
    vals = synthesize(unit_mode(basis_1d, 2), grid_1d)
    x = grid_1d.axis_nodes[0]
    k = basis_1d.modes[2][0]
    np.testing.assert_allclose(vals, np.sqrt(2) * np.sin(k * np.pi * x), atol=1e-14)


def test_synthesize_linearity(basis_1d, grid_1d):
    f = unit_mode(basis_1d, 0)
    g = unit_mode(basis_1d, 1)
    both = synthesize(f + g, grid_1d)
    np.testing.assert_allclose(both, synthesize(f, grid_1d) + synthesize(g, grid_1d), atol=1e-14)


def test_synthesize_domain_mismatch(basis_1d):
    other = QuadratureGrid.for_domain(BoxDomain((2.0,)), 32)
    with pytest.raises(BasisMismatchError):
        synthesize(unit_mode(basis_1d, 0), other)


def test_integrate_constant_unit_square():
    dom = BoxDomain((1.0, 1.0))
    grid = QuadratureGrid.for_domain(dom, 24)
    assert integrate(np.ones(grid.shape), grid) == pytest.approx(1.0, abs=1e-12)


def test_integrate_mode_square(basis_1d, grid_1d):
    vals = synthesize(unit_mode(basis_1d, 0), grid_1d)
    assert integrate(vals**2, grid_1d) == pytest.approx(1.0, abs=1e-10)


def test_integrate_mode_quartic(basis_1d, grid_1d):
    # oracle: high-resolution trapezoid of (sqrt(2) sin(pi x))^4
    x = np.linspace(0.0, 1.0, 200001)
    oracle = np.trapezoid((np.sqrt(2.0) * np.sin(np.pi * x)) ** 4, x)
    assert oracle == pytest.approx(1.5, abs=1e-9)
    vals = synthesize(unit_mode(basis_1d, 0), grid_1d)
    assert integrate(vals**4, grid_1d) == pytest.approx(1.5, abs=1e-10)


def test_integrate_shape_mismatch(grid_1d):
    with pytest.raises(ValueError):
        integrate(np.ones(3), grid_1d)


def test_h1_inner_first_mode(basis_1d):
    e1 = unit_mode(basis_1d, 0)
    assert h1_inner(e1, e1) == pytest.approx(np.pi**2, rel=1e-14)


def test_h1_inner_orthogonal(basis_1d):
    assert h1_inner(unit_mode(basis_1d, 0), unit_mode(basis_1d, 3)) == 0.0


def test_h1_inner_two_modes(basis_1d):
    c = np.zeros(basis_1d.size)
    c[:2] = 1.0
    f = ScalarField(basis_1d, c)
    assert h1_inner(f, f) == pytest.approx(np.pi**2 + 4 * np.pi**2, rel=1e-14)


def test_h1_inner_basis_mismatch(basis_1d):
    other = SineBasis(BoxDomain((1.0,)), (8,))
    with pytest.raises(BasisMismatchError):
        h1_inner(unit_mode(basis_1d, 0), unit_mode(other, 0))


def test_gram_identity(basis_1d, grid_1d):
    gram = mode_mass_matrix(np.ones(grid_1d.shape), basis_1d, grid_1d)
    assert np.abs(gram - np.eye(basis_1d.size)).max() < 1e-10


def test_quadrature_weights_positive_and_sum(grid_1d):
    for w, L in zip(grid_1d.axis_weights, grid_1d.lengths):
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(L, rel=1e-12)


def test_parseval_property():
    # quadrature of the squared synthesis equals sum of squared coefficients
    rng = np.random.default_rng(3)
    for K in (8, 24, 50):
        basis = SineBasis(BoxDomain((1.0,)), (K,))
        grid = QuadratureGrid.for_domain(basis.domain, 2 * K + 8)
        c = rng.standard_normal(K)
        f = ScalarField(basis, c)
        quad = integrate(synthesize(f, grid) ** 2, grid)
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
    grid = QuadratureGrid.for_basis(basis)
    c = np.random.default_rng(seed).standard_normal(basis.size)
    quad = integrate(synthesize(ScalarField(basis, c), grid) ** 2, grid)
    assert quad == pytest.approx(np.sum(c**2), rel=1e-8)


def test_poincare_in_coefficients():
    rng = np.random.default_rng(4)
    basis = SineBasis(BoxDomain((1.3,)), (12,))
    for _ in range(20):
        c = rng.standard_normal(basis.size)
        f = ScalarField(basis, c)
        assert h1_inner(f, f) >= basis.eigenvalues[0] * np.sum(c**2) - 1e-12


def test_eigenvalue_order_invariant():
    b = SineBasis(BoxDomain((1.0, 0.6)), (5, 7))
    for i in range(b.size - 1):
        assert eigenvalue(b, i) <= eigenvalue(b, i + 1) + 1e-14


def test_fields_immutable(basis_1d):
    f = unit_mode(basis_1d, 0)
    with pytest.raises(ValueError):
        f.coeffs[0] = 2.0


# -- transform tables ----------------------------------------------------------


def _table_apply(tensor, mats):
    out = tensor
    for ax, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=(1, ax)), 0, ax)
    return out


@pytest.mark.parametrize(
    "lengths, cutoffs",
    [((1.0,), (12,)), ((1.0, 0.7), (5, 4)), ((1.0, 1.3, 0.8), (3, 4, 2))],
)
def test_transforms_match_explicit_tables(lengths, cutoffs):
    # the arithmetic of sine tables rebuilt from axis_matrix on every call
    basis = SineBasis(BoxDomain(lengths), cutoffs)
    grid = QuadratureGrid.for_basis(basis, oversample=2.0)
    rng = np.random.default_rng(7)
    tables = [basis.axis_matrix(i, grid.axis_nodes[i]) for i in range(grid.dim)]
    perm = np.ravel_multi_index((basis.modes - 1).T, basis.cutoffs)

    c = rng.standard_normal(basis.size)
    t = np.zeros(basis.cutoffs)
    t.ravel()[perm] = c
    np.testing.assert_array_equal(
        synthesize(ScalarField(basis, c), grid), _table_apply(t, tables)
    )

    values = rng.standard_normal(grid.shape)
    weighted = [(s * w[:, None]).T for s, w in zip(tables, grid.axis_weights)]
    np.testing.assert_array_equal(
        project(values, basis, grid), _table_apply(values, weighted).ravel()[perm]
    )

    n = grid.dim
    a = values
    for i, w in enumerate(grid.axis_weights):
        a = a * w.reshape((-1,) + (1,) * (n - 1 - i))
    for s in tables:
        a = np.einsum("q...,qk,ql->...kl", a, s, s, optimize=True)
    a = np.transpose(a, axes=list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    a = a.reshape(basis.size, basis.size)[np.ix_(perm, perm)]
    np.testing.assert_array_equal(mode_mass_matrix(values, basis, grid), a)


@pytest.mark.parametrize(
    "lengths, cutoffs",
    [((1.0,), (24,)), ((1.0, 0.7), (8, 3)), ((1.0, 2.5, 0.6), (4, 5, 2))],
)
def test_planned_mass_paths_match_fresh_einsum(lengths, cutoffs):
    # each axis of mode_mass_matrix with its stored path gives the bits of an
    # einsum that plans its own path (optimize=True), on real operands
    basis = SineBasis(BoxDomain(lengths), cutoffs)
    grid = QuadratureGrid.for_basis(basis, oversample=2.0)
    tr = grid.transform(basis)
    a = np.random.default_rng(11).standard_normal(grid.shape)
    for S, path in zip(tr.synthesis, tr.mass_paths):
        assert path == np.einsum_path("q...,qk,ql->...kl", a, S, S, optimize=True)[0]
        planned = np.einsum("q...,qk,ql->...kl", a, S, S, optimize=path)
        fresh = np.einsum("q...,qk,ql->...kl", a, S, S, optimize=True)
        assert planned.tobytes() == fresh.tobytes()
        a = fresh
    assert a.shape == tuple(k for k in basis.cutoffs for _ in (0, 1))


def test_transform_tables_built_once(monkeypatch):
    basis = SineBasis(BoxDomain((1.0, 0.5)), (6, 3))
    grid = QuadratureGrid.for_basis(basis)
    calls = []
    original = SineBasis.axis_matrix

    def counting(self, axis, x):
        calls.append(axis)
        return original(self, axis, x)

    monkeypatch.setattr(SineBasis, "axis_matrix", counting)
    c = np.arange(basis.size, dtype=float)
    for _ in range(3):
        vals = synthesize(ScalarField(basis, c), grid)
        project(vals, basis, grid)
        mode_mass_matrix(vals, basis, grid)
    # an equal basis built separately reads the same tables
    synthesize(unit_mode(SineBasis(BoxDomain((1.0, 0.5)), (6, 3)), 0), grid)
    assert calls == [0, 1]
    assert grid.transform(basis) is grid.transform(SineBasis(BoxDomain((1.0, 0.5)), (6, 3)))


def test_two_bases_on_one_grid_keep_their_own_tables():
    small = SineBasis(BoxDomain((1.0,)), (4,))
    large = SineBasis(BoxDomain((1.0,)), (9,))
    grid = QuadratureGrid.for_domain(small.domain, 32)
    assert grid.transform(small) is not grid.transform(large)
    assert grid.transform(small).synthesis[0].shape == (32, 4)
    assert grid.transform(large).synthesis[0].shape == (32, 9)
    c = np.zeros(large.size)
    c[:4] = [1.0, -2.0, 0.5, 3.0]
    np.testing.assert_allclose(
        synthesize(ScalarField(large, c), grid),
        synthesize(ScalarField(small, c[:4]), grid),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        project(np.ones(grid.shape), large, grid)[:4],
        project(np.ones(grid.shape), small, grid),
        atol=1e-13,
    )


def test_transform_domain_mismatch(basis_1d):
    other = QuadratureGrid.for_domain(BoxDomain((2.0,)), 32)
    with pytest.raises(BasisMismatchError):
        project(np.ones(other.shape), basis_1d, other)
    with pytest.raises(BasisMismatchError):
        mode_mass_matrix(np.ones(other.shape), basis_1d, other)


def test_transform_shared_across_threads():
    # many threads racing on first use of one grid: one table set per basis,
    # and every synthesis equals the serial one
    import sys
    import threading

    bases = [SineBasis(BoxDomain((1.0, 0.8)), (k, 3)) for k in (2, 4, 6)]
    grid = QuadratureGrid.for_domain(bases[0].domain, 24)
    fields = [ScalarField(b, np.linspace(1.0, 2.0, b.size)) for b in bases]
    expected = [synthesize(f, QuadratureGrid.for_domain(b.domain, 24)) for f, b in zip(fields, bases)]
    mismatches, seen = [], set()

    def work():
        for _ in range(20):
            for f, want in zip(fields, expected):
                if not np.array_equal(synthesize(f, grid), want):
                    mismatches.append(f.basis.cutoffs)
                seen.add((f.basis.cutoffs, id(grid.transform(f.basis))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
    assert len(seen) == len(bases)
