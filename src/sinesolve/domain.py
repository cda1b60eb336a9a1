"""Box domains, the Dirichlet sine eigenbasis, tensor quadrature, and transforms.

The Dirichlet Laplacian on a box (0,L_1)x...x(0,L_N) has the analytic
eigenpairs

    e_k(x) = prod_i sqrt(2/L_i) sin(pi k_i x_i / L_i),
    gamma_k = pi^2 sum_i (k_i / L_i)^2,

which are L^2-orthonormal.  Fields are stored as coefficient vectors over
the modes sorted by nondecreasing eigenvalue (lexicographic tie-break), and
every integral is a tensor-product composite Gauss-Legendre rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BasisMismatchError
from .radial import panel_rule

#: Gauss-Legendre order of one quadrature panel.  At the default node count
#: (2K+8 per axis) this keeps the Gram matrix of the first ~64 modes within
#: 2e-10 of the identity.
PANEL_ORDER = 32


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (0, lengths[0]) x ... x (0, lengths[dim-1])."""

    lengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if self.dim < 1:
            raise ValueError("domain needs at least one axis")
        if any(l <= 0.0 for l in self.lengths):
            raise ValueError("box lengths must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def inscribed_radius(self) -> float:
        return 0.5 * min(self.lengths)


def _sorted_modes(lengths: Sequence[float], cutoffs: Sequence[int]) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(1, k + 1) for k in cutoffs], indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=1)  # (M, dim)
    gamma = np.pi**2 * np.sum((modes / np.asarray(lengths)) ** 2, axis=1)
    order = np.lexsort(tuple(modes[:, i] for i in reversed(range(modes.shape[1]))) + (gamma,))
    return modes[order]


@dataclass(frozen=True, eq=False)
class SineBasis:
    """Truncated sine eigenbasis with modes sorted by eigenvalue."""

    domain: BoxDomain
    cutoffs: tuple[int, ...]
    modes: np.ndarray = field(init=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", tuple(int(k) for k in self.cutoffs))
        if len(self.cutoffs) != self.domain.dim:
            raise ValueError("one cutoff per axis required")
        if any(k < 1 for k in self.cutoffs):
            raise ValueError("cutoffs must be positive")
        modes = _sorted_modes(self.domain.lengths, self.cutoffs)
        gamma = np.pi**2 * np.sum((modes / np.asarray(self.domain.lengths)) ** 2, axis=1)
        modes.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "eigenvalues", gamma)

    def __eq__(self, other):
        return (
            isinstance(other, SineBasis)
            and self.domain == other.domain
            and self.cutoffs == other.cutoffs
        )

    def __hash__(self):
        return hash((self.domain, self.cutoffs))

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    def axis_matrix(self, axis: int, x: np.ndarray) -> np.ndarray:
        """1-D factor sqrt(2/L) sin(pi k x / L) evaluated at the points x, shape (len(x), K)."""
        L = self.domain.lengths[axis]
        k = np.arange(1, self.cutoffs[axis] + 1)
        return np.sqrt(2.0 / L) * np.sin(np.pi * np.outer(x, k) / L)

    def tensor_permutation(self) -> np.ndarray:
        """Flat C-order index of each sorted mode in the (K_1,...,K_N) tensor."""
        return np.ravel_multi_index((self.modes - 1).T, self.cutoffs)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One scalar function as a coefficient vector over a sine basis."""

    basis: SineBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} coefficients, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        require_same_basis(self, other)
        return ScalarField(self.basis, self.coeffs + other.coeffs)

    def __rmul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.basis, float(scalar) * self.coeffs)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.basis, -self.coeffs)


def unit_mode(basis: SineBasis, index: int) -> ScalarField:
    """The index-th basis function (in sorted mode order) as a field."""
    c = np.zeros(basis.size)
    c[index] = 1.0
    return ScalarField(basis, c)


def require_same_basis(f: ScalarField, g: ScalarField) -> None:
    if f.basis != g.basis:
        raise BasisMismatchError("fields live on different bases")


def composite_gauss_legendre(length: float, n_nodes: int, panel_order: int = PANEL_ORDER):
    """Composite Gauss-Legendre rule on (0, length) with at least n_nodes nodes."""
    n_panels = max(1, int(np.ceil(n_nodes / panel_order)))
    return panel_rule(np.linspace(0.0, length, n_panels + 1), panel_order)


# one axis of `mode_mass_matrix`: contract the leading node axis against e_k e_l
_MASS_AXIS = "q...,qk,ql->...kl"


class SineTransform:
    """Sine tables of one basis on one grid, built once.

    `synthesis[i]` holds e_k on the nodes of axis i, `projection[i]` its
    weighted transpose, `permutation` the tensor position of each sorted
    mode, and `mass_paths[i]` the contraction path of axis i in
    `mode_mass_matrix`, planned once from the operand shapes as
    `einsum(..., optimize=True)` would plan it on every call.  Obtained
    through `QuadratureGrid.transform`, which keeps one per basis for as
    long as the grid lives.
    """

    def __init__(self, basis: "SineBasis", grid: "QuadratureGrid"):
        if not grid.compatible_with(basis):
            raise BasisMismatchError("grid and basis live on different domains")
        self.synthesis = tuple(basis.axis_matrix(i, grid.axis_nodes[i]) for i in range(grid.dim))
        self.projection = tuple(
            (s * w[:, None]).T for s, w in zip(self.synthesis, grid.axis_weights)
        )
        self.permutation = basis.tensor_permutation()
        paths, shape = [], grid.shape
        for S in self.synthesis:
            # the path depends on the shapes only, so a zero-stride stand-in serves
            a = np.broadcast_to(0.0, shape)
            paths.append(np.einsum_path(_MASS_AXIS, a, S, S, optimize=True)[0])
            shape = shape[1:] + (S.shape[1], S.shape[1])
        self.mass_paths = tuple(paths)
        for arr in (*self.synthesis, *self.projection, self.permutation):
            arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product quadrature: per-axis node and weight arrays."""

    lengths: tuple[float, ...]
    axis_nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]
    _transforms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (*self.axis_nodes, *self.axis_weights):
            arr.setflags(write=False)

    def transform(self, basis: "SineBasis") -> SineTransform:
        """The sine tables of `basis` on this grid, built on first use.

        Equal bases share one entry; if two threads race on the first use,
        setdefault keeps one of their identical table sets.
        """
        tr = self._transforms.get(basis)
        if tr is None:
            tr = self._transforms.setdefault(basis, SineTransform(basis, self))
        return tr

    @classmethod
    def for_domain(
        cls,
        domain: BoxDomain,
        nodes_per_axis: int | Sequence[int],
        panel_order: int = PANEL_ORDER,
    ) -> "QuadratureGrid":
        if np.isscalar(nodes_per_axis):
            nodes_per_axis = [int(nodes_per_axis)] * domain.dim
        rules = [
            composite_gauss_legendre(L, q, panel_order)
            for L, q in zip(domain.lengths, nodes_per_axis)
        ]
        return cls(
            lengths=domain.lengths,
            axis_nodes=tuple(r[0] for r in rules),
            axis_weights=tuple(r[1] for r in rules),
        )

    @classmethod
    def for_basis(cls, basis: SineBasis, oversample: float = 1.0) -> "QuadratureGrid":
        """Default rule: max(16, 2K+8) nodes per axis, scaled by `oversample`.

        The default resolves all quadratic mode products; pass oversample=2
        when quartic nonlinear terms must be alias-free.
        """
        nodes = [int(np.ceil(oversample * max(16, 2 * k + 8))) for k in basis.cutoffs]
        return cls.for_domain(basis.domain, nodes)

    @property
    def dim(self) -> int:
        return len(self.axis_nodes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(n) for n in self.axis_nodes)

    def compatible_with(self, basis: SineBasis) -> bool:
        return self.lengths == basis.domain.lengths


def eigenvalue(basis: SineBasis, index: int) -> float:
    """Eigenvalue gamma_k of -Laplace for the index-th stored mode."""
    if not 0 <= index < basis.size:
        raise IndexError(f"mode index {index} out of range [0, {basis.size})")
    return float(basis.eigenvalues[index])


def _tensor_apply(tensor: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis i of `tensor` with mats[i] (rows index the new axis)."""
    out = tensor
    for ax, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=(1, ax)), 0, ax)
    return out


def coeff_tensor(field: ScalarField, permutation: np.ndarray) -> np.ndarray:
    """Coefficients scattered into the dense (K_1,...,K_N) tensor.

    `permutation` is `field.basis.tensor_permutation()`, passed in so that
    callers holding a SineTransform do not rebuild it.
    """
    t = np.zeros(field.basis.cutoffs)
    t.ravel()[permutation] = field.coeffs
    return t


def synthesize(field: ScalarField, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise values sum_k c_k e_k(x) at all grid nodes."""
    tr = grid.transform(field.basis)
    return _tensor_apply(coeff_tensor(field, tr.permutation), tr.synthesis)


def integrate(values: np.ndarray, grid: QuadratureGrid) -> float:
    """Tensor-product quadrature of grid values."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
    out = values
    for w in grid.axis_weights:
        out = np.tensordot(out, w, axes=(0, 0))
    return float(out)


def project(values: np.ndarray, basis: SineBasis, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature projections integral(values * e_k) for every mode, sorted order."""
    tr = grid.transform(basis)
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
    tensor = _tensor_apply(values, tr.projection)
    return tensor.ravel()[tr.permutation]


def mode_mass_matrix(weight_values: np.ndarray, basis: SineBasis, grid: QuadratureGrid) -> np.ndarray:
    """Matrix integral(weight * e_j * e_k) over all mode pairs, sorted order.

    Assembled axis by axis through the tensor-product structure, so the cost
    is O(Q * M) per axis rather than O(Q * M^2).
    """
    tr = grid.transform(basis)
    a = np.asarray(weight_values)
    if a.shape != grid.shape:
        raise ValueError("weight values do not match the grid")
    n = grid.dim
    for i, w in enumerate(grid.axis_weights):
        a = a * w.reshape((-1,) + (1,) * (n - 1 - i))
    # running shape: (Q_i..Q_n, k_1,l_1, .., k_{i-1},l_{i-1})
    for S, path in zip(tr.synthesis, tr.mass_paths):
        a = np.einsum(_MASS_AXIS, a, S, S, optimize=path)
    # now shape (k_1,l_1,...,k_n,l_n) -> (k_1,...,k_n,l_1,...,l_n)
    a = np.transpose(a, axes=list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    m = int(np.prod(basis.cutoffs))
    a = a.reshape(m, m)
    return a[np.ix_(tr.permutation, tr.permutation)]


def h1_inner(f: ScalarField, g: ScalarField) -> float:
    """Gradient inner product integral(grad f . grad g) = sum_k gamma_k f_k g_k."""
    require_same_basis(f, g)
    return float(np.sum(f.basis.eigenvalues * f.coeffs * g.coeffs))


def h1_norm(f: ScalarField) -> float:
    return np.sqrt(max(h1_inner(f, f), 0.0))
