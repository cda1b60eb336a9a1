"""Box domains, the Dirichlet sine eigenbasis, tensor quadrature, and transforms.

The Dirichlet Laplacian on a box (0,L_1)x...x(0,L_N) has the analytic
eigenpairs

    e_k(x) = prod_i sqrt(2/L_i) sin(pi k_i x_i / L_i),
    gamma_k = pi^2 sum_i (k_i / L_i)^2,

which are L^2-orthonormal.  A field is a plain coefficient array over the
modes sorted by nondecreasing eigenvalue (lexicographic tie-break); a
`SineTransform` carries it to grid values and back.  A box integral is a
tensor product of the interior-node trapezoid (DST-I) rule: Q nodes
jL/(Q+1) of weight L/(Q+1) per axis.  It integrates a product of an even
number of sine factors exactly when their frequencies sum below 2(Q+1), so
the Gram matrix of the modes k <= Q is exact; a constant, which is no such
product, gets Q/(Q+1) of its integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BasisMismatchError


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


def _sorted_modes(lengths: Sequence[float], cutoffs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The mode index tuples sorted by eigenvalue, then lexicographically, and their eigenvalues."""
    grids = np.meshgrid(*[np.arange(1, k + 1) for k in cutoffs], indexing="ij")
    modes = np.stack([g.ravel() for g in grids], axis=1)  # (M, dim)
    gamma = np.pi**2 * np.sum((modes / np.asarray(lengths)) ** 2, axis=1)
    order = np.lexsort(tuple(modes[:, i] for i in reversed(range(modes.shape[1]))) + (gamma,))
    return modes[order], gamma[order]


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
        modes, gamma = _sorted_modes(self.domain.lengths, self.cutoffs)
        modes.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "eigenvalues", gamma)

    @property
    def size(self) -> int:
        return self.modes.shape[0]

    @cached_property
    def grid(self) -> "QuadratureGrid":
        """The quadrature grid every engine on this basis integrates on, built once.

        3K interior nodes per axis.  For even integer p the integrands of the
        energy, gradient and Hessian are products of p sine factors whose
        frequencies sum to at most pK, exact once Q + 1 > pK/2 (Orszag, J.
        Atmos. Sci. 28, 1971): Q = 3K covers every even p <= 6, so p = 4 in
        any dimension and p = 2* = 6 in N = 3.  Other powers get the rule's
        algebraic accuracy.
        """
        return QuadratureGrid.for_domain(self.domain, [3 * k for k in self.cutoffs])

    @cached_property
    def transform(self) -> "SineTransform":
        """The sine tables of this basis on its grid, built once."""
        return SineTransform(self, self.grid)

    def axis_matrix(self, axis: int, x: np.ndarray) -> np.ndarray:
        """1-D factor sqrt(2/L) sin(pi k x / L) evaluated at the points x, shape (len(x), K)."""
        L = self.domain.lengths[axis]
        k = np.arange(1, self.cutoffs[axis] + 1)
        return np.sqrt(2.0 / L) * np.sin(np.pi * np.outer(x, k) / L)

    def tensor_permutation(self) -> np.ndarray:
        """Flat C-order index of each sorted mode in the (K_1,...,K_N) tensor."""
        return np.ravel_multi_index((self.modes - 1).T, self.cutoffs)


class SineTransform:
    """Sine tables of one basis on one grid, built once.

    `synthesis[i]` holds e_k on the nodes of axis i and `projection[i]` its
    weighted transpose; `synthesize` and `project` apply them as one matrix
    product per axis (`_tensor_apply`).  `permutation` is the tensor position
    of each sorted mode in the dense `cutoffs` tensor, and `gather` its
    inverse, the sorted mode at each tensor position: `project` reads its
    output through the first, `synthesize` builds its input through the
    second.  `mass_pairs[i]` is the pair table e_k e_l of axis i on its
    nodes, rows (k, l) flattened, which `mode_mass_matrix` applies on every
    axis in n-D; in 1-D it weights the table itself and builds none.
    `mass_gather` is the flat index that reads the sorted-mode matrix out of
    the last step's (k_1,l_1,...,k_n,l_n) tensor.  `SineBasis.transform`
    holds the one for the basis grid; any other grid builds its own.  The
    transform keeps the grid but not the basis, so a basis holding its
    transform forms no reference cycle.
    """

    def __init__(self, basis: "SineBasis", grid: "QuadratureGrid"):
        if grid.lengths != basis.domain.lengths:
            raise BasisMismatchError("grid and basis live on different domains")
        self.grid = grid
        self.cutoffs = basis.cutoffs
        self.synthesis = tuple(basis.axis_matrix(i, grid.axis_nodes[i]) for i in range(grid.dim))
        self.projection = tuple(
            (s * w[:, None]).T for s, w in zip(self.synthesis, grid.axis_weights)
        )
        self.permutation = basis.tensor_permutation()
        self.gather = np.argsort(self.permutation)
        self.mass_pairs = ()
        if grid.dim > 1:
            self.mass_pairs = tuple((S.T[:, None, :] * S.T[None, :, :]).reshape(S.shape[1] ** 2, -1)
                                    for S in self.synthesis)
        # (k_1,l_1,...,k_n,l_n) -> (k_1..k_n, l_1..l_n) -> rows and columns in sorted order
        n, m = grid.dim, basis.size
        flat = np.arange(m * m).reshape([k for k in basis.cutoffs for _ in (0, 1)])
        flat = flat.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(m, m)
        self.mass_gather = flat[np.ix_(self.permutation, self.permutation)]
        for arr in (*self.synthesis, *self.projection, *self.mass_pairs, self.permutation,
                    self.gather, self.mass_gather):
            arr.setflags(write=False)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product quadrature: per-axis node and weight arrays."""

    lengths: tuple[float, ...]
    axis_nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in (*self.axis_nodes, *self.axis_weights):
            arr.setflags(write=False)

    @classmethod
    def for_domain(cls, domain: BoxDomain, nodes_per_axis: int | Sequence[int]) -> "QuadratureGrid":
        """The interior-node trapezoid (DST-I) rule: x_j = jL/(Q+1), weights L/(Q+1)."""
        if np.isscalar(nodes_per_axis):
            nodes_per_axis = [int(nodes_per_axis)] * domain.dim
        h = [L / (q + 1) for L, q in zip(domain.lengths, nodes_per_axis)]
        return cls(
            lengths=domain.lengths,
            axis_nodes=tuple(hi * np.arange(1, q + 1) for hi, q in zip(h, nodes_per_axis)),
            axis_weights=tuple(np.full(q, hi) for hi, q in zip(h, nodes_per_axis)),
        )

    @property
    def dim(self) -> int:
        return len(self.axis_nodes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(n) for n in self.axis_nodes)


def _tensor_apply(tensor: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis i of `tensor` with mats[i] (rows index the new axis).

    Each step is one matrix product on the leading axis,
    np.dot(m, out.reshape(K, -1)), whose new axis then moves to the back, so
    after the last step the axes are in order again.  `np.dot` is the product
    `np.tensordot` on axis i calls: each output entry is the same dot product
    of a row of m with a fibre of the tensor, and the result has tensordot's
    memory layout, so the values and every sum over them keep their bits.
    (`m @ ...` gives the same bits but costs about a microsecond more per
    call on these small shapes.)
    """
    out = tensor
    for m in mats:
        rest = out.shape[1:]
        out = np.dot(m, out.reshape(out.shape[0], -1)).T.reshape(rest + (m.shape[0],))
    return out


def synthesize(coeffs: np.ndarray, tr: SineTransform) -> np.ndarray:
    """Pointwise values sum_k c_k e_k(x) at all nodes of the transform's grid."""
    return _tensor_apply(coeffs[tr.gather].reshape(tr.cutoffs), tr.synthesis)


def integrate(values: np.ndarray, grid: QuadratureGrid) -> float:
    """Tensor-product quadrature of grid values."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
    out = values
    for w in grid.axis_weights:
        out = np.tensordot(out, w, axes=(0, 0))
    return float(out)


def project(values: np.ndarray, tr: SineTransform) -> np.ndarray:
    """Quadrature projections integral(values * e_k) for every mode, sorted order."""
    values = np.asarray(values)
    if values.shape != tr.grid.shape:
        raise ValueError(f"value shape {values.shape} does not match grid {tr.grid.shape}")
    tensor = _tensor_apply(values, tr.projection)
    return tensor.ravel()[tr.permutation]


def mode_mass_matrix(weight_values: np.ndarray, tr: SineTransform) -> np.ndarray:
    """Matrix integral(weight * e_j * e_k) over all mode pairs, sorted order.

    Assembled axis by axis through the tensor-product structure, so the cost
    is O(Q * M) per axis rather than O(Q * M^2).  One fixed contraction per
    dimension: in 1-D weight first, the products a_q e_k(q) times the table,
    (a * S.T) @ S; in n-D table first on every axis, each pair table
    `mass_pairs[i]` times the weights with that axis's nodes leading
    (`_tensor_apply`), which leaves the (k_1 l_1, ..., k_n l_n) tensor.
    """
    grid = tr.grid
    a = np.asarray(weight_values)
    if a.shape != grid.shape:
        raise ValueError("weight values do not match the grid")
    n = grid.dim
    for i, w in enumerate(grid.axis_weights):
        a = a * w.reshape((-1,) + (1,) * (n - 1 - i))
    if n == 1:
        S = tr.synthesis[0]
        return ((a * S.T) @ S).take(tr.mass_gather)
    return _tensor_apply(a, tr.mass_pairs).take(tr.mass_gather)
