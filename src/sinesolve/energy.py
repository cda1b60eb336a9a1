"""Problem data, the shifted bilinear forms, the coupled energy functional, and
its Galerkin gradient and Hessian.

For a pair u = (u_1, u_2) on the sine basis, the energy is

    E(u) = 1/2 B(u,u) - 1/p int(mu_1 |u_1|^p + mu_2 |u_2|^p)
           - lam int |u_1|^alpha |u_2|^beta,

with B(u,v) = B_1(u_1,v_1) + B_2(u_2,v_2) and
B_i(f,g) = int(grad f . grad g - kappa_i f g) = sum_k (gamma_k - kappa_i) f_k g_k.
The quadratic parts are exact coefficient arithmetic; the nonlinear parts are
evaluated pointwise on a quadrature grid and projected back, so the assembled
gradient is the exact derivative of the discrete energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    QuadratureGrid,
    ScalarField,
    SineBasis,
    integrate,
    mode_mass_matrix,
    project,
    require_same_basis,
    synthesize,
)
from .errors import BasisMismatchError


@dataclass(frozen=True)
class SystemParams:
    """Scalar data of the coupled system.

    p = alpha + beta is the common power; `critical` marks p = 2N/(N-2)
    (requires dim >= 3).  Subcritical runs accept any p in (2, inf) and also
    dim 1 and 2.
    """

    kappa1: float
    kappa2: float
    mu1: float
    mu2: float
    lam: float
    alpha: float
    beta: float
    dim: int

    def __post_init__(self):
        if self.mu1 <= 0 or self.mu2 <= 0 or self.lam <= 0:
            raise ValueError("mu1, mu2 and lam must be positive")
        if self.alpha <= 1 or self.beta <= 1:
            raise ValueError("alpha and beta must exceed 1")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.p <= 2:
            raise ValueError("p = alpha + beta must exceed 2")
        if self.dim >= 3 and self.p > self.critical_exponent + 1e-12:
            raise ValueError("p exceeds the critical exponent 2N/(N-2)")

    @property
    def p(self) -> float:
        return self.alpha + self.beta

    @property
    def critical_exponent(self) -> float:
        if self.dim < 3:
            return float("inf")
        return 2.0 * self.dim / (self.dim - 2.0)

    @property
    def critical(self) -> bool:
        return self.dim >= 3 and abs(self.p - self.critical_exponent) <= 1e-12

    def kappa(self, i: int) -> float:
        if i not in (1, 2):
            raise ValueError("component index must be 1 or 2")
        return self.kappa1 if i == 1 else self.kappa2

    def mu(self, i: int) -> float:
        if i not in (1, 2):
            raise ValueError("component index must be 1 or 2")
        return self.mu1 if i == 1 else self.mu2


@dataclass(frozen=True, eq=False)
class PairField:
    """A candidate solution pair on one shared basis."""

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self):
        if self.u1.basis != self.u2.basis:
            raise BasisMismatchError("pair components live on different bases")

    @property
    def basis(self) -> SineBasis:
        return self.u1.basis

    def coeffs(self) -> np.ndarray:
        """Stacked coefficient vector (c_1, c_2) of length 2M."""
        return np.concatenate([self.u1.coeffs, self.u2.coeffs])

    @classmethod
    def from_coeffs(cls, basis: SineBasis, z: np.ndarray) -> "PairField":
        m = basis.size
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * m,):
            raise ValueError(f"expected stacked vector of length {2 * m}")
        return cls(ScalarField(basis, z[:m]), ScalarField(basis, z[m:]))


def zero_pair(basis: SineBasis) -> PairField:
    z = np.zeros(basis.size)
    return PairField(ScalarField(basis, z), ScalarField(basis, z.copy()))


def sign_orbit(z: np.ndarray) -> list[np.ndarray]:
    """The four sign images (+-u_1, +-u_2) of a stacked coefficient vector."""
    m = z.size // 2
    out = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            img = z.copy()
            img[:m] *= s1
            img[m:] *= s2
            out.append(img)
    return out


def _odd_power(v: np.ndarray, a: np.ndarray, q: float) -> np.ndarray:
    """|v|^(q-2) v from v and a = |v|, with the continuous convention 0 at v = 0 (valid for q > 1)."""
    return np.sign(v) * a ** (q - 1.0)


def _abs_power(a: np.ndarray, q: float) -> np.ndarray:
    """a^q for a = |v| >= 0, evaluating to 0 at a = 0 even for negative exponents."""
    if q >= 0:
        return a**q
    out = np.zeros_like(a)
    nz = a > 0
    out[nz] = a[nz] ** q
    return out


@dataclass(frozen=True)
class SpectralSplit:
    """Per-component partition of the modes by the sign of gamma_k - kappa_i."""

    basis: SineBasis
    kappas: tuple[float, float]
    zero_tol: float
    plus: tuple[np.ndarray, np.ndarray]
    zero: tuple[np.ndarray, np.ndarray]
    minus: tuple[np.ndarray, np.ndarray]

    def tilde(self, i: int) -> np.ndarray:
        """Mode indices of the nonpositive part (X_i^0 + X_i^-)."""
        return np.concatenate([self.zero[i - 1], self.minus[i - 1]])

    @property
    def tilde_dim(self) -> int:
        return sum(len(self.tilde(i)) for i in (1, 2))

    @property
    def definite(self) -> bool:
        return self.tilde_dim == 0

    def tilde_pairs(self) -> list[tuple[int, int]]:
        """(component, mode index) pairs spanning the nonpositive subspace."""
        return [(1, int(k)) for k in self.tilde(1)] + [(2, int(k)) for k in self.tilde(2)]

    def project_plus(self, u: PairField) -> PairField:
        return self._mask(u, self.plus)

    def project_tilde(self, u: PairField) -> PairField:
        masks = (self.tilde(1), self.tilde(2))
        return self._mask(u, masks)

    def _mask(self, u: PairField, index_sets) -> PairField:
        comps = []
        for c, idx in zip((u.u1.coeffs, u.u2.coeffs), index_sets):
            out = np.zeros_like(c)
            out[idx] = c[idx]
            comps.append(ScalarField(u.basis, out))
        return PairField(*comps)

    def plus_mask(self) -> np.ndarray:
        """Boolean mask over the stacked vector selecting the positive part."""
        m = self.basis.size
        mask = np.zeros(2 * m, dtype=bool)
        mask[self.plus[0]] = True
        mask[m + self.plus[1]] = True
        return mask


def spectral_split(params: SystemParams, basis: SineBasis, tol: float | None = None) -> SpectralSplit:
    """Partition the modes of both shifted operators -Laplace - kappa_i.

    tol defaults to 1e-9 * gamma_1, small enough to keep a kappa that matches
    an eigenvalue exactly in the zero part without absorbing its neighbours.
    """
    if tol is None:
        tol = 1e-9 * float(basis.eigenvalues[0])
    if tol <= 0:
        raise ValueError("zero tolerance must be positive")
    plus, zero, minus = [], [], []
    for kappa in (params.kappa1, params.kappa2):
        shifted = basis.eigenvalues - kappa
        zero.append(np.flatnonzero(np.abs(shifted) <= tol))
        plus.append(np.flatnonzero(shifted > tol))
        minus.append(np.flatnonzero(shifted < -tol))
    return SpectralSplit(
        basis=basis,
        kappas=(params.kappa1, params.kappa2),
        zero_tol=float(tol),
        plus=tuple(plus),
        zero=tuple(zero),
        minus=tuple(minus),
    )


def bilinear_bi(i: int, f: ScalarField, g: ScalarField, params: SystemParams) -> float:
    """Shifted form B_i(f,g) = sum_k (gamma_k - kappa_i) f_k g_k."""
    require_same_basis(f, g)
    return float(np.sum((f.basis.eigenvalues - params.kappa(i)) * f.coeffs * g.coeffs))


def bilinear_b(u: PairField, v: PairField, params: SystemParams) -> float:
    """B(u,v) = B_1(u_1,v_1) + B_2(u_2,v_2)."""
    return bilinear_bi(1, u.u1, v.u1, params) + bilinear_bi(2, u.u2, v.u2, params)


class _Point:
    """Values computed at one coefficient vector, keyed by the method name.

    Keeps a read-only copy of z: a caller such as MINPACK may reuse the
    buffer it passed, so a stored reference could change under the state.
    """

    def __init__(self, z: np.ndarray):
        self.z = np.array(z, dtype=float)
        self.z.setflags(write=False)
        self.key = self.z.tobytes()
        self.values: dict = {}

    def holds(self, z: np.ndarray) -> bool:
        """Whether z has exactly this point's shape and bytes (not merely close values)."""
        if z is self.z:  # the methods of one point pass its own copy on
            return True
        z = np.asarray(z, dtype=float)
        return z.shape == self.z.shape and z.tobytes() == self.key


def _per_point(compute):
    """Turn compute(self, z) into a method that runs once per point state.

    The result is stored in the state `self.at(z)` and handed out again for
    every z with the same bytes; an array result is made read-only.  compute
    sees the state's own copy of z.
    """
    name = compute.__name__

    def method(self, z: np.ndarray):
        point = self.at(z)
        value = point.values.get(name)
        if value is None:
            value = compute(self, point.z)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            point.values[name] = value
        return value

    method.__name__, method.__qualname__, method.__doc__ = name, compute.__qualname__, compute.__doc__
    return method


class _Engine:
    """Keeps the state of the most recent point; see `at`."""

    _point = None

    def at(self, z: np.ndarray) -> _Point:
        """The state at z: the last one if z has exactly its bytes, else a new one.

        Only the newest state is kept, so none outlives the engine or passes
        between engines.  Threads racing here may drop each other's state,
        which costs a recomputation; each state's values come from its own z
        alone, so two points' values never mix.
        """
        point = self._point
        if point is None or not point.holds(z):
            point = self._point = _Point(z)
        return point


class GalerkinSystem(_Engine):
    """Assembled coupled problem on one basis/grid pair.

    Works on stacked coefficient vectors z = (c_1, c_2); the module-level
    functions wrap it for single calls.  The problem data are immutable
    after construction.  The state of the last point asked (`at`) caches the
    synthesized fields, the powers |u_1|^alpha and |u_2|^beta and their odd
    counterparts, and the energy, masses, Nehari denominator, gradient and
    Hessian once computed.  It is reused only for a z with exactly the same
    bytes, and the arrays it hands out are read-only.  Instances may be
    shared across worker threads: a race can cost a cache hit, never a
    wrong value.
    """

    def __init__(self, params: SystemParams, basis: SineBasis, grid: QuadratureGrid | None = None):
        if params.dim != basis.domain.dim:
            raise BasisMismatchError("params.dim does not match the domain dimension")
        self.params = params
        self.basis = basis
        self.grid = grid if grid is not None else QuadratureGrid.for_basis(basis)
        if not self.grid.compatible_with(basis):
            raise BasisMismatchError("grid and basis live on different domains")
        self.m = basis.size
        gamma = basis.eigenvalues
        self.shift1 = gamma - params.kappa1
        self.shift2 = gamma - params.kappa2
        self.shift = np.concatenate([self.shift1, self.shift2])

    # -- pointwise synthesis and shared powers -------------------------------

    @_per_point
    def _fields(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """(u_1, u_2, |u_1|, |u_2|) at the grid nodes."""
        v1 = synthesize(ScalarField(self.basis, z[: self.m]), self.grid)
        v2 = synthesize(ScalarField(self.basis, z[self.m :]), self.grid)
        return v1, v2, np.abs(v1), np.abs(v2)

    @_per_point
    def _coupling(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|u_1|^alpha, |u_2|^beta)."""
        _, _, a1, a2 = self._fields(z)
        return a1**self.params.alpha, a2**self.params.beta

    @_per_point
    def _odd_coupling(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|u_1|^(alpha-2) u_1, |u_2|^(beta-2) u_2)."""
        v1, v2, a1, a2 = self._fields(z)
        return _odd_power(v1, a1, self.params.alpha), _odd_power(v2, a2, self.params.beta)

    # -- quantities; the quadratic form is exact coefficient arithmetic, not cached

    def quadratic(self, z: np.ndarray) -> float:
        c1, c2 = z[: self.m], z[self.m :]
        return float(np.sum(self.shift1 * c1 * c1) + np.sum(self.shift2 * c2 * c2))

    @_per_point
    def power_masses(self, z: np.ndarray) -> tuple[float, float, float]:
        """(int |u_1|^p, int |u_2|^p, int |u_1|^alpha |u_2|^beta)."""
        p = self.params.p
        _, _, a1, a2 = self._fields(z)
        a1_alpha, a2_beta = self._coupling(z)
        m1 = integrate(a1**p, self.grid)
        m2 = integrate(a2**p, self.grid)
        mix = integrate(a1_alpha * a2_beta, self.grid)
        return m1, m2, mix

    @_per_point
    def energy(self, z: np.ndarray) -> float:
        pr = self.params
        m1, m2, mix = self.power_masses(z)
        return 0.5 * self.quadratic(z) - (pr.mu1 * m1 + pr.mu2 * m2) / pr.p - pr.lam * mix

    @_per_point
    def gradient(self, z: np.ndarray) -> np.ndarray:
        pr = self.params
        v1, v2, a1, a2 = self._fields(z)
        a1_alpha, a2_beta = self._coupling(z)
        odd1, odd2 = self._odd_coupling(z)
        f1 = pr.mu1 * _odd_power(v1, a1, pr.p) + pr.lam * pr.alpha * odd1 * a2_beta
        f2 = pr.mu2 * _odd_power(v2, a2, pr.p) + pr.lam * pr.beta * a1_alpha * odd2
        g1 = self.shift1 * z[: self.m] - project(f1, self.basis, self.grid)
        g2 = self.shift2 * z[self.m :] - project(f2, self.basis, self.grid)
        return np.concatenate([g1, g2])

    @_per_point
    def hessian(self, z: np.ndarray) -> np.ndarray:
        pr = self.params
        _, _, a1, a2 = self._fields(z)
        a1_alpha, a2_beta = self._coupling(z)
        odd1, odd2 = self._odd_coupling(z)
        w11 = pr.mu1 * (pr.p - 1.0) * _abs_power(a1, pr.p - 2.0)
        w11 = w11 + pr.lam * pr.alpha * (pr.alpha - 1.0) * _abs_power(a1, pr.alpha - 2.0) * a2_beta
        w22 = pr.mu2 * (pr.p - 1.0) * _abs_power(a2, pr.p - 2.0)
        w22 = w22 + pr.lam * pr.beta * (pr.beta - 1.0) * a1_alpha * _abs_power(a2, pr.beta - 2.0)
        w12 = pr.lam * pr.alpha * pr.beta * odd1 * odd2
        h11 = np.diag(self.shift1) - mode_mass_matrix(w11, self.basis, self.grid)
        h22 = np.diag(self.shift2) - mode_mass_matrix(w22, self.basis, self.grid)
        h12 = -mode_mass_matrix(w12, self.basis, self.grid)
        return np.block([[h11, h12], [h12.T, h22]])

    @_per_point
    def nehari_denominator(self, z: np.ndarray) -> float:
        """int(mu_1 |u_1|^p + mu_2 |u_2|^p + p lam |u_1|^alpha |u_2|^beta)."""
        pr = self.params
        m1, m2, mix = self.power_masses(z)
        return pr.mu1 * m1 + pr.mu2 * m2 + pr.p * pr.lam * mix

    def tilde_indices(self, split: SpectralSplit) -> np.ndarray:
        """Indices of the nonpositive directions inside the stacked vector."""
        return np.concatenate([split.tilde(1), self.m + split.tilde(2)]).astype(int)


class ScalarProblem(_Engine):
    """Single-component functional J_i(w) = 1/2 B_i(w,w) - mu_i/p int |w|^p.

    Caches its last point as GalerkinSystem does.
    """

    def __init__(
        self,
        params: SystemParams,
        i: int,
        basis: SineBasis,
        grid: QuadratureGrid | None = None,
        mu: float | None = None,
    ):
        self.params = params
        self.i = i
        self.basis = basis
        self.grid = grid if grid is not None else QuadratureGrid.for_basis(basis)
        self.m = basis.size
        self.shift = basis.eigenvalues - params.kappa(i)
        self.mu = params.mu(i) if mu is None else float(mu)

    @_per_point
    def _field(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w, |w|) at the grid nodes."""
        v = synthesize(ScalarField(self.basis, c), self.grid)
        return v, np.abs(v)

    @_per_point
    def mass(self, c: np.ndarray) -> float:
        return integrate(self._field(c)[1] ** self.params.p, self.grid)

    def quadratic(self, c: np.ndarray) -> float:
        return float(np.sum(self.shift * c * c))

    @_per_point
    def nehari_denominator(self, c: np.ndarray) -> float:
        """mu_i int |w|^p."""
        return self.mu * self.mass(c)

    def tilde_indices(self, split: SpectralSplit) -> np.ndarray:
        """Indices of the nonpositive directions of component i."""
        return split.tilde(self.i).astype(int)

    @_per_point
    def energy(self, c: np.ndarray) -> float:
        return float(0.5 * self.quadratic(c) - self.mu / self.params.p * self.mass(c))

    @_per_point
    def gradient(self, c: np.ndarray) -> np.ndarray:
        f = self.mu * _odd_power(*self._field(c), self.params.p)
        return self.shift * c - project(f, self.basis, self.grid)

    @_per_point
    def hessian(self, c: np.ndarray) -> np.ndarray:
        w = self.mu * (self.params.p - 1.0) * _abs_power(self._field(c)[1], self.params.p - 2.0)
        return np.diag(self.shift) - mode_mass_matrix(w, self.basis, self.grid)


# -- spec-surface wrappers ----------------------------------------------------


def energy(u: PairField, params: SystemParams, grid: QuadratureGrid | None = None) -> float:
    """Value of the coupled functional at u."""
    return GalerkinSystem(params, u.basis, grid).energy(u.coeffs())


def gradient(u: PairField, params: SystemParams, grid: QuadratureGrid | None = None) -> PairField:
    """Galerkin gradient: component k holds the derivative against mode e_k."""
    g = GalerkinSystem(params, u.basis, grid).gradient(u.coeffs())
    return PairField.from_coeffs(u.basis, g)


def scalar_energy(
    w: ScalarField, i: int, params: SystemParams, grid: QuadratureGrid | None = None
) -> float:
    return ScalarProblem(params, i, w.basis, grid).energy(w.coeffs)


def scalar_gradient(
    w: ScalarField, i: int, params: SystemParams, grid: QuadratureGrid | None = None
) -> ScalarField:
    g = ScalarProblem(params, i, w.basis, grid).gradient(w.coeffs)
    return ScalarField(w.basis, g)
