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

from .domain import SineBasis, integrate, mode_mass_matrix, project, synthesize
from .errors import BasisMismatchError


@dataclass(frozen=True)
class SystemParams:
    """Scalar data of the coupled system.

    p = alpha + beta is the common power, at most the critical exponent
    2N/(N-2) when dim >= 3.  Subcritical runs accept any p in (2, inf) and
    also dim 1 and 2.
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


def nonpositive_modes(basis: SineBasis, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(zero, minus): the mode indices where gamma_k - kappa is zero or negative.

    They span X^0 and X^-, whose sum X~ is the nonpositive subspace of
    -Laplace - kappa.  A shift within 1e-9 * gamma_1 of zero counts as zero:
    small enough to keep a kappa that matches an eigenvalue exactly in the
    zero part without absorbing its neighbours.  This is the only rule that
    decides the nonpositive subspace; each engine's `tilde` is zero followed
    by minus.
    """
    tol = 1e-9 * float(basis.eigenvalues[0])
    shifted = basis.eigenvalues - kappa
    return np.flatnonzero(np.abs(shifted) <= tol), np.flatnonzero(shifted < -tol)


class _Point:
    """Values computed at one coefficient vector, keyed by the method name.

    Keeps a read-only copy of z: a caller may reuse the buffer it passed,
    so a stored reference could change under the state.
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
    """What the searches rely on in both engines, `GalerkinSystem` (stacked
    pair vectors) and `ScalarProblem` (single vectors).

    Each holds `basis`, its `grid` and `transform`, the mode count `m`, the
    exponent `p` and `shift`, gamma_k - kappa per block, one block per kappa;
    `tilde`, the indices in z of X~ = X^0 + X^- that `nonpositive_modes`
    gives for each kappa (per block zero, then minus); and `plus_weights`,
    the eigenvalue gamma_k of each entry of z, 0 on X~, so that
    sum(plus_weights * z * z) is the squared H^1 norm of z's positive part.
    Both add energy/gradient/hessian, the quadratic form and the Nehari
    denominator, and keep the state of the most recent point (`at`).  So one
    set of search routines serves the system, the two scalar equations and
    the diagonal functional.
    """

    _point = None

    def __init__(self, basis: SineBasis, kappas: tuple[float, ...], p: float):
        self.basis = basis
        self.grid = basis.grid
        self.transform = basis.transform
        self.m = m = basis.size
        self.p = p
        gamma = basis.eigenvalues
        self.shift = np.concatenate([gamma - kappa for kappa in kappas])
        self.tilde = np.concatenate([i * m + np.concatenate(nonpositive_modes(basis, kappa))
                                     for i, kappa in enumerate(kappas)])
        self.plus_weights = np.tile(gamma, len(kappas))
        self.plus_weights[self.tilde] = 0.0

    def at(self, z: np.ndarray) -> _Point:
        """The state at z: the last one if z has exactly its bytes, else a new one.

        A new state replaces the last, and its values come from its own z
        alone.  One is enough: the searches ask for a point's quantities
        together and rarely step back to an earlier point.
        """
        point = self._point
        if point is None or not point.holds(z):
            point = self._point = _Point(z)
        return point


class GalerkinSystem(_Engine):
    """Assembled coupled problem on one basis, integrated on its grid.

    Works on stacked coefficient vectors z = (c_1, c_2), carried to the grid
    and back by the basis's one `transform`.  The problem data are immutable
    after construction; `shift1` and `shift2` are the two blocks of `shift`,
    and `tilde` stacks X~ for kappa_1 and kappa_2.  The state of the last
    point asked (`at`) caches the synthesized fields, the powers |u_1|^alpha
    and |u_2|^beta and their odd counterparts, and the energy, masses, Nehari
    denominator, gradient and Hessian once computed.  A state is reused only
    for a z with exactly the same bytes, and the arrays it hands out are
    read-only.
    """

    def __init__(self, params: SystemParams, basis: SineBasis):
        if params.dim != basis.domain.dim:
            raise BasisMismatchError("params.dim does not match the domain dimension")
        self.params = params
        super().__init__(basis, (params.kappa1, params.kappa2), params.p)
        self.shift1, self.shift2 = self.shift[: self.m], self.shift[self.m :]

    # -- pointwise synthesis and shared powers -------------------------------

    @_per_point
    def _fields(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """(u_1, u_2, |u_1|, |u_2|) at the grid nodes."""
        v1 = synthesize(z[: self.m], self.transform)
        v2 = synthesize(z[self.m :], self.transform)
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
        p = self.p
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
        g1 = self.shift1 * z[: self.m] - project(f1, self.transform)
        g2 = self.shift2 * z[self.m :] - project(f2, self.transform)
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
        m = self.m
        h = np.empty((2 * m, 2 * m))
        h[:m, :m] = np.diag(self.shift1) - mode_mass_matrix(w11, self.transform)
        h[m:, m:] = np.diag(self.shift2) - mode_mass_matrix(w22, self.transform)
        h[:m, m:] = -mode_mass_matrix(w12, self.transform)
        h[m:, :m] = h[:m, m:].T
        return h

    @_per_point
    def nehari_denominator(self, z: np.ndarray) -> float:
        """int(mu_1 |u_1|^p + mu_2 |u_2|^p + p lam |u_1|^alpha |u_2|^beta)."""
        pr = self.params
        m1, m2, mix = self.power_masses(z)
        return pr.mu1 * m1 + pr.mu2 * m2 + pr.p * pr.lam * mix


class ScalarProblem(_Engine):
    """Single-component functional J(w) = 1/2 int(|grad w|^2 - kappa w^2) - mu/p int |w|^p.

    Integrates on the basis's grid and keeps the state of its last point
    as GalerkinSystem does; `tilde` holds the nonpositive modes of
    -Laplace - kappa.
    """

    def __init__(self, basis: SineBasis, kappa: float, mu: float, p: float):
        super().__init__(basis, (kappa,), p)
        self.mu = float(mu)

    @_per_point
    def _field(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w, |w|) at the grid nodes."""
        v = synthesize(c, self.transform)
        return v, np.abs(v)

    @_per_point
    def mass(self, c: np.ndarray) -> float:
        return integrate(self._field(c)[1] ** self.p, self.grid)

    def quadratic(self, c: np.ndarray) -> float:
        return float(np.sum(self.shift * c * c))

    @_per_point
    def nehari_denominator(self, c: np.ndarray) -> float:
        """mu_i int |w|^p."""
        return self.mu * self.mass(c)

    @_per_point
    def energy(self, c: np.ndarray) -> float:
        return float(0.5 * self.quadratic(c) - self.mu / self.p * self.mass(c))

    @_per_point
    def gradient(self, c: np.ndarray) -> np.ndarray:
        f = self.mu * _odd_power(*self._field(c), self.p)
        return self.shift * c - project(f, self.transform)

    @_per_point
    def hessian(self, c: np.ndarray) -> np.ndarray:
        w = self.mu * (self.p - 1.0) * _abs_power(self._field(c)[1], self.p - 2.0)
        return np.diag(self.shift) - mode_mass_matrix(w, self.transform)

