"""The in-repo solvers on problems with known answers."""

import numpy as np
import pytest

from sinesolve.solve import bisect, lbfgs_min, newton_root, trust_region_min


def _circle_and_diagonal(x):
    """F(x) = (x_0^2 + x_1^2 - 4, x_0 - x_1), with roots +-(sqrt 2, sqrt 2)."""
    return np.array([x[0] ** 2 + x[1] ** 2 - 4.0, x[0] - x[1]])


def _circle_and_diagonal_jacobian(x):
    return np.array([[2.0 * x[0], 2.0 * x[1]], [1.0, -1.0]])


def test_newton_converges_on_a_known_root():
    calls = {"residual": 0, "jacobian": 0}

    def residual(x):
        calls["residual"] += 1
        return _circle_and_diagonal(x)

    def jacobian(x):
        calls["jacobian"] += 1
        return _circle_and_diagonal_jacobian(x)

    x, ok = newton_root(residual, jacobian, np.array([3.0, 0.5]), 1e-12, 50, 1e-10)
    assert ok
    np.testing.assert_allclose(x, [np.sqrt(2.0)] * 2, rtol=1e-12)
    assert np.linalg.norm(_circle_and_diagonal(x)) <= 1e-12
    # one Jacobian per step, none at the converged end
    steps = calls["jacobian"]
    assert 1 <= steps < calls["residual"]
    calls.update(residual=0, jacobian=0)
    assert newton_root(residual, jacobian, x, 1e-12, 50, 1e-10)[1]
    assert calls == {"residual": 1, "jacobian": 0}


@pytest.mark.parametrize("x0", [1.0, 0.3])
def test_newton_reports_a_stall(x0):
    # x^2 + 1 has no real root: from 1 Newton lands on 0, where the Jacobian
    # is singular; from 0.3 backtracking finds no decrease near 0.  Either
    # way the run ends unconverged at its last accepted point
    x, ok = newton_root(lambda x: x * x + 1.0, lambda x: np.diag(2.0 * x), np.array([x0]), 1e-10, 50, 1e-3)
    assert not ok and abs(x[0]) < 0.05


def _negated_quartic(x):
    """-(x.Ax/2 - |x|^4/4), A = diag(2, 1): minima at +-(sqrt 2, 0), value -1."""
    a = np.array([2.0, 1.0])
    r2 = float(x @ x)
    return -(0.5 * float(a @ (x * x)) - 0.25 * r2 * r2)


def _negated_quartic_grad(x):
    return -(np.array([2.0, 1.0]) * x - float(x @ x) * x)


def _negated_quartic_hess(x):
    return -(np.diag([2.0, 1.0]) - float(x @ x) * np.eye(2) - 2.0 * np.outer(x, x))


@pytest.mark.parametrize("x0", [[0.3, 0.2], [-0.1, 1.5], [0.0, 0.5]])
def test_trust_region_finds_the_maximum_of_a_small_quartic(x0):
    # from (0, 0.5) the gradient has no weight on the direction of most
    # negative curvature (the hard case of the subproblem), and the step
    # along that direction still leaves the x_1 axis for a maximizer
    x, f = trust_region_min(_negated_quartic, _negated_quartic_grad, _negated_quartic_hess, np.array(x0),
                            gtol=1e-13, max_steps=80)
    assert f == pytest.approx(-1.0, abs=1e-14)
    np.testing.assert_allclose(np.abs(x), [np.sqrt(2.0), 0.0], atol=1e-10)


def test_lbfgs_minimizes_a_convex_quadratic():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag([1.0, 2.0, 3.0, 5.0, 8.0, 13.0]) @ q.T
    b = rng.standard_normal(6)
    values = []

    def fun(x):
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b

    x = lbfgs_min(fun, np.ones(6), gtol=1e-10, ftol=0.0, maxiter=100, callback=lambda x: values.append(fun(x)[0]))
    np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-9)
    assert all(later <= earlier for earlier, later in zip(values, values[1:]))
    assert len(values) < 40


def test_bisect_brackets_a_known_point_to_the_relative_width():
    calls = []

    def above(x):
        calls.append(x)
        return x * x >= 2.0

    lo, hi = bisect(above, 1.0, 2.0, 1e-15)
    assert lo < np.sqrt(2.0) <= hi
    assert hi - lo <= 1e-15 * hi
    # one predicate call per halving of the unit bracket: 2^-50 <= 1e-15 sqrt 2 < 2^-49
    assert len(calls) == 50
    assert bisect(above, 0.0, 1.0, 0.5) == (0.5, 1.0)
