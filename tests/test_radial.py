"""Gauss-Legendre panels: one shared reference rule."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sinesolve import radial
from sinesolve.limit import bubble_norms, sobolev_constant
from sinesolve.radial import _reference_rule, graded_edges, panel_rule, radial_integral, radial_tail_integral


@pytest.fixture
def cold_rule_cache():
    _reference_rule.cache_clear()
    yield
    _reference_rule.cache_clear()


def test_reference_rule_built_once_per_order(monkeypatch, cold_rule_cache):
    calls = []

    def counting_leggauss(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(radial, "leggauss", counting_leggauss)
    for _ in range(3):
        radial_integral(lambda r: np.exp(-r * r), 4)
        radial_integral(lambda r: np.exp(-r * r), 3, r_max=2.0)
        radial_tail_integral(lambda r: np.exp(-r * r), 5, 0.5)
        sobolev_constant(4)
        bubble_norms(5, 0.1)
    assert calls == [48]


def test_reference_rule_is_read_only(cold_rule_cache):
    xg, wg = _reference_rule()
    with pytest.raises(ValueError):
        xg[0] = 0.0
    with pytest.raises(ValueError):
        wg[:] = 1.0
    assert np.array_equal(_reference_rule()[0], leggauss(48)[0])


@pytest.mark.parametrize("order", [radial.ORDER])  # the one order of every radial rule
@pytest.mark.parametrize(
    "edges",
    [
        np.array([0.0, 1.0]),
        np.array([0.0, 0.25, 0.5, 1.0]),
        np.linspace(0.0, 1.3, 5),
        graded_edges(1e-3, 0.5),
    ],
    ids=["unit", "quarters", "uniform", "graded"],
)
def test_panel_rule_matches_direct_build(order, edges, cold_rule_cache):
    xg, wg = leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    want_nodes = (mid[:, None] + half[:, None] * xg).ravel()
    want_weights = (half[:, None] * wg).ravel()
    for _ in range(2):  # cold, then warm
        nodes, weights = panel_rule(edges)
        assert np.array_equal(nodes, want_nodes)
        assert np.array_equal(weights, want_weights)
        assert nodes.flags.writeable and weights.flags.writeable
