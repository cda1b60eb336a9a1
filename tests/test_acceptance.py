"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from sinesolve import (
    BoxDomain,
    GalerkinSystem,
    QuadratureGrid,
    SineBasis,
    SolverConfig,
    SystemParams,
    coupling_threshold,
    coupled_sobolev_constant,
    diagonal_sup,
    interior_threshold,
    minimizer_amplitudes,
    semitrivial_threshold,
    sobolev_constant,
)
from sinesolve.cli import main
from sinesolve.domain import SineTransform, mode_mass_matrix
from sinesolve.estimates import default_eps_grid, fit_orders, linking_sweep, verify_product_powers, verify_single_power
from sinesolve.limit import LimitParams, bubble_norms, pair_grid_infimum
from sinesolve.nehari import project_general
from sinesolve.synchronized import amplitude_identities, amplitudes, find_roots, synchronized_solution


def report_line(number: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d}: {status} ({elapsed:6.1f}s / budget {budget_s:.0f}s) {detail}")


def run_cli(tmp_path, cfg, subcommand, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    code = main([subcommand, "--config", str(path)])
    report = json.loads((tmp_path / f"{name}_report.json").read_text())
    return code, report


def base_config(tmp_path, name, **problem):
    prob = {
        "kappa1": 0.0, "kappa2": 0.0, "mu1": 1.0, "mu2": 1.0,
        "lambda": 50.0, "alpha": 2.0, "beta": 2.0,
        "lengths": [1.0], "cutoffs": [24],
    }
    prob.update(problem)
    return {
        "problem": prob,
        "solver": {"seed": 0},
        "task": {},
        "output": {"report": str(tmp_path / f"{name}_report.json"), "formats": ["json"]},
    }


def test_criterion_01_eigenbasis_exactness():
    t0 = time.perf_counter()
    checks = []
    # 1-D: first 50 modes on (0,1)
    b1 = SineBasis(BoxDomain((1.0,)), (50,))
    analytic = np.pi**2 * np.arange(1, 51) ** 2
    checks.append(np.max(np.abs(b1.eigenvalues - analytic) / analytic) < 1e-12)
    g1 = QuadratureGrid.for_domain(b1.domain, 2 * 50 + 8)
    gram = mode_mass_matrix(np.ones(g1.shape), SineTransform(b1, g1))
    checks.append(np.abs(gram - np.eye(50)).max() < 1e-8)
    # 2-D: first 50 modes on the unit square
    b2 = SineBasis(BoxDomain((1.0, 1.0)), (10, 10))
    analytic2 = np.pi**2 * np.sum(b2.modes.astype(float) ** 2, axis=1)
    checks.append(np.max(np.abs(b2.eigenvalues[:50] - analytic2[:50]) / analytic2[:50]) < 1e-12)
    g2 = b2.grid
    gram2 = mode_mass_matrix(np.ones(g2.shape), b2.transform)
    checks.append(np.abs(gram2 - np.eye(b2.size)).max() < 1e-8)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report_line(1, ok, 1, elapsed, "eigenvalues 1e-12, Gram identity 1e-8 (1-D and 2-D)")
    assert ok


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    basis = SineBasis(BoxDomain((1.0,)), (16,))
    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0,
                      alpha=2.0, beta=2.0, dim=1)
    eng = GalerkinSystem(pr, basis)
    rng = np.random.default_rng(12)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        z = 0.5 * rng.standard_normal(32)
        g = eng.gradient(z)
        for _ in range(3):
            v = rng.standard_normal(32)
            v /= np.linalg.norm(v)
            fd = (eng.energy(z + h * v) - eng.energy(z - h * v)) / (2 * h)
            worst = max(worst, abs(np.dot(g, v) - fd) / max(abs(fd), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    report_line(2, ok, 10, elapsed, f"worst FD relative error {worst:.2e} over 20 fields")
    assert ok


def test_criterion_03_nehari_ray_formula():
    t0 = time.perf_counter()
    basis = SineBasis(BoxDomain((1.0,)), (16,))
    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0,
                      alpha=2.0, beta=2.0, dim=1)
    z = np.zeros(32)
    z[0] = 1.0  # the pair (e_1, 0)
    eng = GalerkinSystem(pr, basis)
    value = eng.energy(project_general(eng, z))
    elapsed = time.perf_counter() - t0
    ok = abs(value - np.pi**4 / 6) < 1e-6 * np.pi**4 / 6 and elapsed < 1.0
    report_line(3, ok, 1, elapsed, f"projected energy {value:.8f} vs pi^4/6")
    assert ok


@pytest.mark.parametrize("kappa, label", [(0.0, "definite"), (15.0, "indefinite")])
def test_criterion_04_ground_state_pipeline(tmp_path, kappa, label):
    t0 = time.perf_counter()
    cfg = base_config(tmp_path, f"gs_{label}", kappa1=kappa, kappa2=kappa)
    code, rep = run_cli(tmp_path, cfg, "ground-state", f"gs_{label}")
    system = [r for r in rep["results"] if r["family"] == "system"][0]
    c0 = rep["thresholds"]["c0"]
    min_b = rep["thresholds"]["min_scalar_b"]
    checks = [
        code == 0,
        system["classification"] == "fully-nontrivial",
        system["grad_norm"] < 1e-8,
        0.0 < system["energy"] < c0,
        abs(system["energy"] - 0.25 * system["b_value"]) < 1e-6 * abs(system["energy"]),
        0.0 < system["b_value"] < min_b,
    ]
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120.0
    report_line(4, ok, 120, elapsed,
                f"{label} kappa={kappa}: J={system['energy']:.6g} < c0={c0:.6g}, "
                f"B={system['b_value']:.6g} < {min_b:.6g}")
    assert ok


@pytest.fixture(scope="module")
def multiplicity_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mult")
    cfg = {
        "problem": {
            "kappa1": 0.0, "kappa2": 0.0, "mu1": 1.0, "mu2": 1.0,
            "lambda": 200.0, "alpha": 2.0, "beta": 2.0,
            "lengths": [1.0], "cutoffs": [24],
        },
        "solver": {"seed": 5, "budget": 40},
        "task": {"k": 2},
        "output": {"report": str(tmp / "mult_report.json"), "formats": ["json"]},
    }
    path = tmp / "mult.json"
    path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    code1 = main(["multiplicity", "--config", str(path), "--out", str(tmp / "r1")])
    elapsed_single = time.perf_counter() - t0
    code2 = main(["multiplicity", "--config", str(path), "--out", str(tmp / "r2")])
    bytes1 = (tmp / "r1" / "mult_report.json").read_bytes()
    bytes2 = (tmp / "r2" / "mult_report.json").read_bytes()
    return code1, code2, bytes1, bytes2, elapsed_single


def test_criterion_05_multiplicity(multiplicity_runs):
    code1, _, bytes1, _, elapsed = multiplicity_runs
    rep = json.loads(bytes1)
    pts = rep["results"]
    c0 = rep["thresholds"]["c0"]
    orbit_ids = {p["orbit_id"] for p in pts}
    checks = [
        code1 == 0,
        len(pts) >= 2,
        len(orbit_ids) == len(pts),
        all(0.0 < p["energy"] < c0 for p in pts),
        all(p["classification"] == "fully-nontrivial" for p in pts),
    ]
    ok = all(checks) and elapsed < 600.0
    report_line(5, ok, 600, elapsed,
                f"{len(pts)} distinct orbits, energies {[round(p['energy'], 4) for p in pts]} in (0, {c0:.4g})")
    assert ok


def test_criterion_06_diagonal_sup_and_threshold():
    t0 = time.perf_counter()
    basis = SineBasis(BoxDomain((1.0,)), (20,))
    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0,
                      alpha=2.0, beta=2.0, dim=1)
    cfg = SolverConfig()
    checks = []
    # positive for small lambda (gamma_3 = 9 pi^2 > 0) and strictly decreasing
    grid_lam = np.geomspace(0.5, 500.0, 10)
    sups = [diagonal_sup(dataclasses.replace(pr, lam=l), 3, basis) for l in grid_lam]
    checks.append(sups[0] > 0.0)
    checks.append(all(a > b for a, b in zip(sups, sups[1:])))
    # bisection bracket contract
    th = semitrivial_threshold(pr, basis, cfg)
    lam_bar = coupling_threshold(pr, th.c0, diagonal_sup(pr, 3, basis))
    hi = diagonal_sup(dataclasses.replace(pr, lam=1.01 * lam_bar), 3, basis)
    lo = diagonal_sup(dataclasses.replace(pr, lam=0.99 * lam_bar), 3, basis)
    checks.append(hi < th.c0 <= lo)
    # resonant case returns exactly zero
    pr_res = SystemParams(kappa1=9 * np.pi**2, kappa2=9 * np.pi**2, mu1=1.0, mu2=1.0,
                          lam=1.0, alpha=2.0, beta=2.0, dim=1)
    checks.append(diagonal_sup(pr_res, 3, basis) == 0.0)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 300.0
    report_line(6, ok, 300, elapsed,
                f"sup decreasing over 10-pt grid, Lambda_bar_3={lam_bar:.5g}, resonant case exact 0")
    assert ok


def test_criterion_07_limit_constant():
    t0 = time.perf_counter()
    lp = LimitParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=1.0, lam=1.0, alpha=2.0, beta=2.0, dim=4)
    checks = []
    s_const = sobolev_constant(4)
    grad2, mass = bubble_norms(4, 1.0)
    checks.append(abs(grad2 - mass) < 1e-8 * grad2)
    value, r_min = coupled_sobolev_constant(lp)
    expected = 2.0 / np.sqrt(6.0) * s_const
    checks.append(abs(r_min - 1.0) < 1e-6)
    checks.append(abs(value - expected) < 1e-6 * expected)
    oracle = pair_grid_infimum(lp)
    checks.append(abs(value - oracle) < 1e-4 * value)
    checks.append(value <= 2.0 * s_const / np.sqrt(2.0 + 4.0 * lp.lam) + 1e-12)
    lam0 = interior_threshold(1.0, 1.0, 2.0, 2.0, 4)
    checks.append(lam0 <= 0.5 + 1e-6)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    report_line(7, ok, 60, elapsed,
                f"S={s_const:.9g}, S_coupled={value:.9g} (=2S/sqrt6), r=1, Lambda0={lam0:.7g}")
    assert ok


def test_criterion_08_synchronized_algebra():
    t0 = time.perf_counter()
    pr = SystemParams(kappa1=0.0, kappa2=0.0, mu1=1.0, mu2=2.0, lam=2.0,
                      alpha=2.0, beta=2.0, dim=1)
    checks = []
    roots = find_roots(pr)
    checks.append(len(roots) == 1)
    checks.append(abs(roots[0] - np.sqrt(2.0 / 3.0)) < 1e-10)
    s, t = amplitudes(roots[0], pr)
    id1, id2 = amplitude_identities(s, t, pr)
    checks.append(abs(id1 - 1.0) < 1e-10 and abs(id2 - 1.0) < 1e-10)
    # assembly with a converged scalar profile
    basis = SineBasis(BoxDomain((1.0,)), (20,))
    cfg = SolverConfig()
    from sinesolve import scalar_ground_state

    state = scalar_ground_state(basis, pr.kappa1, pr.p, cfg)
    pt = synchronized_solution(GalerkinSystem(pr, basis), state.w, s, t)
    scalar_res = state.grad_norm
    # 1e-13 floor keeps the 10x comparison meaningful at machine-converged profiles
    checks.append(pt.grad_norm < 10.0 * max(scalar_res, 1e-13))
    checks.append(pt.classification == "fully-nontrivial")
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    report_line(8, ok, 60, elapsed,
                f"root {roots[0]:.10f}, identities at 1e-10, grad {pt.grad_norm:.2e} "
                f"vs scalar residual {scalar_res:.2e}")
    assert ok


def test_criterion_09_bubble_integral_orders():
    t0 = time.perf_counter()
    checks = []
    details = []
    for n in (4, 5):
        rep = fit_orders(default_eps_grid(), n)
        checks.append(rep.all_passed)
        worst = max(abs(f.slope - f.expected) for f in rep.fits)
        details.append(f"N={n} worst slope dev {worst:.3f}")
    g1, _ = bubble_norms(4, 1.0)
    g2, _ = bubble_norms(4, 0.5)
    checks.append(abs(g2 - g1) < 1e-8 * g1)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 120.0
    report_line(9, ok, 120, elapsed, "; ".join(details) + "; bubble norm eps-independent at 1e-8")
    assert ok


def test_criterion_10_critical_linking_bound():
    t0 = time.perf_counter()
    n = 5
    dom = BoxDomain((8.0,) * n)
    basis = SineBasis(dom, (2,) * n)
    kappa = 0.5 * float(basis.eigenvalues[0])
    lam = 2.0 * interior_threshold(1.0, 1.0, 5.0 / 3.0, 5.0 / 3.0, n)
    lp = LimitParams(kappa1=kappa, kappa2=kappa, mu1=1.0, mu2=1.0, lam=lam, alpha=5.0 / 3.0, beta=5.0 / 3.0, dim=n)
    s_coupled, r_min = coupled_sobolev_constant(lp)
    s_amp, t_amp = minimizer_amplitudes(lp, s_coupled, r_min)
    checks = []
    margins = []
    records = linking_sweep((1e-2, 1e-3), lp, basis, s_amp, t_amp, s_coupled)
    for rec, (closed, direct) in records:
        checks.append(abs(closed - direct) <= 1e-8 * abs(closed))
        checks.append(rec.passed and rec.best_value < rec.threshold)
        margins.append((rec.threshold - rec.best_value) / rec.threshold)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 300.0
    report_line(10, ok, 300, elapsed,
                f"strictly below threshold at eps=1e-2,1e-3 (relative margins {margins[0]:.1e}, {margins[1]:.1e})")
    assert ok


def test_criterion_11_calculus_inequalities():
    t0 = time.perf_counter()
    r_grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
    checks = []
    for q in (1.5, 2.0, 3.0):
        rep = verify_single_power(q, r_grid)
        checks.append(rep.passed)
    for a, b in ((2.0, 2.0), (1.5, 2.5)):
        rep = verify_product_powers(a, b, r_grid)
        checks.append(rep.passed and rep.worst_slack >= -1e-9)
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 10.0
    report_line(11, ok, 10, elapsed,
                "single-power and product bounds at their exact maximizers, sharp constants, slack >= -1e-9")
    assert ok


def test_criterion_12_determinism(multiplicity_runs):
    t0 = time.perf_counter()
    code1, code2, bytes1, bytes2, _ = multiplicity_runs
    ok = code1 == 0 and code2 == 0 and bytes1 == bytes2
    elapsed = time.perf_counter() - t0
    report_line(12, ok, 600, elapsed,
                f"two seeded multiplicity runs byte-identical ({len(bytes1)} bytes)")
    assert ok
