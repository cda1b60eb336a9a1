"""Config validation, report schema, determinism, and exit codes."""

import copy
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from sinesolve import cli, estimates
from sinesolve.cli import SUBCOMMANDS, main, parse_config
from sinesolve.energy import SystemParams
from sinesolve.errors import ConfigError
from sinesolve.limit import LimitParams
from sinesolve.nehari import SolverConfig
from sinesolve.radial import _reference_rule

BASE = {
    "problem": {
        "kappa1": 0.0, "kappa2": 0.0, "mu1": 1.0, "mu2": 1.0,
        "lambda": 50.0, "alpha": 2.0, "beta": 2.0,
        "lengths": [1.0], "cutoffs": [16],
    },
    "solver": {"seed": 3},
    "task": {},
    "output": {"report": "report.json", "formats": ["json"]},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_config_roundtrip():
    cfg = parse_config(copy.deepcopy(BASE), SUBCOMMANDS["ground-state"][0])
    assert cfg.params.lam == 50.0
    assert cfg.basis.domain.lengths == (1.0,)
    assert cfg.basis.cutoffs == (16,)
    assert cfg.solver.rng_seed == 3


def test_unknown_keys_rejected():
    bad = copy.deepcopy(BASE)
    bad["problem"]["mystery"] = 1
    with pytest.raises(ConfigError):
        parse_config(bad, SUBCOMMANDS["ground-state"][0])
    bad2 = copy.deepcopy(BASE)
    bad2["extra_top"] = {}
    with pytest.raises(ConfigError):
        parse_config(bad2, SUBCOMMANDS["ground-state"][0])


def test_removed_max_newton_iter_key_exit_2(tmp_path):
    # the Newton solve is bounded by its function-evaluation budget alone
    bad = copy.deepcopy(BASE)
    bad["solver"]["max_newton_iter"] = 120
    bad["output"]["report"] = str(tmp_path / "never.json")
    assert main(["ground-state", "--config", write_config(tmp_path, bad)]) == 2
    assert not os.path.exists(tmp_path / "never.json")


def test_invalid_values_rejected():
    for key, value in (("lambda", -5.0), ("mu1", 0.0), ("alpha", 1.0)):
        bad = copy.deepcopy(BASE)
        bad["problem"][key] = value
        with pytest.raises(ConfigError):
            parse_config(bad, SUBCOMMANDS["ground-state"][0])


def test_malformed_config_exit_2(tmp_path):
    bad = copy.deepcopy(BASE)
    bad["problem"]["lambda"] = -5.0
    bad["output"]["report"] = str(tmp_path / "never.json")
    code = main(["ground-state", "--config", write_config(tmp_path, bad)])
    assert code == 2
    assert not os.path.exists(tmp_path / "never.json")


@pytest.mark.parametrize(
    "subcommand, section, key, literal",
    [
        ("ground-state", "problem", "kappa1", "NaN"),
        ("thresholds", "task", "lambda_grid", "[1.0, NaN]"),
    ],
)
def test_non_finite_config_exit_2(tmp_path, subcommand, section, key, literal):
    cfg = copy.deepcopy(BASE)
    cfg["task"] = {"m": 2} if subcommand == "thresholds" else {}
    cfg[section][key] = "PLACEHOLDER"
    cfg["output"]["report"] = str(tmp_path / "never.json")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', literal))
    assert main([subcommand, "--config", str(path)]) == 2
    assert not os.path.exists(tmp_path / "never.json")


def test_ground_state_run_and_schema(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["output"]["report"] = str(tmp_path / "gs.json")
    code = main(["ground-state", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    rep = json.loads((tmp_path / "gs.json").read_text())
    assert set(rep) == {"schema", "config", "results", "thresholds", "timing"}
    assert rep["schema"] == "sinesolve-report/1"
    # config echo re-validates (schema round-trip)
    parse_config(rep["config"], SUBCOMMANDS["ground-state"][0])
    system = [r for r in rep["results"] if r["family"] == "system"]
    assert len(system) == 1
    assert system[0]["classification"] == "fully-nontrivial"
    assert system[0]["below_threshold"] is True
    assert 0.0 < system[0]["energy"] < rep["thresholds"]["c0"]
    # energies sorted ascending within each family group
    by_family = {}
    for r in rep["results"]:
        by_family.setdefault(r["family"], []).append(r.get("energy", 0.0))
    for vals in by_family.values():
        assert vals == sorted(vals)


def test_multiplicity_determinism_and_csv(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["lambda"] = 200.0
    cfg["solver"].update({"seed": 11, "budget": 20})
    cfg["task"] = {"k": 2}
    cfg["output"] = {"report": str(tmp_path / "m.json"), "formats": ["json", "csv"]}
    path = write_config(tmp_path, cfg)
    assert main(["multiplicity", "--config", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["multiplicity", "--config", path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "m.json").read_bytes()
    b = (tmp_path / "b" / "m.json").read_bytes()
    assert a == b
    csv_text = (tmp_path / "a" / "m.csv").read_text()
    assert "\r" not in csv_text
    assert csv_text.splitlines()[0].startswith("family,")
    rep = json.loads(a)
    assert len(rep["results"]) >= 2


def test_seed_flag_changes_report(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["lambda"] = 200.0
    cfg["solver"].update({"seed": 11, "budget": 8})
    cfg["task"] = {"k": 1}
    cfg["output"] = {"report": str(tmp_path / "s.json"), "formats": ["json"]}
    path = write_config(tmp_path, cfg)
    assert main(["multiplicity", "--config", path, "--out", str(tmp_path / "s1")]) == 0
    assert main(["multiplicity", "--config", path, "--out", str(tmp_path / "s2"), "--seed", "99"]) == 0
    rep1 = json.loads((tmp_path / "s1" / "s.json").read_text())
    rep2 = json.loads((tmp_path / "s2" / "s.json").read_text())
    assert rep1["config"]["solver"]["seed"] == 11
    assert rep2["config"]["solver"]["seed"] == 99


def test_limit_subcommand(tmp_path):
    cfg = {
        "problem": {"mu1": 1.0, "mu2": 1.0, "lambda": 1.0, "alpha": 2.0, "beta": 2.0, "dim": 4},
        "task": {},
        "output": {"report": str(tmp_path / "lim.json"), "formats": ["json"]},
    }
    assert main(["limit", "--config", write_config(tmp_path, cfg)]) == 0
    th = json.loads((tmp_path / "lim.json").read_text())["thresholds"]
    assert th["r_min"] == pytest.approx(1.0, abs=1e-6)
    assert th["lambda0"] == pytest.approx(0.5, abs=1e-6)
    assert th["coupled_constant"] == pytest.approx(
        2.0 / np.sqrt(6.0) * th["sobolev_constant"], rel=1e-9
    )


def test_limit_boundary_flag(tmp_path):
    cfg = {
        "problem": {"mu1": 1.0, "mu2": 1.0, "lambda": 0.2, "alpha": 2.0, "beta": 2.0, "dim": 4},
        "task": {},
        "output": {"report": str(tmp_path / "limb.json"), "formats": ["json"]},
    }
    assert main(["limit", "--config", write_config(tmp_path, cfg)]) == 0
    th = json.loads((tmp_path / "limb.json").read_text())["thresholds"]
    assert th["boundary_infimum"] is True
    assert "coupled_constant" not in th


def test_synchronized_subcommand(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["problem"].update({"mu2": 2.0, "lambda": 2.0})
    cfg["output"]["report"] = str(tmp_path / "sync.json")
    assert main(["synchronized", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "sync.json").read_text())
    assert rep["thresholds"]["n_roots"] == 1
    rec = rep["results"][0]
    assert rec["ratio_root"] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-10)
    assert rec["classification"] == "fully-nontrivial"


def test_synchronized_root_outside_the_window_exits_4(tmp_path):
    # alpha, beta < 2 guarantee a root of h, but it lies near r = 1e-18, below R_WINDOW
    cfg = copy.deepcopy(BASE)
    cfg["problem"].update({"mu2": 3.0, "lambda": 1.0, "alpha": 1.99, "beta": 1.5})
    cfg["output"]["report"] = str(tmp_path / "sync.json")
    assert main(["synchronized", "--config", write_config(tmp_path, cfg)]) == 4
    rep = json.loads((tmp_path / "sync.json").read_text())
    assert rep["results"] == []
    assert rep["thresholds"]["root_guaranteed"] is True
    assert rep["thresholds"]["n_roots"] == 0
    assert rep["thresholds"]["notes"] == ["a root is guaranteed but none lies in the scan window [1e-08, 1e+08]"]


def test_synchronized_requires_equal_kappas(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["kappa2"] = 1.0
    assert main(["synchronized", "--config", write_config(tmp_path, cfg)]) == 2


def test_thresholds_subcommand(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["task"] = {"m": 2, "lambda_grid": [1.0, 5.0, 25.0, 125.0]}
    cfg["output"]["report"] = str(tmp_path / "th.json")
    assert main(["thresholds", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "th.json").read_text())
    sups = [r["value"] for r in rep["results"] if r["family"] == "diagonal-sup"]
    assert sups == sorted(sups, reverse=True)
    assert rep["thresholds"]["lambda_bar"] > 0


def test_verify_estimates_sweep_rows_are_the_bubble_integrals(tmp_path):
    # the report's sweep rows are cutoff_bubble_integrals at each eps, in order
    cfg = {
        "problem": {"mu1": 1.0, "mu2": 1.0, "lambda": 1.0, "alpha": 3.0, "beta": 3.0, "dim": 3},
        "output": {"report": str(tmp_path / "ve.json")},
    }
    main(["verify-estimates", "--config", write_config(tmp_path, cfg)])
    rows = [{k: v for k, v in r.items() if k != "family"}
            for r in json.loads((tmp_path / "ve.json").read_text())["results"]
            if r["family"] == "bubble-integrals"]
    cutoff = estimates.CutoffSpec(1.5)
    want = [dataclasses.asdict(estimates.cutoff_bubble_integrals(e, cutoff, 3))
            for e in estimates.default_eps_grid()]
    assert rows == want


def test_verify_estimates_resonant_skip(tmp_path):
    g1 = 4 * np.pi**2 / 64.0  # gamma_1 of the (0,8)^4 box
    cfg = {
        "problem": {
            "kappa1": g1, "kappa2": 0.3, "mu1": 1.0, "mu2": 1.0, "lambda": 1.0,
            "alpha": 2.0, "beta": 2.0, "lengths": [8.0] * 4, "cutoffs": [2] * 4,
        },
        "task": {"eps_grid": list(np.geomspace(1e-1, 1e-3, 7))},
        "output": {"report": str(tmp_path / "res.json"), "formats": ["json"]},
    }
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "res.json").read_text())
    notes = rep["thresholds"]["notes"]
    assert any("resonant kappa" in n for n in notes)
    assert not any(r["family"] == "linking" for r in rep["results"])


def _unit_4box(kappa):
    return {"kappa1": kappa, "kappa2": kappa, "mu1": 1.0, "mu2": 1.0, "lambda": 1.0,
            "alpha": 2.0, "beta": 2.0, "lengths": [1.0] * 4, "cutoffs": [2] * 4}


def test_verify_estimates_linking_eps_outside_plateau_exit_2(tmp_path, monkeypatch, capsys):
    # the unit 4-box's cutoff plateau is delta = 1/16, and the ray formula
    # needs eps < delta/2: 0.05 is refused before the sweep runs
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran on a malformed config")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    cfg = {"problem": _unit_4box(19.74), "task": {"linking_eps": [0.05]},
           "output": {"report": str(tmp_path / "never.json")}}
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "never.json")


def test_verify_estimates_bubble_integrals_once_per_eps(tmp_path, monkeypatch):
    # seven for the sweep, then one per linking eps for its ray, which gives
    # both its ray-max and its linking row
    calls = []
    counted = estimates.cutoff_bubble_integrals

    def counting(*args, **kwargs):
        calls.append(args[0])
        return counted(*args, **kwargs)

    monkeypatch.setattr(estimates, "cutoff_bubble_integrals", counting)
    cfg = {"problem": _unit_4box(2.0 * np.pi**2), "task": {"linking_eps": [1e-2, 1e-3]},
           "output": {"report": str(tmp_path / "count.json"), "formats": ["json"]}}
    main(["verify-estimates", "--config", write_config(tmp_path, cfg)])
    rep = json.loads((tmp_path / "count.json").read_text())
    assert sum(r["family"] == "linking" for r in rep["results"]) == 2
    assert sum(r["family"] == "ray-max" for r in rep["results"]) == 2
    assert len(calls) == 7 + 2


# every report row family and its keys; the CSV headers list them in row order
_POINT_KEYS = {"family", "energy", "grad_norm", "b_value", "b1", "b2", "mass1", "mass2",
               "classification", "orbit_id", "below_threshold", "coefficients"}
ROW_KEYS = {
    "system": _POINT_KEYS,
    "scalar": {"family", "component", "energy", "grad_norm", "b_value"},
    "synchronized": _POINT_KEYS | {"ratio_root", "s", "t", "scalar_residual"},
    "diagonal-sup": {"family", "lambda", "value", "m"},
    "bubble-integrals": {"family", "eps", "grad_sq", "crit", "crit_minus_one", "linear", "grad_abs",
                         "crit_minus_two", "square"},
    "order-fit": {"family", "name", "slope", "half_width", "expected", "model", "passed"},
    "inequality": {"family", "label", "constant", "worst_slack", "passed"},
    "ray-max": {"family", "eps", "closed", "direct", "consistent"},
    "linking": {"family", "eps", "best_value", "threshold", "passed", "ray_radius"},
}
CSV_HEADERS = {
    "ground-state": "family,component,energy,grad_norm,b_value,b1,b2,mass1,mass2,classification,"
                    "orbit_id,below_threshold",
    "verify-estimates": "family,eps,grad_sq,crit,crit_minus_one,linear,grad_abs,crit_minus_two,square,"
                        "name,slope,half_width,expected,model,passed,label,constant,worst_slack,"
                        "closed,direct,consistent,best_value,threshold,ray_radius",
}


def test_report_row_keys_and_csv_headers_are_pinned(tmp_path):
    # a renamed or reordered record field must not change a report unnoticed
    runs = {
        "ground-state": copy.deepcopy(BASE),
        "synchronized": copy.deepcopy(BASE),
        "thresholds": {**copy.deepcopy(BASE), "task": {"m": 2, "lambda_grid": [1.0, 5.0]}},
        "verify-estimates": {"problem": _unit_4box(2.0 * np.pi**2), "task": {"linking_eps": [1e-2]}},
    }
    runs["synchronized"]["problem"].update({"mu2": 2.0, "lambda": 2.0})
    keys = {}
    for name, cfg in runs.items():
        cfg["output"] = {"report": str(tmp_path / f"{name}.json"), "formats": ["json", "csv"]}
        # 4 is a failed property check, which still writes the whole report
        assert main([name, "--config", write_config(tmp_path, cfg, f"{name}.config.json")]) in (0, 4)
        for row in json.loads((tmp_path / f"{name}.json").read_text())["results"]:
            assert keys.setdefault(row["family"], set(row)) == set(row), row["family"]
        if name in CSV_HEADERS:
            assert (tmp_path / f"{name}.csv").read_text().splitlines()[0] == CSV_HEADERS[name]
    assert keys == ROW_KEYS


@pytest.mark.parametrize("cause", ["unreachable tolerance", "no positive part", "scaled coefficients"])
def test_convergence_failure_exit_3_counts_the_seed_diagnostics(tmp_path, monkeypatch, capsys, cause):
    from sinesolve import nehari
    from sinesolve.errors import ConvergenceFailureError

    cfg = copy.deepcopy(BASE)
    cfg["output"]["report"] = str(tmp_path / "never.json")
    if cause == "unreachable tolerance":
        monkeypatch.setattr(nehari, "NEWTON_TOL", 1e-30)
    else:  # above gamma_16 every mode is nonpositive, so no seed has a ray, at any scale
        cfg["problem"]["kappa1"] = 1.01 * 16**2 * np.pi**2
        if cause == "scaled coefficients":
            cfg["problem"].update({"mu1": 1e14, "mu2": 1e14, "lambda": 5e15})
    command, runner = SUBCOMMANDS["ground-state"]
    with pytest.raises(ConvergenceFailureError) as failure:
        runner(parse_config(copy.deepcopy(cfg), command))
    diagnostics = failure.value.diagnostics
    assert diagnostics
    if cause != "unreachable tolerance":
        assert set(diagnostics) == {nehari.NO_POSITIVE_PART}
    assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    counts = ", ".join(f"{diagnostics.count(r)} {r}" for r in sorted(set(diagnostics)))
    assert err == f"solver failure: {failure.value} ({counts})\n"
    assert not os.path.exists(tmp_path / "never.json")


@pytest.mark.parametrize("kappa, cutoff", [(0.0, 16), (15.0, 24)])
def test_ground_state_is_scale_free(tmp_path, kappa, cutoff):
    # scaling (mu1, mu2, lambda) by c maps each solution u to c^(-1/2) u (p = 4)
    # and its energy E to E / c, so every c must give the same kind of state
    energies = []
    for k in (0, 20, 46, 60, 80):
        c = 2.0**k
        cfg = copy.deepcopy(BASE)
        cfg["problem"].update({"kappa1": kappa, "kappa2": kappa, "cutoffs": [cutoff],
                               "mu1": c, "mu2": c, "lambda": 50.0 * c})
        cfg["output"]["report"] = str(tmp_path / f"k{k}.json")
        assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 0
        results = json.loads((tmp_path / f"k{k}.json").read_text())["results"]
        (row,) = [r for r in results if r["family"] == "system"]
        assert row["classification"] == "fully-nontrivial"
        energies.append(row["energy"] * c)
    # at kappa = 15, E*c moves by 1.1e-6 relative at k = 60: the gradient scales
    # by c^(-1/2) too, and Newton stops at the absolute gradient norm NEWTON_TOL
    tol = 1e-12 if kappa == 0.0 else 1e-5 * energies[0]
    assert max(abs(e - energies[0]) for e in energies) <= tol


@pytest.mark.parametrize("kappa, cutoff", [(0.0, 16), (15.0, 24)])
def test_multiplicity_is_scale_free(tmp_path, kappa, cutoff):
    # scaling (mu1, mu2, lambda) by c scales every orbit and every orbit
    # distance by c^(-1/2), so the dedup rule must keep the same orbits: an
    # absolute one drops them all as copies of 0 once their norm is small
    energies = []
    for k in (0, 20, 40, 60):
        c = 2.0**k
        cfg = copy.deepcopy(BASE)
        cfg["problem"].update({"kappa1": kappa, "kappa2": kappa, "cutoffs": [cutoff],
                               "mu1": c, "mu2": c, "lambda": 200.0 * c})
        cfg["solver"] = {"n_mode_seeds": 2, "n_random_seeds": 0, "budget": 8}
        cfg["task"] = {"k": 2}
        cfg["output"]["report"] = str(tmp_path / f"k{k}.json")
        assert main(["multiplicity", "--config", write_config(tmp_path, cfg)]) == 0
        results = json.loads((tmp_path / f"k{k}.json").read_text())["results"]
        assert len(results) == 2, k
        energies.append([row["energy"] * c for row in results])
    assert max(abs(e - e0) for row in energies for e, e0 in zip(row, energies[0])) <= 1e-12


# each dimension's eps floor, 1e-102.51 (N=3), 1e-76.61 (N=4), 1e-61.06 (N=5),
# lies between a grid that runs and one that would overflow
_CRITICAL_AB = {3: 3.0, 5: 5.0 / 3.0}


def _eps_floor_case(where, dim, eps):
    if where == "linking_eps":
        return {"problem": _unit_4box(2.0 * np.pi**2), "task": {"linking_eps": [eps]}}
    ab = _CRITICAL_AB[dim]
    return {"problem": {"mu1": 1.0, "mu2": 1.0, "lambda": 1.0, "alpha": ab, "beta": ab, "dim": dim},
            "task": {"eps_grid": list(np.geomspace(100.0 * eps, eps, 7))}}


@pytest.mark.parametrize("where, dim, eps", [
    ("eps_grid", 3, 1e-102), ("eps_grid", 5, 1e-61), ("linking_eps", 4, 1e-76),
])
def test_eps_just_above_the_floor_runs(tmp_path, where, dim, eps):
    cfg = {**_eps_floor_case(where, dim, eps), "output": {"report": str(tmp_path / "ok.json")}}
    assert estimates.eps_floor(dim) < eps
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) in (0, 4)
    rep = json.loads((tmp_path / "ok.json").read_text())
    if where == "linking_eps":
        assert [r["eps"] for r in rep["results"] if r["family"] == "ray-max"] == [eps]


@pytest.mark.parametrize("where, dim, eps", [
    ("eps_grid", 3, 1e-103), ("eps_grid", 5, 1e-62), ("linking_eps", 4, 1e-77),
])
def test_eps_below_the_floor_exits_2_before_any_solver(tmp_path, monkeypatch, capsys, where, dim, eps):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran below the eps floor")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    cfg = {**_eps_floor_case(where, dim, eps), "output": {"report": str(tmp_path / "never.json")}}
    assert estimates.eps_floor(dim) > eps
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) == 2
    assert "floor" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "never.json")


def test_verify_estimates_tilde_above_dim_3_skip(tmp_path):
    # kappa = 49.35 lies between gamma_1 = 4 pi^2 and gamma_2 = 7 pi^2 of the
    # unit 4-box, so X~ is nontrivial and the linking bound is not run
    cfg = {"problem": _unit_4box(49.35), "task": {},
           "output": {"report": str(tmp_path / "tilde.json"), "formats": ["json"]}}
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "tilde.json").read_text())
    assert rep["thresholds"]["notes"] == ["nonpositive subspace: linking bound skipped"]
    assert not any(r["family"] in ("linking", "ray-max") for r in rep["results"])


def test_verify_estimates_tilde_dim_3_skip(tmp_path):
    # kappa = 40 lies between gamma_1 = 3 pi^2 and gamma_2 = 6 pi^2 of the
    # unit 3-box: the same skip as in every other dimension.  The only
    # failing rows allowed are the two dimension-3 order fits that expect
    # eps^2 where the integrals are O(eps); the exit code follows them
    problem = {"kappa1": 40.0, "kappa2": 40.0, "mu1": 1.0, "mu2": 1.0, "lambda": 1.0,
               "alpha": 3.0, "beta": 3.0, "lengths": [1.0] * 3, "cutoffs": [2] * 3}
    cfg = {"problem": problem, "task": {},
           "output": {"report": str(tmp_path / "tilde.json"), "formats": ["json"]}}
    code = main(["verify-estimates", "--config", write_config(tmp_path, cfg)])
    rep = json.loads((tmp_path / "tilde.json").read_text())
    assert rep["thresholds"]["notes"] == ["nonpositive subspace: linking bound skipped"]
    assert not any(r["family"] in ("linking", "ray-max") for r in rep["results"])
    failed = [r for r in rep["results"] if r.get("passed") is False]
    assert {(r["family"], r["name"]) for r in failed} <= {("order-fit", "crit_minus_two"), ("order-fit", "square")}
    assert code == (4 if failed else 0)


def test_verify_estimates_failing_bound_exit_4(tmp_path):
    # on the unit 5-box at eps=1e-2 the cutoff bridge beats the kappa gain and
    # the linking bound genuinely fails; the harness must report it via exit 4
    g1 = 5 * np.pi**2
    cfg = {
        "problem": {
            "kappa1": 0.5 * g1, "kappa2": 0.5 * g1, "mu1": 1.0, "mu2": 1.0,
            "lambda": 0.0156918, "alpha": 5.0 / 3.0, "beta": 5.0 / 3.0,
            "lengths": [1.0] * 5, "cutoffs": [2] * 5,
        },
        "task": {"eps_grid": list(np.geomspace(1e-1, 1e-3, 7)), "linking_eps": [1e-2]},
        "output": {"report": str(tmp_path / "fail.json"), "formats": ["json"]},
    }
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) == 4
    rep = json.loads((tmp_path / "fail.json").read_text())
    linking = [r for r in rep["results"] if r["family"] == "linking"]
    assert linking and not linking[0]["passed"]


@pytest.mark.parametrize("section, key", [("problem", "kappa1"), ("problem", "cutoffs")])
def test_oversized_integer_config_exit_2(tmp_path, section, key):
    cfg = copy.deepcopy(BASE)
    cfg[section][key] = "PLACEHOLDER"
    cfg["output"]["report"] = str(tmp_path / "never.json")
    huge = "1" + "0" * 400
    literal = f"[{huge}]" if key == "cutoffs" else huge
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', literal))
    assert main(["ground-state", "--config", str(path)]) == 2
    assert not os.path.exists(tmp_path / "never.json")


def test_thresholds_runs_one_diagonal_sup(tmp_path, monkeypatch):
    from sinesolve import cli, nehari

    calls = []
    original = nehari.diagonal_sup

    def counting(params, *args):
        calls.append(params.lam)
        return original(params, *args)

    monkeypatch.setattr(cli, "diagonal_sup", counting)
    monkeypatch.setattr(nehari, "diagonal_sup", counting)
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["lambda"] = 1.0
    cfg["task"] = {"m": 2, "lambda_grid": [1.0, 5.0]}
    cfg["output"]["report"] = str(tmp_path / "th.json")
    assert main(["thresholds", "--config", write_config(tmp_path, cfg)]) == 0
    assert calls == [1.0]
    assert json.loads((tmp_path / "th.json").read_text())["thresholds"]["lambda_bar"] > 0


@pytest.mark.parametrize("subcommand, kappa2, solves", [
    ("ground-state", 0.0, 1), ("ground-state", 5.0, 2), ("thresholds", 0.0, 1), ("thresholds", 5.0, 2),
])
def test_scalar_solves_counts_distinct_kappas(tmp_path, subcommand, kappa2, solves):
    # the counter does not depend on what ran before: after the first job on
    # the box every scalar state comes from the memo, and the count stays
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["kappa2"] = kappa2
    cfg["solver"].update({"n_mode_seeds": 2, "n_random_seeds": 0})
    cfg["task"] = {"m": 2} if subcommand == "thresholds" else {}
    cfg["output"]["report"] = str(tmp_path / "rep.json")
    for lam in (50.0, 20.0):  # cold, then warm
        cfg["problem"]["lambda"] = lam
        assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["timing"]["counters"]["scalar_solves"] == solves


def _memo_jobs(tmp_path) -> list[tuple[str, str, str]]:
    """(subcommand, config path, report stem) of a limit lam-sweep and the box1d-definite jobs."""
    specs = [("limit", f"limit-{lam:g}", {"mu1": 1.0, "mu2": 2.0, "lambda": lam, "alpha": 2.0,
                                         "beta": 2.0, "dim": 4}, {})
             for lam in (0.003, 0.3, 3.0, 30.0)]
    box = BASE["problem"]  # the 1-D K=16 box at lambda = 50
    specs += [
        ("ground-state", "ground-state", box, {}),
        ("multiplicity", "multiplicity", {**box, "lambda": 200.0}, {"k": 2}),
        ("thresholds", "thresholds", {**box, "lambda": 1.0}, {"m": 3}),
        ("synchronized", "synchronized", {**box, "mu2": 2.0, "lambda": 2.0}, {}),
    ]
    jobs = []
    for subcommand, stem, problem, task in specs:
        cfg = {"problem": problem, "task": task,
               "solver": {"n_mode_seeds": 2, "n_random_seeds": 0, "budget": 8},
               "output": {"report": f"{stem}.json", "formats": ["json", "csv"]}}
        jobs.append((subcommand, write_config(tmp_path, cfg, f"{stem}.config.json"), stem))
    return jobs


def test_warm_memos_leave_every_report_byte_identical(tmp_path, fresh_memos, scalar_searches):
    from sinesolve.limit import interior_threshold

    jobs = _memo_jobs(tmp_path)

    def run(order, out, cold):
        reports = {}
        for subcommand, path, stem in order:
            if cold:
                fresh_memos()
            assert main([subcommand, "--config", path, "--out", str(out)]) == 0
            reports[stem] = [(out / f"{stem}.{ext}").read_bytes() for ext in ("json", "csv")]
        return reports

    cold = run(jobs, tmp_path / "cold", cold=True)
    assert len(scalar_searches) == 4  # one per box job
    fresh_memos()
    del scalar_searches[:]
    # in order: the sweep scans for lambda0 once, the box jobs search once
    assert run(jobs, tmp_path / "forward", cold=False) == cold
    assert interior_threshold.cache_info()[:2] == (3, 1)  # hits, misses
    assert scalar_searches == [(0.0, 4.0)]
    # reversed, with both memos warm: no scan and no search at all
    assert run(jobs[::-1], tmp_path / "reverse", cold=False) == cold
    assert interior_threshold.cache_info()[:2] == (7, 1)
    assert len(scalar_searches) == 1


@pytest.mark.parametrize(
    "dim, ab, lam, boundary",
    [(4, 2.0, 1.0, False), (5, 5.0 / 3.0, 0.003, True)],
    ids=["n4-interior", "n5-boundary"],
)
def test_limit_report_same_with_cold_and_warm_rule_cache(tmp_path, dim, ab, lam, boundary):
    cfg = {
        "problem": {"mu1": 1.0, "mu2": 1.0, "lambda": lam, "alpha": ab, "beta": ab, "dim": dim},
        "task": {},
        "output": {"report": str(tmp_path / "lim.json"), "formats": ["json"]},
    }
    path = write_config(tmp_path, cfg)
    _reference_rule.cache_clear()
    reports = []
    for _ in ("cold", "warm"):
        assert main(["limit", "--config", path]) == 0
        reports.append((tmp_path / "lim.json").read_bytes())
    assert json.loads(reports[0])["thresholds"]["boundary_infimum"] is boundary
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "dim, ab, mu2, lam",
    [(4, 2.0, 2.0, 3.0), (5, 5.0 / 3.0, 0.5, 100.0)],
    ids=["n4-mu2-lam3", "n5-mu0.5-lam100"],
)
def test_limit_report_same_with_full_pair_grid(tmp_path, monkeypatch, full_pair_grid, dim, ab, mu2, lam):
    # grid_oracle from the diagonal reduction and from the whole 601 x 601 grid
    cfg = {
        "problem": {"mu1": 1.0, "mu2": mu2, "lambda": lam, "alpha": ab, "beta": ab, "dim": dim},
        "task": {},
        "output": {"report": str(tmp_path / "lim.json"), "formats": ["json"]},
    }
    path = write_config(tmp_path, cfg)
    reports = []
    for oracle in (cli.pair_grid_infimum, full_pair_grid):
        monkeypatch.setattr(cli, "pair_grid_infimum", oracle)
        assert main(["limit", "--config", path]) == 0
        reports.append((tmp_path / "lim.json").read_bytes())
    assert json.loads(reports[0])["thresholds"]["boundary_infimum"] is False
    assert reports[0] == reports[1]


# -- the config schema ---------------------------------------------------------

# a valid config per subcommand; each malformed case below changes one value
VALID = {
    "ground-state": BASE,
    "multiplicity": {**BASE, "task": {"k": 2}},
    "thresholds": {**BASE, "task": {"m": 2}},
    "synchronized": BASE,
    "verify-estimates": {
        "problem": {"mu1": 1.0, "mu2": 1.0, "lambda": 1.0, "alpha": 2.0, "beta": 2.0, "dim": 4},
        "task": {},
    },
}

# every solver entry point a runner reaches first
SOLVER_ENTRY_POINTS = ("semitrivial_threshold", "diagonal_sup", "find_roots", "sobolev_constant",
                       "bubble_norms", "fit_orders")


@pytest.mark.parametrize("subcommand", sorted(VALID))
def test_valid_configs_parse(subcommand):
    parse_config(copy.deepcopy(VALID[subcommand]), SUBCOMMANDS[subcommand][0])


@pytest.mark.parametrize(
    "subcommand, section, key, value",
    [
        ("multiplicity", "task", "k", 0),
        ("multiplicity", "task", "k", "two"),
        ("thresholds", "task", "m", 0),
        ("thresholds", "task", "m", 99),
        ("thresholds", "task", "lambda_grid", 3),
        ("ground-state", "problem", "cutoffs", 6),
        ("ground-state", "problem", "lengths", "ab"),
        ("ground-state", "solver", "tol", 1e-10),  # removed: nehari.NEWTON_TOL
        ("ground-state", "solver", "budget", [1]),
        ("verify-estimates", "task", "eps_grid", [1e-1, 1e-3]),
        ("verify-estimates", "task", "delta", 1.5),  # removed: estimates.SWEEP_CUTOFF
        ("multiplicity", "task", "k", 2.7),
        ("ground-state", "problem", "cutoffs", [2.5]),
        ("ground-state", "problem", "mu1", True),
        ("verify-estimates", "task", "skip_linking", "no"),
        ("ground-state", "solver", "n_mode_seeds", -1),
        ("multiplicity", "task", "dedup_tol", -1),
        ("ground-state", "output", "formats", []),
        # removed: each basis carries one quadrature grid
        ("ground-state", "problem", "quadrature_oversample", 2.0),
        # removed: nonpositive_modes alone decides the nonpositive subspace
        ("ground-state", "solver", "zero_tol", 1e-9),
        # removed: nehari module constants, at the values these keys defaulted to
        ("ground-state", "solver", "seed_amplitude", 1.0),
        ("ground-state", "solver", "triviality_floor", 1e-10),
        ("ground-state", "solver", "plus_floor", 1e-6),
        ("multiplicity", "solver", "deflation_power", 2),
        ("multiplicity", "solver", "deflation_shift", 1.0),
        # the sweep's largest eps, 0.2, is not below delta/10 = 0.15
        ("verify-estimates", "task", "eps_grid", list(np.geomspace(0.2, 2e-3, 7))),
        # removed: fixed numerical choices, at the values these keys defaulted to
        ("multiplicity", "task", "dedup_tol", 1e-4),  # nehari.DEDUP_TOL
        ("thresholds", "task", "lambda_lo", 1e-6),  # nehari.LAMBDA_BAR_RANGE
        ("thresholds", "task", "lambda_hi", 1e8),
        ("synchronized", "task", "r_lo", 1e-8),  # synchronized.R_WINDOW
        ("synchronized", "task", "r_hi", 1e8),
        # removed: the linking harness checks the ray alone and samples nothing
        ("verify-estimates", "task", "sample_budget", 40),
        # removed: a config without lengths and cutoffs skips the linking harness
        ("verify-estimates", "task", "skip_linking", False),
        ("verify-estimates", "task", "support_radius", 3.0),  # removed: always 2 delta
    ],
)
def test_malformed_value_exits_2_before_any_solver(
    tmp_path, monkeypatch, capsys, subcommand, section, key, value
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran on a malformed config")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    cfg = copy.deepcopy(VALID[subcommand])
    cfg["output"] = {"report": str(tmp_path / "never.json")}
    cfg.setdefault(section, {})[key] = value
    assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "never.json")


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--threads", "0"), ("--threads", "-2"),
                                         ("--threads", "2"), ("--format", "both")])
def test_refused_flag_exits_2_before_any_solver(tmp_path, monkeypatch, flag, value):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran with a refused flag")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    cfg = copy.deepcopy(BASE)
    cfg["output"]["report"] = str(tmp_path / "never.json")
    with pytest.raises(SystemExit) as exc:
        main(["ground-state", "--config", write_config(tmp_path, cfg), flag, value])
    assert exc.value.code == 2
    assert not os.path.exists(tmp_path / "never.json")


def test_csv_report_path_with_both_formats_exits_2_before_any_solver(tmp_path, monkeypatch, capsys):
    # the CSV table would land on the JSON report's path and replace it
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran although the two reports share one path")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    cfg = copy.deepcopy(BASE)
    cfg["output"] = {"report": str(tmp_path / "out.csv"), "formats": ["json", "csv"]}
    assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_out_that_is_a_file_exits_2_before_any_solver(tmp_path, monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran with an --out that cannot be a directory")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    config = write_config(tmp_path, copy.deepcopy(BASE))
    assert main(["ground-state", "--config", config, "--out", str(blocker)]) == 2
    assert "config error" in capsys.readouterr().err
    assert blocker.read_text() == "a file, not a directory"
    assert sorted(os.listdir(tmp_path)) == ["blocker", "cfg.json"]


@pytest.mark.parametrize("formats, blocked", [(["json"], "out.json"), (["json", "csv"], "out.csv")])
def test_report_path_that_is_a_directory_exits_2_before_any_solver(
    tmp_path, monkeypatch, capsys, formats, blocked
):
    # the run would end in a rename onto the directory, after the solver
    def unreachable(*args, **kwargs):
        raise AssertionError("a solver ran although a report path is a directory")

    for name in SOLVER_ENTRY_POINTS:
        monkeypatch.setattr(cli, name, unreachable)
    (tmp_path / blocked).mkdir()
    cfg = copy.deepcopy(BASE)
    cfg["output"] = {"report": str(tmp_path / "out.json"), "formats": formats}
    assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 2
    assert "is a directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted(["cfg.json", blocked])
    assert os.listdir(tmp_path / blocked) == []


@pytest.mark.parametrize("text", ["{}\n", 5], ids=["rename", "write"])
def test_failed_report_write_leaves_no_temporary_file(tmp_path, text):
    # a rename onto a directory fails, and so does writing a non-string
    target = tmp_path / "report.json"
    target.mkdir()
    with pytest.raises((IsADirectoryError, TypeError)):
        cli._write_atomically(str(target), text)
    assert os.listdir(tmp_path) == ["report.json"]


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_semitrivial_ground_state_at_c0_exits_0(tmp_path, lam):
    # below the cubic transition 2 lam = max(mu) the ground state is (0, w_2),
    # whose system energy reads a few ulps under c0: rounding, not a state
    # below the threshold, so classify does not object
    cfg = {"problem": {"kappa1": 15.0, "kappa2": 15.0, "mu1": 1.0, "mu2": 2.0, "lambda": lam,
                       "alpha": 2.0, "beta": 2.0, "lengths": [1.0], "cutoffs": [24]},
           "solver": {"n_mode_seeds": 2, "n_random_seeds": 0},
           "output": {"report": str(tmp_path / "gs.json")}}
    assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "gs.json").read_text())
    [system] = [r for r in rep["results"] if r["family"] == "system"]
    assert system["classification"] == "semitrivial-2"
    assert system["below_threshold"] is False
    assert system["energy"] == pytest.approx(rep["thresholds"]["c0"], rel=1e-14)


def test_scaled_ground_state_stays_fully_nontrivial(tmp_path):
    # scaling (mu1, mu2, lam) by c scales each solution by c^(-1/2) and the energy
    # by 1/c; the masses shrink with it, so no floor may treat them as zero
    energies = {}
    for c in (1.0, 1e4, 1e8, 1e12):
        cfg = copy.deepcopy(BASE)
        cfg["problem"].update({"mu1": c, "mu2": c, "lambda": 50.0 * c})
        cfg["solver"] = {"n_mode_seeds": 2, "n_random_seeds": 0}
        cfg["output"]["report"] = str(tmp_path / f"gs{c:g}.json")
        assert main(["ground-state", "--config", write_config(tmp_path, cfg)]) == 0, c
        [system] = [r for r in json.loads((tmp_path / f"gs{c:g}.json").read_text())["results"]
                    if r["family"] == "system"]
        assert system["classification"] == "fully-nontrivial", c
        assert system["below_threshold"] is True, c
        energies[c] = c * system["energy"]
    assert energies[1e4] == pytest.approx(energies[1.0], rel=1e-12)
    assert energies[1e8] == pytest.approx(energies[1.0], rel=1e-12)
    assert energies[1e12] == pytest.approx(energies[1.0], rel=1e-12)


def test_typed_values_and_defaults():
    cfg = copy.deepcopy(VALID["verify-estimates"])
    cfg["problem"]["dim"] = 4.0
    cfg["solver"] = {"budget": 7.0, "seed": 2}
    run = parse_config(cfg, SUBCOMMANDS["verify-estimates"][0])
    assert run.params.dim == 4 and isinstance(run.params.dim, int)
    assert run.solver.budget == 7 and isinstance(run.solver.budget, int)
    assert run.solver.rng_seed == 2
    assert run.task == {"eps_grid": estimates.default_eps_grid(), "linking_eps": (1e-2, 1e-3)}
    assert isinstance(run.params, LimitParams)
    assert type(parse_config(copy.deepcopy(BASE), SUBCOMMANDS["ground-state"][0]).params) is SystemParams
    assert run.raw is cfg  # the report echoes the config as given


@pytest.mark.parametrize("half", [{"lengths": [1.0] * 4}, {"cutoffs": [2] * 4, "dim": 4}],
                         ids=["lengths-only", "cutoffs-only"])
@pytest.mark.parametrize("subcommand", ["limit", "verify-estimates"])
def test_half_a_box_is_refused(tmp_path, capsys, subcommand, half):
    # a whole-space run may leave the box out, but half of one is a config
    # error, not a run without the box
    problem = {k: v for k, v in VALID["verify-estimates"]["problem"].items() if k != "dim"}
    cfg = {"problem": {**problem, **half}, "output": {"report": str(tmp_path / "r.json")}}
    assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 2
    assert "problem.lengths and problem.cutoffs go together" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_every_solver_field_is_a_config_key():
    # a field that no config key reaches is a setting only tests can change,
    # and a solver key outside SolverConfig is a setting passed around beside it
    fields = {"seed" if f.name == "rng_seed" else f.name: f.default for f in dataclasses.fields(SolverConfig)}
    for key, default in fields.items():
        assert cli.SCHEMA["solver"][key][1] == default, key
    assert set(cli.SCHEMA["solver"]) == set(fields)


@pytest.mark.parametrize("lam, boundary", [(1.0, False), (0.2, True)], ids=["interior", "boundary"])
def test_limit_runs_no_radial_quadrature(tmp_path, monkeypatch, lam, boundary):
    # every whole-space constant of a limit run comes from its formula
    from sinesolve import limit

    def no_quadrature(*args, **kwargs):
        raise AssertionError("limit ran a radial quadrature")

    monkeypatch.setattr(limit, "radial_integral", no_quadrature)
    cfg = {
        "problem": {"mu1": 1.0, "mu2": 1.0, "lambda": lam, "alpha": 2.0, "beta": 2.0, "dim": 4},
        "output": {"report": str(tmp_path / "lim.json")},
    }
    assert main(["limit", "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "lim.json").read_text())
    assert rep["thresholds"]["boundary_infimum"] is boundary
    assert rep["timing"]["counters"] == {}


def test_verify_estimates_broken_bubble_identity_exit_3(tmp_path, monkeypatch, capsys):
    # ||grad U||^2 and int U^{2*} must agree; a quadrature that breaks the
    # identity fails the run before any report is written
    from sinesolve import limit

    original = limit.radial_integral
    calls = []

    def skewed(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs) * (1.0 + 1e-6 * (len(calls) % 2))

    monkeypatch.setattr(limit, "radial_integral", skewed)
    cfg = copy.deepcopy(VALID["verify-estimates"])
    cfg["output"] = {"report": str(tmp_path / "never.json")}
    assert main(["verify-estimates", "--config", write_config(tmp_path, cfg)]) == 3
    assert "bubble identity violated" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "never.json")


def test_readme_documents_every_config_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = {}
        for line in fh:
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if len(cells) == 5:
                rows[cells[0], cells[1]] = (cells[2], cells[4])
    tables = dict(cli.SCHEMA)
    tables.update({f"task: {name}": command.task for name, (command, _) in cli.SUBCOMMANDS.items()})
    expected = {
        (block, key): (kind, " or ".join(rng) if isinstance(rng, tuple) else rng)
        for block, schema in tables.items()
        for key, (kind, _default, rng) in schema.items()
    }
    documented = {k: v for k, v in rows.items() if k[0] in tables}
    assert documented == expected


def test_readme_synopsis_names_every_flag(capsys):
    # the usage line of --help names each flag of main once
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        synopsis = [line for line in fh if line.startswith("sinesolve <subcommand> ")]
    assert len(synopsis) == 1
    flags = re.compile(r"--[a-z][a-z-]*")
    assert set(flags.findall(synopsis[0])) == set(flags.findall(usage)) != set()


def test_help_gives_each_subcommand_its_own_line(capsys):
    # argparse keeps the module docstring's subcommand table as written
    with pytest.raises(SystemExit):
        main(["--help"])
    lines = capsys.readouterr().out.splitlines()
    for name in cli.SUBCOMMANDS:
        assert sum(line.startswith(name + " ") for line in lines) == 1, name
