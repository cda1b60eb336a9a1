"""Config validation, report schema, determinism, and exit codes."""

import copy
import json
import os

import numpy as np
import pytest

from sinesolve.cli import main, parse_config
from sinesolve.errors import ConfigError

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
    cfg = parse_config(copy.deepcopy(BASE), needs_box=True)
    assert cfg.params.lam == 50.0
    assert cfg.lengths == (1.0,)
    assert cfg.solver.rng_seed == 3


def test_unknown_keys_rejected():
    bad = copy.deepcopy(BASE)
    bad["problem"]["mystery"] = 1
    with pytest.raises(ConfigError):
        parse_config(bad, needs_box=True)
    bad2 = copy.deepcopy(BASE)
    bad2["extra_top"] = {}
    with pytest.raises(ConfigError):
        parse_config(bad2, needs_box=True)


def test_invalid_values_rejected():
    for key, value in (("lambda", -5.0), ("mu1", 0.0), ("alpha", 1.0)):
        bad = copy.deepcopy(BASE)
        bad["problem"][key] = value
        with pytest.raises(ConfigError):
            parse_config(bad, needs_box=True)


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
        ("ground-state", "problem", "quadrature_oversample", "NaN"),
        ("ground-state", "problem", "quadrature_oversample", "1e400"),
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
    parse_config(rep["config"], needs_box=True)
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


def test_synchronized_requires_equal_kappas(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["kappa2"] = 1.0
    assert main(["synchronized", "--config", write_config(tmp_path, cfg)]) == 2


def test_thresholds_subcommand_with_threads(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["task"] = {"m": 2, "lambda_grid": [1.0, 5.0, 25.0, 125.0]}
    cfg["output"]["report"] = str(tmp_path / "th.json")
    path = write_config(tmp_path, cfg)
    assert main(["thresholds", "--config", path, "--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
    assert main(["thresholds", "--config", path, "--out", str(tmp_path / "t2"), "--threads", "3"]) == 0
    a = (tmp_path / "t1" / "th.json").read_bytes()
    b = (tmp_path / "t2" / "th.json").read_bytes()
    assert a == b  # thread count must not affect the report
    rep = json.loads(a)
    sups = [r["value"] for r in rep["results"] if r["family"] == "diagonal-sup"]
    assert sups == sorted(sups, reverse=True)
    assert rep["thresholds"]["lambda_bar"] > 0


def test_format_both_flag(tmp_path):
    cfg = copy.deepcopy(BASE)
    cfg["output"]["report"] = str(tmp_path / "fmt.json")
    cfg["output"]["formats"] = ["json"]
    path = write_config(tmp_path, cfg)
    assert main(["ground-state", "--config", path, "--format", "both"]) == 0
    assert (tmp_path / "fmt.json").exists()
    assert (tmp_path / "fmt.csv").exists()


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

    def counting(*args, **kwargs):
        calls.append(kwargs.get("lam"))
        return original(*args, **kwargs)

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
    cfg = copy.deepcopy(BASE)
    cfg["problem"]["kappa2"] = kappa2
    cfg["solver"].update({"n_mode_seeds": 2, "n_random_seeds": 0})
    cfg["task"] = {"m": 2} if subcommand == "thresholds" else {}
    cfg["output"]["report"] = str(tmp_path / "rep.json")
    assert main([subcommand, "--config", write_config(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["timing"]["counters"]["scalar_solves"] == solves
