"""Tests of the benchmark's own code: output check, tracer wiring, result format.

    python3 -m pytest bench/tests

The traced passes make this take about half a minute.
"""

import copy
import importlib
import json
import os
import subprocess
import sys
import time

import pytest

import check
import probe
import run
import tracer
import worker
from workloads import WORKLOADS, jobs_for

from conftest import BENCH, ROOT


def _job(workload, name):
    return next(j for j in jobs_for(workload) if j["name"] == name)


@pytest.fixture(scope="module")
def reference():
    return check.load_reference()


@pytest.fixture(scope="module")
def indefinite_reports(tmp_path_factory):
    """Real reports of two box1d-indefinite jobs at the reference seed."""
    from sinesolve import cli

    out = tmp_path_factory.mktemp("reports")
    reports = {}
    for name in ("ground-state", "multiplicity-k5"):
        job = _job("box1d-indefinite", name)
        path = out / f"{name}.config.json"
        path.write_text(json.dumps({**job["config"], "output": {"report": f"{name}.json"}}))
        code = cli.main([job["subcommand"], "--config", str(path), "--seed",
                         str(check.REFERENCE_SEED), "--threads", "1", "--out", str(out)])
        reports[name] = (code, json.loads((out / f"{name}.json").read_text()))
    return reports


def _problems(reference, name, code, report):
    sub = _job("box1d-indefinite", name)["subcommand"]
    return check.check(reference[f"box1d-indefinite/{name}"], sub, code, report)


def test_reference_outputs_pass(reference, indefinite_reports):
    for name, (code, report) in indefinite_reports.items():
        assert _problems(reference, name, code, report) == []


def test_perturbed_energy_is_flagged(reference, indefinite_reports):
    code, report = copy.deepcopy(indefinite_reports["ground-state"])
    system = next(r for r in report["results"] if r["family"] == "system")
    system["energy"] *= 1.0 + 1e-6
    assert any(p.startswith("energy") for p in _problems(reference, "ground-state", code, report))


def test_missing_orbit_is_flagged(reference, indefinite_reports):
    code, report = copy.deepcopy(indefinite_reports["multiplicity-k5"])
    report["results"].pop()
    problems = _problems(reference, "multiplicity-k5", code, report)
    assert any(p.startswith("orbits") for p in problems)


def test_changed_exit_code_is_flagged(reference, indefinite_reports):
    code, report = indefinite_reports["ground-state"]
    assert any(p.startswith("exit") for p in _problems(reference, "ground-state", 4, report))
    assert any(p.startswith("exit") for p in _problems(reference, "ground-state", 3, None))


def test_duplicate_orbit_breaks_invariants(reference, indefinite_reports):
    code, report = copy.deepcopy(indefinite_reports["multiplicity-k5"])
    twin = copy.deepcopy(report["results"][0])
    twin["coefficients"]["u1"] = [-c for c in twin["coefficients"]["u1"]]
    twin["orbit_id"] = 99
    report["results"].append(twin)
    assert any("coincide" in p for p in check.multiplicity_invariants(report))


def test_lambda_bar_matched_within_bisection_width(reference):
    ref = reference["box1d-definite/thresholds"]

    def problems(scale):
        report = {
            "results": [{"family": "diagonal-sup", "value": v} for v in ref["sups"]],
            "thresholds": {"c0": ref["c0"], "lambda_bar": ref["lambda_bar"] * scale},
        }
        return check.check(ref, "thresholds", 0, report)

    assert problems(1.0 + 5e-4) == []
    assert any(p.startswith("lambda_bar") for p in problems(1.0 + 3e-3))


def test_known_defects_are_recorded_as_exit_4(reference):
    for n in (3, 4, 5):
        assert reference[f"constants/verify-estimates-n{n}"]["exit"] == 4
    assert reference["constants/verify-estimates-n3"]["order-fit.passed"].count(False) == 2


# -- tracer ------------------------------------------------------------------


# names bound by `from ... import` in the modules that call them
FROM_IMPORTS = {
    "cli": ("ground_state", "multiplicity_search", "diagonal_sup", "coupling_threshold",
            "scalar_ground_state", "find_roots", "synchronized_solution", "sobolev_constant",
            "interior_threshold", "fit_orders", "linking_sweep", "parse_config"),
    "energy": ("synthesize", "project", "integrate", "mode_mass_matrix"),
    "limit": ("radial_integral",),
    "estimates": ("radial_integral", "radial_tail_integral"),
}


def test_install_rebinds_every_reference():
    energy_module = importlib.import_module("sinesolve.energy")
    assert not callable(energy_module)  # the package attribute is the function
    originals = {}
    for name, (sub, path) in tracer.SPANS.items():
        owner = importlib.import_module(f"sinesolve.{sub}")
        for part in path.split("."):
            owner = getattr(owner, part)
        originals[name] = owner
    t = tracer.Tracer()
    t.install()
    try:
        for sub, names in FROM_IMPORTS.items():
            module = importlib.import_module(f"sinesolve.{sub}")
            for attr in names:
                assert hasattr(getattr(module, attr), "__wrapped__"), f"{sub}.{attr}"
        for module in tracer.sinesolve_modules():
            for attr, value in vars(module).items():
                assert not any(value is o for o in originals.values()), f"{module.__name__}.{attr}"
    finally:
        t.uninstall()
    assert importlib.import_module("sinesolve.energy").synthesize is originals["domain.synthesize"]


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """One traced pass per workload, two of box1d-indefinite."""
    reference = check.load_reference()
    passes = {}
    for workload in WORKLOADS:
        work = str(tmp_path_factory.mktemp(workload))
        bench = run.Run(workload, check.REFERENCE_SEED, ROOT, work, reference)
        repeats = 2 if workload == "box1d-indefinite" else 1
        passes[workload] = [bench.one_pass(traced=True) for _ in range(repeats)]
        assert bench.failures == []
    return passes


def _layer(passes, workload, i=0):
    return tracer.layer_metrics(passes[workload][i]["spans"])


def test_bypass_predictions(traced_passes):
    assert _layer(traced_passes, "box1d-definite")["nehari.nehari_descent.calls"] > 0
    for workload in ("box1d-indefinite", "box-nd"):
        assert _layer(traced_passes, workload)["nehari.nehari_descent.calls"] == 0
    for workload in WORKLOADS:
        layer = _layer(traced_passes, workload)
        for metric in ("radial.radial_integral.calls", "radial.radial_tail_integral.calls"):
            assert (layer[metric] > 0) == (workload == "constants"), (workload, metric)


def test_calls_repeat_exactly(traced_passes):
    first, second = (_layer(traced_passes, "box1d-indefinite", i) for i in (0, 1))
    counts = [m for m in tracer.LAYER_METRICS if tracer.metric_unit(m) == "count"]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["energy.system.hessian.calls"] > 0


def test_self_time_within_inclusive_time(traced_passes):
    for workload, passes in traced_passes.items():
        for p in passes:
            for name, span in p["spans"].items():
                assert 0.0 <= span["self_s"] <= span["s"] + 1e-9, (workload, name)


# -- host clock --------------------------------------------------------------


def test_host_clock_scales_segments_and_leaves_out_probes(monkeypatch):
    # a probe that sleeps 0.05 s and reports the host at half the reference speed
    def slow_probe():
        time.sleep(0.05)
        return 2 * probe.PROBE_REF_S

    monkeypatch.setattr(probe, "probe", slow_probe)
    monkeypatch.setattr(probe, "PROBE_EVERY_S", 0.02)
    clock = probe.HostClock()
    record = {}
    clock.start(record)
    for _ in range(3):
        time.sleep(0.03)
        clock.checkpoint()  # each probes: 0.03 s of job time > PROBE_EVERY_S
    clock.stop(force=True)
    assert 0.09 <= record["wall_s"] < 0.15  # three probes' 0.15 s left out
    assert record["norm_wall_s"] == pytest.approx(record["wall_s"] / 2)
    assert record["norm_cpu_s"] == pytest.approx(record["cpu_s"] / 2)


def test_checkpoints_hook_every_reference():
    clock = probe.HostClock()
    originals = tracer.wrap_all(worker.CHECKPOINTS, clock.hook, missing_ok=True)
    try:
        hooked = {id(owner.__dict__[attr].__wrapped__) for owner, attr, _ in originals}
        assert len(hooked) == len(worker.CHECKPOINTS)  # no target missing at this commit
        cli = importlib.import_module("sinesolve.cli")
        assert hasattr(cli.diagonal_sup, "__wrapped__")  # the from-import copy too
    finally:
        tracer.unwrap(originals)
    assert not hasattr(importlib.import_module("sinesolve.cli").diagonal_sup, "__wrapped__")


# -- the command -------------------------------------------------------------


def test_benchmark_json_names_match_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == tracer.LAYER_METRICS + ["trace.overhead"]
    assert [m["unit"] for m in spec["per_layer"][:-1]] == [
        tracer.metric_unit(m) for m in tracer.LAYER_METRICS]


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_end_to_end_metrics():
    proc = _bench(ROOT, "--workload", "constants", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(jobs_for("constants"))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_without_source_fails_without_result(tmp_path):
    proc = _bench(tmp_path, "--workload", "constants", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
