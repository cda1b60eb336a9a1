"""The test harness itself: the repo's pytest settings, tests/conftest.py, an
import check over the sources and tests, the names the benchmark reaches
in the sources, and the report-digest tool."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from sinesolve import cli

REPO = pathlib.Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # explaining the failing example must not become an INTERNALERROR under
    # the repo's `filterwarnings = error`, so the test after it still runs
    shutil.copy(REPO / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports but never reads.

    An import marked `# noqa`, made for its side effect, is skipped.
    """
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.relative_to(REPO)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is the one module left out
    modules = [p for p in sorted((REPO / "src" / "sinesolve").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((REPO / "tests").glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in _unused_imports(path)] == []


def _imported_packages(path: pathlib.Path) -> set[str]:
    """Top-level packages a module imports by absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_scipy():
    # the searches run on the in-repo solvers of sinesolve.solve; an import
    # anywhere in a module, a lazy one inside a function too, brings SciPy's
    # start-up cost back into every run
    modules = sorted((REPO / "src" / "sinesolve").glob("*.py"))
    assert len(modules) > 5
    assert [p.stem for p in modules if "scipy" in _imported_packages(p)] == []


def _names(node: ast.AST) -> set:
    """What node names: a name, an attribute, an import or a definition."""
    return {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)}


def _modules_naming(banned: set[str]) -> list[str]:
    """The src modules that name any of banned."""
    modules = sorted((REPO / "src" / "sinesolve").glob("*.py"))
    assert len(modules) > 5
    return [p.stem for p in modules
            if any(_names(node) & banned for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))]


def test_no_module_calls_einsum():
    # mode_mass_matrix contracts in one fixed order per dimension; an einsum,
    # called or imported under any name, would tie the Hessian's bits to
    # numpy's contraction planner again
    assert _modules_naming({"einsum", "einsum_path"}) == []


LAZY_MODULES = r"""
import json, math, os, sys
from sinesolve import cli

out, box = sys.argv[1], {"kappa1": 0.0, "kappa2": 0.0, "mu1": 1.0, "mu2": 1.0, "lambda": 50.0,
                         "alpha": 2.0, "beta": 2.0, "lengths": [1.0], "cutoffs": [16]}
four = {**box, "kappa1": 2 * math.pi**2, "kappa2": 2 * math.pi**2, "lambda": 1.0,
        "lengths": [1.0] * 4, "cutoffs": [2] * 4}
seeding = {"n_mode_seeds": 2, "n_random_seeds": 0}
runs = {"ground-state": {"problem": box, "solver": seeding},
        "thresholds": {"problem": {**box, "lambda": 1.0}, "solver": seeding, "task": {"m": 3}},
        "verify-estimates": {"problem": four, "task": {"linking_eps": [1e-2]}}}
codes = []
for name, cfg in runs.items():
    path = os.path.join(out, name + ".config.json")
    with open(path, "w") as fh:
        json.dump({**cfg, "output": {"report": os.path.join(out, name + ".json")}}, fh)
    codes.append(cli.main([name, "--config", path]))
print(json.dumps([codes, sorted(m for m in ("numpy.random", "numpy.ma") if m in sys.modules)]))
"""


def test_runs_without_solver_seeded_random_starts_load_neither_numpy_random_nor_numpy_ma(tmp_path):
    # numpy loads both lazily: numpy.random (with secrets, hashlib and hmac)
    # on the first default_rng, numpy.ma on the first np.unique, about 10 ms
    # each, so a run that draws no random start and sorts nothing leaves them
    # out; thresholds is the box1d-definite benchmark job, whose diagonal_sup
    # starts from fixed mixtures
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", LAZY_MODULES, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes[:2] == [0, 0] and codes[2] in (0, 4)  # 4: a failed property check, after every estimate ran
    assert loaded == []


def test_only_the_solver_seeded_searches_make_a_generator():
    # solver.seed seeds the two random draws, the system and the scalar
    # noise seeds; a generator anywhere else draws the same numbers whatever
    # the seed, so fixed starts would do, without loading numpy.random
    makers = set()
    for path in sorted((REPO / "src" / "sinesolve").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if any("default_rng" in _names(node) for node in ast.walk(stmt)):
                makers.add(f"{path.stem}.{getattr(stmt, 'name', type(stmt).__name__)}")
    assert makers == {"nehari._scalar_search", "nehari._system_seeds"}


def test_only_estimates_names_the_cutoffs():
    # estimates alone decides which cutoff each check uses: SWEEP_CUTOFF for
    # the order fit, CutoffSpec.for_domain of the box for the linking ray
    # (__init__ only re-exports CutoffSpec)
    assert _modules_naming({"CutoffSpec", "SWEEP_CUTOFF"}) == ["__init__", "estimates"]


def test_only_the_engines_and_the_linking_rule_read_nonpositive_modes():
    # each engine takes its X~ from nonpositive_modes once, when it is built,
    # and the searches read it from the engine; estimates.linking_scope is
    # the one other reader (__init__ only re-exports the name)
    modules = sorted((REPO / "src" / "sinesolve").glob("*.py"))
    readers = [p.stem for p in modules
               if any(isinstance(node, ast.Name) and node.id == "nonpositive_modes"
                      for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))]
    assert readers == ["energy", "estimates"]


def test_only_the_positive_part_rule_and_diagonal_sup_read_plus_weights():
    # "outside X~" has one scale-free test in nehari, _has_positive_part;
    # diagonal_sup reads the weights only to skip starts inside X~
    tree = ast.parse((REPO / "src" / "sinesolve" / "nehari.py").read_text(encoding="utf-8"))
    readers = {getattr(stmt, "name", type(stmt).__name__) for stmt in tree.body
               if any(isinstance(node, ast.Attribute) and node.attr == "plus_weights"
                      for node in ast.walk(stmt))}
    assert readers == {"_has_positive_part", "diagonal_sup"}


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: another test may have loaded SciPy into this one
    probe = "import sys, sinesolve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def _bench_table(script: str, name: str):
    """The literal value of `name = ...` in a bench/ script, read without importing it."""
    tree = ast.parse((REPO / "bench" / script).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{script} has no table {name}")


def _bench_module(script: str):
    """A bench/ script loaded as a module, without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{script[:-3]}", REPO / "bench" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_job_matches_the_reference(tmp_path):
    # each benchmark job at the reference seed, checked as bench/check.py
    # checks it: exit code, flags and counts exactly, floats to tolerance
    workloads, check = _bench_module("workloads.py"), _bench_module("check.py")
    reference = check.load_reference()
    ran, problems = [], {}
    for workload in workloads.WORKLOADS:
        out = tmp_path / workload
        out.mkdir()
        for job in workloads.jobs_for(workload):
            config = out / f"{job['name']}.config.json"
            config.write_text(json.dumps({**job["config"], "output": {"report": f"{job['name']}.json"}}))
            code = cli.main([job["subcommand"], "--config", str(config), "--seed", str(check.REFERENCE_SEED),
                             "--threads", "1", "--out", str(out)])
            report_path = out / f"{job['name']}.json"
            report = json.loads(report_path.read_text()) if report_path.exists() else None
            key = f"{workload}/{job['name']}"
            ran.append(key)
            found = check.check(reference[key], job["subcommand"], code, report)
            if found:
                problems[key] = found
    assert sorted(ran) == sorted(reference)
    assert problems == {}


def test_traced_names_resolve_under_src():
    # the benchmark's tracer wraps each of these by name and refuses a run
    # when one is missing, so renaming one breaks the benchmark
    spans = _bench_table("tracer.py", "SPANS")
    assert len(spans) > 30
    missing = []
    for span, (module, path) in spans.items():
        target = importlib.import_module(f"sinesolve.{module}")
        for part in path.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(span)
    assert missing == []


def test_bench_setup_parses_every_workload_config(tmp_path):
    # bench/worker.py's setup mode unpacks each cli.SUBCOMMANDS entry into
    # (command, runner) and parses every workload config with the command
    workloads = _bench_module("workloads.py")
    jobs = []
    for workload in workloads.WORKLOADS:
        for i, job in enumerate(workloads.jobs_for(workload)):
            path = tmp_path / f"{workload}-{i}.json"
            path.write_text(json.dumps(job["config"]))
            jobs.append({"name": job["name"], "subcommand": job["subcommand"], "config": str(path)})
    assert {job["subcommand"] for job in jobs} == set(cli.SUBCOMMANDS)
    (tmp_path / "spec.json").write_text(json.dumps(
        {"src": str(REPO / "src"), "seed": 0, "out": str(tmp_path), "jobs": jobs}))
    proc = subprocess.run([sys.executable, str(REPO / "bench" / "worker.py"), "setup", "spec.json"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "versions" in json.loads(proc.stdout.splitlines()[-1])


def test_bench_pairs_summarizes_alternating_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def result(wall, rss, correct=True):
        return {"correct": correct, "failed": 0 if correct else 1,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}

    walls = [(1.0, 0.8), (1.2, 0.9), (1.1, 1.15), (1.3, 0.7), (0.9, 0.85)]
    pairs = [{"first": ("parent", "change")[i % 2], "parent": result(p, 40.0), "change": result(c, 40.0 + i)}
             for i, (p, c) in enumerate(walls)]
    pairs[3]["change"] = result(0.7, 43.0, correct=False)
    summary = bench_pairs.summarize(pairs)
    assert (summary["pairs"], summary["correct"], summary["failed"]) == (5, False, 1)
    wall = summary["metrics"]["wall_s"]
    # statistics.quantiles(n=4) of 0.9, 1.0, 1.1, 1.2, 1.3 (the exclusive method)
    assert wall["parent"] == pytest.approx({"median": 1.1, "q1": 0.95, "q3": 1.25})
    assert wall["change"]["median"] == pytest.approx(0.85)
    assert wall["pairs_change_lower"] == 4
    assert wall["median_change_rel"] == pytest.approx(-0.2273)
    assert wall["parent_iqr"] == pytest.approx(0.3)
    assert wall["per_pair"][1] == {"first": "change", "parent": 1.2, "change": 0.9}
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["pairs_change_lower"], rss["median_change_rel"]) == (0, 0.05)


def test_report_digests_covers_every_workload_job():
    # tools/report_digests.py digests the JSON and CSV report of each of the
    # 108 workload jobs at seeds 0 and 7, and prints one exit line per run
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "report_digests.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    digests = [line for line in lines if re.fullmatch(r"[0-9a-f]{64}  \S+\.(json|csv)", line)]
    exits = [line for line in lines if re.fullmatch(r"exit -?\d+  \S+", line)]
    assert (len(digests), len(exits), len(lines)) == (432, 216, 648)
