"""Configuration-driven command line: solves, sweeps, and serialized reports.

Subcommands
-----------
ground-state      scalar thresholds, then the coupled ground state, classified
multiplicity      deflated multistart search for distinct sign orbits
thresholds        diagonal-subspace supremum sweep and the coupling threshold
limit             whole-space constants: S, the coupled constant, amplitudes
synchronized      scalar profile, ratio roots, assembled synchronized pairs
verify-estimates  bubble-integral orders, ray formula, linking bound, inequalities

Configs are strict JSON: `parse_config` checks every key against one schema
(`SCHEMA` and each subcommand's `SUBCOMMANDS` entry) before any solver runs,
and refuses unknown keys.  Reports are JSON with the top-level keys
{schema, config, results, thresholds, timing} plus optional CSV tables.
All randomness comes from one seed, and the timing block holds
deterministic work counters so identical configs yield byte-identical
reports.  Exit codes: 0 ok, 2 validation error, 3 solver failure, 4 a
property check failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Any, Sequence

import numpy as np

from .domain import BoxDomain, SineBasis
from .energy import GalerkinSystem, SystemParams
from .errors import (
    BoundaryInfimumError,
    ClassificationContradictionError,
    ConfigError,
    ConvergenceFailureError,
    SolverError,
)
from .estimates import (
    calculus_inequalities,
    check_linking_eps,
    check_sweep,
    default_eps_grid,
    fit_orders,
    linking_scope,
    linking_sweep,
)
from .limit import (
    LimitParams,
    bubble_norms,
    coupled_sobolev_constant,
    interior_threshold,
    minimizer_amplitudes,
    pair_grid_infimum,
    sobolev_constant,
)
from .nehari import (
    CriticalPoint,
    SolverConfig,
    classify,
    coupling_threshold,
    diagonal_sup,
    ground_state,
    multiplicity_search,
    rescale_diagonal_sup,
    scalar_ground_state,
    semitrivial_threshold,
)
from .synchronized import R_WINDOW, amplitudes, find_roots, root_guaranteed, synchronized_solution

SCHEMA_TAG = "sinesolve-report/1"


# -- the config schema -----------------------------------------------------------

REQUIRED = object()  # default of a key the config must give
_SOLVER = SolverConfig()  # the solver keys take their defaults from it

# Every config key: (type, default, range).  A type ending in "s" is a JSON
# array of the singular type; integers accept 2 and 2.0 but not 2.7 or true,
# and numbers refuse booleans and strings.  A range names a predicate in
# _RANGES or is the tuple of allowed values.  A key whose default is None
# reads as None when the config leaves it out.
SCHEMA = {
    "problem": {
        "kappa1": ("number", 0.0, "any"),
        "kappa2": ("number", 0.0, "any"),
        "mu1": ("number", REQUIRED, "> 0"),
        "mu2": ("number", REQUIRED, "> 0"),
        "lambda": ("number", REQUIRED, "> 0"),
        "alpha": ("number", REQUIRED, "> 1"),
        "beta": ("number", REQUIRED, "> 1"),
        "lengths": ("numbers", None, "> 0"),
        "cutoffs": ("integers", None, ">= 1"),
        "dim": ("integer", None, ">= 1"),
    },
    "solver": {
        "seed": ("integer", _SOLVER.rng_seed, ">= 0"),
        "n_mode_seeds": ("integer", _SOLVER.n_mode_seeds, ">= 0"),
        "n_random_seeds": ("integer", _SOLVER.n_random_seeds, ">= 0"),
        "budget": ("integer", _SOLVER.budget, ">= 1"),
    },
    "output": {
        "report": ("string", "report.json", "nonempty"),
        "formats": ("strings", ("json",), ("json", "csv")),
    },
}

_RANGES = {
    "any": lambda x: True,
    "nonempty": bool,
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    "> 1": lambda x: x > 1,
    ">= 1": lambda x: x >= 1,
}
_TYPES = {"string": str, "object": dict}
_BLOCKS = {name: ("object", REQUIRED if name == "problem" else {}, "any")
           for name in ("problem", "solver", "task", "output")}


@dataclass(frozen=True)
class Command:
    """What one subcommand asks of a config: its task keys and cross-field rules.

    A `limit` run reads one `LimitParams`, box optional; any other, a `SystemParams` on a box.
    """

    task: dict
    limit: bool = False
    equal_kappas: bool = False


def _typed(x: Any, kind: str, rng: Any, name: str) -> Any:
    """x checked against one schema entry and converted to its Python type."""
    if kind.endswith("s"):
        if not isinstance(x, (list, tuple)):
            raise ConfigError(f"{name} must be a list of {kind}, not {x!r}")
        return tuple(_typed(v, kind[:-1], rng, name) for v in x)
    if kind in ("number", "integer"):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x) \
                or kind == "integer" and x != int(x):
            raise ConfigError(f"{name} must be a finite {kind}, not {x!r}")
        x = int(x) if kind == "integer" else float(x)
    elif not isinstance(x, _TYPES[kind]):
        raise ConfigError(f"{name} must be a {kind}, not {x!r}")
    if not (x in rng if isinstance(rng, tuple) else _RANGES[rng](x)):
        want = " or ".join(rng) if isinstance(rng, tuple) else rng
        raise ConfigError(f"{name} must be {want}, not {x!r}")
    return x


def _read(block: Any, schema: dict, where: str) -> dict:
    """Typed values of one config block, defaults filled in."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    values = {}
    for key, (kind, default, rng) in schema.items():
        x = block.get(key, default)
        if x is REQUIRED:
            raise ConfigError(f"missing key {where}.{key}")
        values[key] = None if x is None and default is None else _typed(x, kind, rng, f"{where}.{key}")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (config echo keeps the raw dict)."""

    raw: dict
    params: SystemParams  # a LimitParams for a limit Command
    basis: SineBasis | None  # None when the config gives no box
    solver: SolverConfig
    task: dict
    report_path: str
    formats: tuple[str, ...]


def parse_config(raw: dict, command: Command) -> RunConfig:
    """Check every block of raw against the schema and command's rules, and build the run's basis; no solver runs."""
    try:
        blocks = _read(raw, _BLOCKS, "config")
        prob = _read(blocks["problem"], SCHEMA["problem"], "problem")
        sol = _read(blocks["solver"], SCHEMA["solver"], "solver")
        out = _read(blocks["output"], SCHEMA["output"], "output")
        task = _read(blocks["task"], command.task, "task")

        lengths, cutoffs, dim = prob["lengths"], prob["cutoffs"], prob["dim"]
        if (lengths is None) != (cutoffs is None):
            raise ConfigError("problem.lengths and problem.cutoffs go together: give both or neither")
        if lengths is None and not command.limit:
            raise ConfigError("this subcommand requires problem.lengths and problem.cutoffs")
        if lengths is not None:
            if len(lengths) != len(cutoffs):
                raise ConfigError("lengths and cutoffs must have equal length")
            if dim not in (None, len(lengths)):
                raise ConfigError("problem.dim contradicts len(problem.lengths)")
            dim = len(lengths)
        elif dim is None:
            raise ConfigError("problem needs either lengths or dim")
        record = LimitParams if command.limit else SystemParams
        params = record(kappa1=prob["kappa1"], kappa2=prob["kappa2"], mu1=prob["mu1"],
                        mu2=prob["mu2"], lam=prob["lambda"], alpha=prob["alpha"],
                        beta=prob["beta"], dim=dim)
        if command.equal_kappas and params.kappa1 != params.kappa2:
            raise ConfigError("synchronized runs need kappa1 == kappa2")
        if not out["formats"]:
            raise ConfigError("output.formats must name at least one format")

        basis = None if lengths is None else SineBasis(BoxDomain(lengths), cutoffs)
        if "m" in task and task["m"] > basis.size:
            raise ConfigError(f"task.m must lie in [1, {basis.size}], the number of modes")
        if "eps_grid" in task:  # verify-estimates: each eps the run would refuse
            check_sweep(task["eps_grid"], dim)
            if basis is not None:
                check_linking_eps(task["linking_eps"], basis)
    except (ValueError, OverflowError) as exc:  # also the data classes' checks and huge integers
        raise ConfigError(str(exc)) from exc

    solver = SolverConfig(rng_seed=sol.pop("seed"), **sol)
    return RunConfig(raw=raw, params=params, basis=basis, solver=solver, task=task,
                     report_path=out["report"], formats=out["formats"])


# -- serialization ---------------------------------------------------------------


def _fields(record: Any) -> dict:
    """The record's fields in declaration order, array fields left out."""
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return {k: v for k, v in values.items() if not isinstance(v, np.ndarray)}


def _point_record(pt: CriticalPoint, family: str) -> dict:
    u1, u2 = np.split(pt.z, 2)
    return {"family": family, **_fields(pt), "coefficients": {"u1": u1.tolist(), "u2": u2.tolist()}}


def _sorted_records(records: list[dict]) -> list[dict]:
    """Solution rows by family, energy and orbit (a scalar row has no orbit)."""
    return sorted(records, key=lambda rec: (rec["family"], rec["energy"], rec.get("orbit_id", 0)))


def _write_atomically(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    The file gets the mode a plain open would give it, 0o666 less the
    umask; mkstemp alone would leave it 0600.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:  # a failed write or rename leaves no temporary file behind
        os.unlink(tmp)
        raise


def _csv_path(path: str) -> str:
    """Where the CSV table of a report at path goes."""
    return os.path.splitext(path)[0] + ".csv"


def write_report(report: dict, path: str, formats: Sequence[str]) -> list[str]:
    """Serialize the report atomically into path's existing directory; returns the written paths."""
    written = []
    if "json" in formats:
        _write_atomically(path, json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
        written.append(path)
    if "csv" in formats:
        csv_path = _csv_path(path)
        rows = [
            {k: v for k, v in rec.items() if not isinstance(v, (dict, list))}
            for rec in report["results"]
        ]
        headers = list(dict.fromkeys(k for row in rows for k in row))  # in order of first use
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        _write_atomically(csv_path, buf.getvalue())
        written.append(csv_path)
    return written


def _report(cfg: RunConfig, results: list[dict], thresholds: dict, counters: dict) -> dict:
    return {"schema": SCHEMA_TAG, "config": cfg.raw, "results": results,
            "thresholds": thresholds, "timing": {"counters": counters}}


# -- subcommands -----------------------------------------------------------------


def _run_ground_state(cfg: RunConfig) -> tuple[dict, int]:
    th = semitrivial_threshold(cfg.params, cfg.basis, cfg.solver)
    gs = ground_state(cfg.params, cfg.basis, cfg.solver, th)
    code = 0
    try:
        classify(gs, th.c0)
    except ClassificationContradictionError:
        code = 4
    results = _sorted_records(
        [_point_record(gs, "system")]
        + [{"family": "scalar", "component": i + 1, **_fields(s)} for i, s in enumerate(th.scalar_states)]
    )
    return _report(cfg, results, {"c0": float(th.c0), "min_scalar_b": float(th.min_b)},
                   {"scalar_solves": th.scalar_solves, "system_solves": 1}), code


def _run_multiplicity(cfg: RunConfig) -> tuple[dict, int]:
    k = cfg.task["k"]
    th = semitrivial_threshold(cfg.params, cfg.basis, cfg.solver)
    # every point kept is fully nontrivial with energy in (0, c0): classify cannot object
    pts = multiplicity_search(cfg.params, cfg.basis, k, cfg.solver, th)
    return _report(cfg, _sorted_records([_point_record(p, "system") for p in pts]),
                   {"c0": float(th.c0), "min_scalar_b": float(th.min_b)},
                   {"scalar_solves": th.scalar_solves, "orbits_found": len(pts), "target_k": k}), 0


def _run_thresholds(cfg: RunConfig) -> tuple[dict, int]:
    m, lam_grid = cfg.task["m"], cfg.task["lambda_grid"]
    th = semitrivial_threshold(cfg.params, cfg.basis, cfg.solver)
    sup0 = diagonal_sup(cfg.params, m, cfg.basis)
    sups = [rescale_diagonal_sup(cfg.params, sup0, lam) for lam in lam_grid]
    lam_bar = coupling_threshold(cfg.params, th.c0, sup0)
    results = [
        {"family": "diagonal-sup", "lambda": lam, "value": float(v), "m": m}
        for lam, v in zip(lam_grid, sups)
    ]
    return _report(cfg, results, {"c0": float(th.c0), "lambda_bar": float(lam_bar), "m": m},
                   {"lambda_points": len(lam_grid), "scalar_solves": th.scalar_solves}), 0


def _coupled_minimizer(lp: LimitParams, thresholds: dict) -> tuple[float, float, float, float] | None:
    """Record lambda0, then S_lambda and the minimizer's amplitudes, in thresholds.

    Returns (S_lambda, r_min, s, t), or None when the infimum lies on the
    boundary and lambda0 alone is recorded.
    """
    thresholds["lambda0"] = float(interior_threshold(lp.mu1, lp.mu2, lp.alpha, lp.beta, lp.dim))
    try:
        s_coupled, r_min = coupled_sobolev_constant(lp)
    except BoundaryInfimumError:
        return None
    s_amp, t_amp = minimizer_amplitudes(lp, s_coupled, r_min)
    thresholds.update({"coupled_constant": float(s_coupled),
                       "s_amplitude": float(s_amp), "t_amplitude": float(t_amp)})
    return s_coupled, r_min, s_amp, t_amp


def _run_limit(cfg: RunConfig) -> tuple[dict, int]:
    lp = cfg.params
    thresholds = {"sobolev_constant": float(sobolev_constant(lp.dim))}
    found = _coupled_minimizer(lp, thresholds)
    thresholds["boundary_infimum"] = found is None
    if found is not None:
        thresholds.update({"r_min": float(found[1]), "grid_oracle": float(pair_grid_infimum(lp))})
    return _report(cfg, [], thresholds, {}), 0


def _run_synchronized(cfg: RunConfig) -> tuple[dict, int]:
    roots = find_roots(cfg.params)
    # scalar profile of the unit-coefficient equation
    w_state = scalar_ground_state(cfg.basis, cfg.params.kappa1, cfg.params.p, cfg.solver)
    engine = GalerkinSystem(cfg.params, cfg.basis)
    records = []
    for r in roots:
        s, t = amplitudes(r, cfg.params)
        rec = _point_record(synchronized_solution(engine, w_state.w, s, t), "synchronized")
        rec.update({"ratio_root": float(r), "s": s, "t": t,
                    "scalar_residual": float(w_state.grad_norm)})
        records.append(rec)
    thresholds = {
        "root_guaranteed": root_guaranteed(cfg.params),
        "n_roots": len(roots),
        "scalar_energy": float(w_state.energy),
    }
    missed = thresholds["root_guaranteed"] and not roots
    if missed:
        lo, hi = R_WINDOW
        thresholds["notes"] = [f"a root is guaranteed but none lies in the scan window [{lo:g}, {hi:g}]"]
    return _report(cfg, _sorted_records(records), thresholds,
                   {"roots": len(roots), "scalar_solves": 1}), (4 if missed else 0)


def _linking_rows(cfg: RunConfig, thresholds: dict) -> tuple[list[dict], str | None]:
    """verify-estimates' ray-max and linking rows, or the note saying why the bound was skipped."""
    lp, basis = cfg.params, cfg.basis
    if basis is None:
        return [], "no box given: linking bound skipped"
    note = linking_scope(lp, basis)
    if note is not None:
        return [], note
    found = _coupled_minimizer(lp, thresholds)
    if found is None:
        return [], "coupling below the interior threshold: linking bound skipped"
    s_coupled, _, s_amp, t_amp = found
    records = linking_sweep(cfg.task["linking_eps"], lp, basis, s_amp, t_amp, s_coupled)
    rows = []
    for rec, (closed, direct) in records:
        agree = abs(closed - direct) <= 1e-8 * max(abs(closed), 1e-300)
        rows.append({"family": "ray-max", "eps": rec.eps, "closed": closed,
                     "direct": direct, "consistent": bool(agree)})
    rows += [{"family": "linking", **_fields(rec)} for rec, _ in records]
    return rows, None


def _run_verify_estimates(cfg: RunConfig) -> tuple[dict, int]:
    """Bubble-integral orders and the two inequalities, then the linking bound on the box.

    `linking_scope` alone says whether the linking bound applies; where it
    or the run's coupling does not, the report carries the note instead of
    the ray-max and linking rows.
    """
    lp, eps_grid = cfg.params, cfg.task["eps_grid"]

    # bubble-identity and eps-independence of the whole-space norms
    g1, _ = bubble_norms(lp.dim, 1.0)
    g2, _ = bubble_norms(lp.dim, 0.5)
    s_const = sobolev_constant(lp.dim)
    eps_independent = abs(g2 - g1) <= 1e-8 * abs(g1)

    fit = fit_orders(eps_grid, lp.dim)
    inequalities = calculus_inequalities()
    results = ([{"family": "bubble-integrals", **_fields(s)} for s in fit.sweeps]
               + [{"family": "order-fit", **_fields(f)} for f in fit.fits]
               + [{"family": "inequality", **_fields(rep)} for rep in inequalities])
    thresholds: dict[str, Any] = {
        "sobolev_constant": float(s_const),
        "bubble_norm_sq": float(g1),
        "eps_independent": bool(eps_independent),
        "square_prefactor": float(fit.square_prefactor),
    }
    rows, note = _linking_rows(cfg, thresholds)
    results += rows
    if note is not None:
        thresholds["notes"] = [note]
    failed = not eps_independent or not all(r.get(k, True) for r in results for k in ("passed", "consistent"))
    return _report(cfg, results, thresholds,
                   {"eps_points": len(eps_grid), "inequalities": len(inequalities)}), (4 if failed else 0)


# -- entry point -----------------------------------------------------------------


# Each subcommand's (Command, runner) pair.
SUBCOMMANDS = {
    "ground-state": (Command({}), _run_ground_state),
    "multiplicity": (Command({"k": ("integer", REQUIRED, ">= 1")}), _run_multiplicity),
    "thresholds": (Command({
        "m": ("integer", REQUIRED, ">= 1"),
        "lambda_grid": ("numbers", tuple(np.geomspace(0.5, 500, 10)), "> 0"),
    }), _run_thresholds),
    "limit": (Command({}, limit=True), _run_limit),
    "synchronized": (Command({}, equal_kappas=True), _run_synchronized),
    "verify-estimates": (Command({
        "eps_grid": ("numbers", default_eps_grid(), "> 0"),
        "linking_eps": ("numbers", (1e-2, 1e-3), "> 0"),
    }, limit=True), _run_verify_estimates),
}


def _seed(text: str) -> int:
    """argparse type of --seed: an integer, at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


@cache
def _parser() -> argparse.ArgumentParser:
    """`main`'s argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(prog="sinesolve", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="directory for report files")
    # every run is single-threaded; the flag stays for command lines that pass 1
    parser.add_argument("--threads", type=int, choices=[1], default=1, help="must be 1")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if args.seed is not None and isinstance(raw, dict) and isinstance(raw.get("solver", {}), dict):
            raw = {**raw, "solver": {**raw.get("solver", {}), "seed": args.seed}}
        command, runner = SUBCOMMANDS[args.subcommand]
        cfg = parse_config(raw, command)
        if args.out is not None:
            report_path = os.path.join(args.out, os.path.basename(cfg.report_path))
            cfg = dataclasses.replace(cfg, report_path=report_path)
        if {"json", "csv"} <= set(cfg.formats) and _csv_path(cfg.report_path) == cfg.report_path:
            raise ConfigError(f"the CSV table would overwrite the JSON report {cfg.report_path}")
        targets = {"json": cfg.report_path, "csv": _csv_path(cfg.report_path)}
        for fmt in cfg.formats:
            if os.path.isdir(targets[fmt]):
                raise ConfigError(f"the {fmt.upper()} report path {targets[fmt]} is a directory")
        # a report directory that cannot be made fails here, before any solver runs
        os.makedirs(os.path.dirname(os.path.abspath(cfg.report_path)), exist_ok=True)
    except (OSError, ValueError) as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        report, code = runner(cfg)
    except SolverError as exc:
        why = ""
        if isinstance(exc, ConvergenceFailureError) and exc.diagnostics:
            counts = sorted(Counter(exc.diagnostics).items())
            why = " (" + ", ".join(f"{n} {reason}" for reason, n in counts) + ")"
        print(f"solver failure: {exc}{why}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - t0

    written = write_report(report, cfg.report_path, cfg.formats)
    # wall time goes to stderr only; the report stays byte-reproducible
    print(f"{args.subcommand}: wrote {', '.join(written)} in {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
