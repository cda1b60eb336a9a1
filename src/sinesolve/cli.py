"""Configuration-driven command line: solves, sweeps, and serialized reports.

Subcommands
-----------
ground-state      scalar thresholds, then the coupled ground state, classified
multiplicity      deflated multistart search for distinct sign orbits
thresholds        diagonal-subspace supremum sweep and the coupling threshold
limit             whole-space constants: S, the coupled constant, amplitudes
synchronized      scalar profile, ratio roots, assembled synchronized pairs
verify-estimates  bubble-integral orders, ray formula, linking bound, inequalities

Configs are strict JSON (unknown keys rejected); reports are JSON with the
top-level keys {schema, config, results, thresholds, timing} plus optional
CSV tables.  All randomness comes from one seed, and the timing block holds
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .domain import BoxDomain, SineBasis
from .energy import SystemParams, spectral_split
from .errors import (
    BoundaryInfimumError,
    ClassificationContradictionError,
    ConfigError,
    SolverError,
)
from .estimates import (
    CutoffSpec,
    calculus_inequalities,
    cutoff_bubble_integrals,
    default_eps_grid,
    fit_orders,
    linking_sweep,
    ray_maximum,
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
from .synchronized import find_roots, make_sync_root, synchronized_solution

SCHEMA_TAG = "sinesolve-report/1"


# -- strict config parsing -------------------------------------------------------


def _require_mapping(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    return obj


def _check_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _finite_float(text: str) -> float:
    """JSON number hook: rejects NaN, Infinity and literals that overflow."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text} in the config")
    return x


def _float_sized_int(text: str) -> int:
    """JSON integer hook: rejects integer literals too large for a float."""
    x = int(text)
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"integer literal of {len(text)} digits is too large for a float") from None
    return x


def _positive(x, name) -> float:
    x = float(x)
    if not x > 0 or not np.isfinite(x):
        raise ConfigError(f"{name} must be a positive finite number")
    return x


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (config echo keeps the raw dict)."""

    raw: dict
    params: SystemParams | None
    lengths: tuple[float, ...] | None
    cutoffs: tuple[int, ...] | None
    solver: SolverConfig
    budget: int
    zero_tol: float | None
    task: dict
    report_path: str
    formats: tuple[str, ...]

    def basis(self) -> SineBasis:
        if self.lengths is None or self.cutoffs is None:
            raise ConfigError("this subcommand needs problem.lengths and problem.cutoffs")
        return SineBasis(BoxDomain(self.lengths), self.cutoffs)


_PROBLEM_KEYS = {
    "kappa1", "kappa2", "mu1", "mu2", "lambda", "alpha", "beta",
    "lengths", "cutoffs", "dim", "quadrature_oversample",
}
_SOLVER_KEYS = {
    "tol", "max_newton_iter", "seed", "n_mode_seeds", "n_random_seeds",
    "seed_amplitude", "deflation_power", "deflation_shift", "budget",
    "triviality_floor", "plus_floor", "zero_tol",
}
_OUTPUT_KEYS = {"report", "formats"}


def parse_config(raw: dict, needs_box: bool) -> RunConfig:
    raw = _require_mapping(raw, "config")
    _check_keys(raw, {"problem", "solver", "task", "output"}, {"problem"}, "config")
    prob = _require_mapping(raw["problem"], "problem")
    _check_keys(prob, _PROBLEM_KEYS, {"mu1", "mu2", "lambda", "alpha", "beta"}, "problem")

    lengths = cutoffs = None
    if "lengths" in prob:
        lengths = tuple(_positive(x, "length") for x in prob["lengths"])
    if "cutoffs" in prob:
        cutoffs = tuple(int(k) for k in prob["cutoffs"])
        if any(k < 1 for k in cutoffs):
            raise ConfigError("cutoffs must be positive integers")
    if needs_box and (lengths is None or cutoffs is None):
        raise ConfigError("this subcommand requires problem.lengths and problem.cutoffs")
    if lengths is not None and cutoffs is not None and len(lengths) != len(cutoffs):
        raise ConfigError("lengths and cutoffs must have equal length")

    dim = prob.get("dim")
    if dim is not None:
        dim = int(dim)
        if lengths is not None and dim != len(lengths):
            raise ConfigError("problem.dim contradicts len(problem.lengths)")
    elif lengths is not None:
        dim = len(lengths)
    else:
        raise ConfigError("problem needs either lengths or dim")

    try:
        params = SystemParams(
            kappa1=float(prob.get("kappa1", 0.0)),
            kappa2=float(prob.get("kappa2", 0.0)),
            mu1=_positive(prob["mu1"], "mu1"),
            mu2=_positive(prob["mu2"], "mu2"),
            lam=_positive(prob["lambda"], "lambda"),
            alpha=float(prob["alpha"]),
            beta=float(prob["beta"]),
            dim=dim,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    solver_raw = _require_mapping(raw.get("solver", {}), "solver")
    _check_keys(solver_raw, _SOLVER_KEYS, set(), "solver")
    budget = int(solver_raw.get("budget", 60))
    if budget < 1:
        raise ConfigError("solver.budget must be at least 1")
    zero_tol = solver_raw.get("zero_tol")
    if zero_tol is not None:
        zero_tol = _positive(zero_tol, "solver.zero_tol")
    oversample = float(prob.get("quadrature_oversample", 2.0))
    if oversample < 1.0:
        raise ConfigError("quadrature_oversample must be at least 1")
    solver = SolverConfig(
        tol=_positive(solver_raw.get("tol", 1e-10), "solver.tol"),
        max_newton_iter=int(solver_raw.get("max_newton_iter", 120)),
        n_mode_seeds=int(solver_raw.get("n_mode_seeds", 6)),
        n_random_seeds=int(solver_raw.get("n_random_seeds", 8)),
        seed_amplitude=float(solver_raw.get("seed_amplitude", 1.0)),
        rng_seed=int(solver_raw.get("seed", 0)),
        triviality_floor=_positive(solver_raw.get("triviality_floor", 1e-10), "solver.triviality_floor"),
        plus_floor=_positive(solver_raw.get("plus_floor", 1e-6), "solver.plus_floor"),
        deflation_power=int(solver_raw.get("deflation_power", 2)),
        deflation_shift=float(solver_raw.get("deflation_shift", 1.0)),
        oversample=oversample,
    )

    out_raw = _require_mapping(raw.get("output", {}), "output")
    _check_keys(out_raw, _OUTPUT_KEYS, set(), "output")
    report_path = str(out_raw.get("report", "report.json"))
    if not report_path:
        raise ConfigError("output.report must be a nonempty path")
    formats = tuple(out_raw.get("formats", ["json"]))
    for f in formats:
        if f not in ("json", "csv"):
            raise ConfigError(f"unsupported output format {f!r}")

    task = _require_mapping(raw.get("task", {}), "task")
    return RunConfig(
        raw=raw,
        params=params,
        lengths=lengths,
        cutoffs=cutoffs,
        solver=solver,
        budget=budget,
        zero_tol=zero_tol,
        task=task,
        report_path=report_path,
        formats=formats,
    )


# -- serialization ---------------------------------------------------------------


def _point_record(pt: CriticalPoint, family: str) -> dict:
    return {
        "family": family,
        "energy": float(pt.energy),
        "grad_norm": float(pt.grad_norm),
        "b_value": float(pt.b_value),
        "b1": float(pt.b1),
        "b2": float(pt.b2),
        "mass1": float(pt.mass1),
        "mass2": float(pt.mass2),
        "classification": pt.classification,
        "orbit_id": int(pt.orbit_id),
        "below_threshold": pt.below_threshold,
        "coefficients": {
            "u1": [float(c) for c in pt.u.u1.coeffs],
            "u2": [float(c) for c in pt.u.u2.coeffs],
        },
    }


def _sorted_records(records: list[dict]) -> list[dict]:
    def key(rec):
        return (
            rec.get("family", ""),
            rec.get("energy", rec.get("eps", rec.get("lambda", 0.0))) or 0.0,
            rec.get("orbit_id", 0),
        )

    return sorted(records, key=key)


def write_report(report: dict, path: str, formats: Sequence[str]) -> list[str]:
    """Serialize the report atomically; returns the written paths."""
    written = []
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    if "json" in formats:
        payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
        written.append(path)
    if "csv" in formats:
        csv_path = os.path.splitext(path)[0] + ".csv"
        rows = [
            {k: v for k, v in rec.items() if not isinstance(v, (dict, list))}
            for rec in report["results"]
        ]
        headers: list[str] = []
        for row in rows:
            for k in row:
                if k not in headers:
                    headers.append(k)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(buf.getvalue())
        os.replace(tmp, csv_path)
        written.append(csv_path)
    return written


def _report_skeleton(cfg: RunConfig) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "config": cfg.raw,
        "results": [],
        "thresholds": {},
        "timing": {"counters": {}},
    }


# -- subcommands -----------------------------------------------------------------


def _run_ground_state(cfg: RunConfig) -> tuple[dict, int]:
    basis = cfg.basis()
    grid = cfg.solver.make_grid(basis)
    split = spectral_split(cfg.params, basis, cfg.zero_tol)
    th = semitrivial_threshold(cfg.params, basis, grid, cfg.solver)
    gs = ground_state(cfg.params, basis, split, cfg.solver, grid, th)
    code = 0
    try:
        classify(gs, th.c0, cfg.params)
    except ClassificationContradictionError:
        code = 4
    report = _report_skeleton(cfg)
    report["results"] = _sorted_records(
        [_point_record(gs, "system")]
        + [
            {
                "family": "scalar",
                "component": i + 1,
                "energy": float(s.energy),
                "grad_norm": float(s.grad_norm),
                "b_value": float(s.b_value),
            }
            for i, s in enumerate(th.scalar_states)
        ]
    )
    report["thresholds"] = {"c0": float(th.c0), "min_scalar_b": float(th.min_b)}
    report["timing"]["counters"] = {"scalar_solves": th.scalar_solves, "system_solves": 1}
    return report, code


def _run_multiplicity(cfg: RunConfig) -> tuple[dict, int]:
    basis = cfg.basis()
    grid = cfg.solver.make_grid(basis)
    split = spectral_split(cfg.params, basis, cfg.zero_tol)
    task = dict(cfg.task)
    _check_keys(task, {"k", "dedup_tol"}, {"k"}, "task")
    k = int(task["k"])
    dedup_tol = float(task.get("dedup_tol", 1e-4))
    th = semitrivial_threshold(cfg.params, basis, grid, cfg.solver)
    pts = multiplicity_search(
        cfg.params, basis, k, cfg.budget, split, cfg.solver, grid, th, dedup_tol
    )
    code = 0
    for pt in pts:
        try:
            classify(pt, th.c0, cfg.params)
        except ClassificationContradictionError:
            code = 4
    report = _report_skeleton(cfg)
    report["results"] = _sorted_records([_point_record(p, "system") for p in pts])
    report["thresholds"] = {"c0": float(th.c0), "min_scalar_b": float(th.min_b)}
    report["timing"]["counters"] = {
        "scalar_solves": th.scalar_solves,
        "orbits_found": len(pts),
        "target_k": k,
    }
    return report, code


def _run_thresholds(cfg: RunConfig) -> tuple[dict, int]:
    basis = cfg.basis()
    grid = cfg.solver.make_grid(basis)
    task = dict(cfg.task)
    _check_keys(task, {"m", "lambda_grid", "lambda_lo", "lambda_hi"}, {"m"}, "task")
    m = int(task["m"])
    lam_grid = [float(x) for x in task.get("lambda_grid", np.geomspace(0.5, 500, 10))]
    th = semitrivial_threshold(cfg.params, basis, grid, cfg.solver)
    lam0 = cfg.params.lam
    sup0 = diagonal_sup(cfg.params, m, lam=lam0, basis=basis, grid=grid)
    sups = [rescale_diagonal_sup(cfg.params, sup0, lam0, lam) for lam in lam_grid]
    lam_bar = coupling_threshold(
        cfg.params, m, th.c0, basis, grid,
        lam_lo=float(task.get("lambda_lo", 1e-6)),
        lam_hi=float(task.get("lambda_hi", 1e8)),
        sup=sup0,
    )
    report = _report_skeleton(cfg)
    report["results"] = [
        {"family": "diagonal-sup", "lambda": lam, "value": float(v), "m": m}
        for lam, v in zip(lam_grid, sups)
    ]
    report["thresholds"] = {"c0": float(th.c0), "lambda_bar": float(lam_bar), "m": m}
    report["timing"]["counters"] = {"lambda_points": len(lam_grid), "scalar_solves": th.scalar_solves}
    return report, 0


def _limit_params(cfg: RunConfig) -> LimitParams:
    pr = cfg.params
    try:
        return LimitParams(mu1=pr.mu1, mu2=pr.mu2, lam=pr.lam, alpha=pr.alpha, beta=pr.beta, dim=pr.dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_limit(cfg: RunConfig) -> tuple[dict, int]:
    lp = _limit_params(cfg)
    s_const = sobolev_constant(lp.dim)
    lam0 = interior_threshold(lp.mu1, lp.mu2, lp.alpha, lp.beta, lp.dim)
    report = _report_skeleton(cfg)
    thresholds = {"sobolev_constant": float(s_const), "lambda0": float(lam0)}
    try:
        s_coupled, r_min = coupled_sobolev_constant(lp, s_const)
        s_amp, t_amp = minimizer_amplitudes(lp, s_const, r_min)
        thresholds.update(
            {
                "coupled_constant": float(s_coupled),
                "r_min": float(r_min),
                "s_amplitude": float(s_amp),
                "t_amplitude": float(t_amp),
                "grid_oracle": float(pair_grid_infimum(lp, s_const)),
                "boundary_infimum": False,
            }
        )
    except BoundaryInfimumError:
        thresholds["boundary_infimum"] = True
    report["thresholds"] = thresholds
    report["timing"]["counters"] = {"quadratures": 4}
    return report, 0


def _run_synchronized(cfg: RunConfig) -> tuple[dict, int]:
    if cfg.params.kappa1 != cfg.params.kappa2:
        raise ConfigError("synchronized runs need kappa1 == kappa2")
    basis = cfg.basis()
    grid = cfg.solver.make_grid(basis)
    task = dict(cfg.task)
    _check_keys(task, {"r_lo", "r_hi"}, set(), "task")
    scan = find_roots(
        cfg.params,
        r_lo=float(task.get("r_lo", 1e-8)),
        r_hi=float(task.get("r_hi", 1e8)),
    )
    # scalar profile of the unit-coefficient equation
    w_state = scalar_ground_state(cfg.params, 1, basis, grid, cfg.solver, mu=1.0)
    records = []
    for r in scan.roots:
        root = make_sync_root(r, cfg.params)
        pt, scalar_res = synchronized_solution(w_state.w, root, cfg.params, grid, cfg.solver)
        rec = _point_record(pt, "synchronized")
        rec.update({"ratio_root": float(r), "s": float(root.s), "t": float(root.t),
                    "scalar_residual": float(scalar_res)})
        records.append(rec)
    report = _report_skeleton(cfg)
    report["results"] = _sorted_records(records)
    report["thresholds"] = {
        "root_guaranteed": bool(scan.guaranteed),
        "n_roots": len(scan.roots),
        "scalar_energy": float(w_state.energy),
    }
    report["timing"]["counters"] = {"roots": len(scan.roots), "scalar_solves": 1}
    return report, 0


def _run_verify_estimates(cfg: RunConfig, threads: int) -> tuple[dict, int]:
    lp = _limit_params(cfg)
    pr = cfg.params
    task = dict(cfg.task)
    _check_keys(
        task,
        {"eps_grid", "delta", "support_radius", "linking_eps", "sample_budget", "skip_linking"},
        set(),
        "task",
    )
    eps_grid = tuple(float(e) for e in task.get("eps_grid", default_eps_grid()))
    delta = float(task.get("delta", 1.5))
    support = float(task.get("support_radius", 2.0 * delta))
    sweep_cutoff = CutoffSpec(delta=delta, support_radius=support)

    report = _report_skeleton(cfg)
    results: list[dict] = []
    failed = False

    # bubble-identity and eps-independence of the whole-space norms
    g1, m1 = bubble_norms(lp.dim, 1.0)
    g2, _ = bubble_norms(lp.dim, 0.5)
    s_const = sobolev_constant(lp.dim)
    eps_independent = abs(g2 - g1) <= 1e-8 * abs(g1)
    failed |= not eps_independent

    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        sweeps = list(pool.map(
            lambda e: cutoff_bubble_integrals(e, sweep_cutoff, lp.dim), eps_grid
        ))
    fit = fit_orders(sweeps, lp.dim, sweep_cutoff)
    for s in sweeps:
        results.append({
            "family": "bubble-integrals", "eps": s.eps, "grad_sq": s.grad_sq,
            "crit": s.crit, "crit_minus_one": s.crit_minus_one, "linear": s.linear,
            "grad_abs": s.grad_abs, "crit_minus_two": s.crit_minus_two, "square": s.square,
        })
    for f in fit.fits:
        results.append({
            "family": "order-fit", "name": f.name, "slope": f.slope,
            "half_width": f.half_width, "expected": f.expected,
            "model": f.model, "passed": f.passed,
        })
    failed |= not fit.all_passed

    for rep in calculus_inequalities():
        results.append({
            "family": "inequality", "label": rep.label, "constant": rep.constant,
            "worst_slack": rep.worst_slack, "passed": rep.passed,
        })
        failed |= not rep.passed

    thresholds: dict[str, Any] = {
        "sobolev_constant": float(s_const),
        "bubble_norm_sq": float(g1),
        "eps_independent": bool(eps_independent),
        "square_prefactor": float(fit.square_prefactor),
    }

    # linking bound on the box (needs positive shifts and a nonresonant kappa)
    notes = []
    skip = bool(task.get("skip_linking", False))
    if cfg.lengths is None or cfg.cutoffs is None:
        notes.append("no box given: linking bound skipped")
        skip = True
    if not skip and (pr.kappa1 <= 0 or pr.kappa2 <= 0):
        notes.append("nonpositive kappa: linking bound skipped")
        skip = True
    if not skip:
        basis = cfg.basis()
        split = spectral_split(pr, basis, cfg.zero_tol)
        tol = split.zero_tol
        resonant = any(
            np.any(np.abs(basis.eigenvalues - kappa) <= tol) for kappa in (pr.kappa1, pr.kappa2)
        )
        if pr.dim == 4 and resonant:
            notes.append("resonant kappa: linking bound skipped (a shift matches a Dirichlet "
                         "eigenvalue; the dimension-4 bound requires nonresonance)")
            skip = True
    if not skip:
        lam0 = interior_threshold(lp.mu1, lp.mu2, lp.alpha, lp.beta, lp.dim)
        thresholds["lambda0"] = float(lam0)
        try:
            s_coupled, r_min = coupled_sobolev_constant(lp, s_const)
        except BoundaryInfimumError:
            notes.append("coupling below the interior threshold: linking bound skipped")
            skip = True
        if not skip:
            s_amp, t_amp = minimizer_amplitudes(lp, s_const, r_min)
            thresholds.update({"coupled_constant": float(s_coupled),
                               "s_amplitude": float(s_amp), "t_amplitude": float(t_amp)})
            box_cutoff = CutoffSpec.for_domain(BoxDomain(cfg.lengths))
            linking_eps = tuple(float(e) for e in task.get("linking_eps", (1e-2, 1e-3)))
            for eps in linking_eps:
                closed, direct = ray_maximum(
                    eps, box_cutoff, lp, pr.kappa1, pr.kappa2, s_amp, t_amp
                )
                agree = abs(closed - direct) <= 1e-8 * max(abs(closed), 1e-300)
                results.append({
                    "family": "ray-max", "eps": eps, "closed": closed,
                    "direct": direct, "consistent": bool(agree),
                })
                failed |= not agree
            records = linking_sweep(
                linking_eps, lp, pr, basis, split, box_cutoff, s_amp, t_amp, s_coupled,
                sample_budget=int(task.get("sample_budget", 40)),
                rng_seed=cfg.solver.rng_seed,
            )
            for rec in records:
                results.append({
                    "family": "linking", "eps": rec.eps, "best_value": rec.best_value,
                    "threshold": rec.threshold, "passed": rec.passed,
                    "ray_radius": rec.ray_radius,
                    "boundary_nonpositive": rec.boundary_nonpositive,
                    "tilde_dim": rec.tilde_dim,
                })
                failed |= not rec.passed

    report["results"] = results
    report["thresholds"] = thresholds
    if notes:
        report["thresholds"]["notes"] = notes
    report["timing"]["counters"] = {"eps_points": len(eps_grid), "inequalities": 5}
    return report, (4 if failed else 0)


# -- entry point -----------------------------------------------------------------


SUBCOMMANDS = {
    "ground-state": (True, lambda cfg, threads: _run_ground_state(cfg)),
    "multiplicity": (True, lambda cfg, threads: _run_multiplicity(cfg)),
    "thresholds": (True, lambda cfg, threads: _run_thresholds(cfg)),
    "limit": (False, lambda cfg, threads: _run_limit(cfg)),
    "synchronized": (True, lambda cfg, threads: _run_synchronized(cfg)),
    "verify-estimates": (False, lambda cfg, threads: _run_verify_estimates(cfg, threads)),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sinesolve", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="directory for report files")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweeps")
    parser.add_argument("--format", choices=["json", "csv", "both"], default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(
                fh, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_float_sized_int
            )
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    needs_box, runner = SUBCOMMANDS[args.subcommand]
    try:
        if args.seed is not None:
            raw = dict(raw)
            solver = dict(raw.get("solver", {}))
            solver["seed"] = int(args.seed)
            raw["solver"] = solver
        cfg = parse_config(raw, needs_box)
        if args.format is not None:
            formats = ("json", "csv") if args.format == "both" else (args.format,)
            cfg = dataclasses.replace(cfg, formats=formats)
        if args.out is not None:
            path = os.path.join(args.out, os.path.basename(cfg.report_path))
            cfg = dataclasses.replace(cfg, report_path=path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    import time as _time

    t0 = _time.perf_counter()
    try:
        report, code = runner(cfg, max(args.threads, 1))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    elapsed = _time.perf_counter() - t0

    written = write_report(report, cfg.report_path, cfg.formats)
    # wall time goes to stderr only; the report stays byte-reproducible
    print(f"{args.subcommand}: wrote {', '.join(written)} in {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
