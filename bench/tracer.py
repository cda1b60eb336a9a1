"""Spans around calls into sinesolve's layers, recorded from outside `src/`.

`Tracer.install()` replaces each traced function or method with a wrapper
that opens a span on entry and closes it on exit.  A name bound with
`from module import name` is a second reference that would bypass the
wrapper, so every sinesolve module attribute that still points at an
original is rebound as well.  Submodules are loaded with importlib because
`sinesolve.energy` on the package is the re-exported *function* `energy`.

Spans nest on one stack.  That is exact only while one thread runs
sinesolve code at a time, which the benchmark ensures with `--threads 1`:
the CLI's sweep pool then has a single worker and the main thread waits on
it.  Everything is kept in memory and read out once at the end of a pass.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# span name -> (sinesolve submodule, attribute path inside it)
SPANS = {
    "cli.parse_config": ("cli", "parse_config"),
    "cli.write_report": ("cli", "write_report"),
    "domain.axis_matrix": ("domain", "SineBasis.axis_matrix"),
    "domain.synthesize": ("domain", "synthesize"),
    "domain.project": ("domain", "project"),
    "domain.mode_mass_matrix": ("domain", "mode_mass_matrix"),
    "domain.integrate": ("domain", "integrate"),
    "energy.system.energy": ("energy", "GalerkinSystem.energy"),
    "energy.system.gradient": ("energy", "GalerkinSystem.gradient"),
    "energy.system.hessian": ("energy", "GalerkinSystem.hessian"),
    "energy.scalar.energy": ("energy", "ScalarProblem.energy"),
    "energy.scalar.gradient": ("energy", "ScalarProblem.gradient"),
    "energy.scalar.hessian": ("energy", "ScalarProblem.hessian"),
    "nehari.nehari_descent": ("nehari", "nehari_descent"),
    "nehari.project_ray": ("nehari", "project_ray"),
    "nehari.project_general": ("nehari", "project_general"),
    "nehari.newton_polish": ("nehari", "newton_polish"),
    "nehari.scalar_ground_state": ("nehari", "scalar_ground_state"),
    "nehari.ground_state": ("nehari", "ground_state"),
    "nehari.multiplicity_search": ("nehari", "multiplicity_search"),
    # one call per deflated Newton run of the multiplicity search
    "nehari.deflated_root": ("nehari", "_deflated_root"),
    "nehari.diagonal_sup": ("nehari", "diagonal_sup"),
    "nehari.coupling_threshold": ("nehari", "coupling_threshold"),
    "synchronized.find_roots": ("synchronized", "find_roots"),
    "synchronized.synchronized_solution": ("synchronized", "synchronized_solution"),
    "limit.sobolev_constant": ("limit", "sobolev_constant"),
    "limit.interior_threshold": ("limit", "interior_threshold"),
    "limit.coupled_sobolev_constant": ("limit", "coupled_sobolev_constant"),
    "limit.pair_grid_infimum": ("limit", "pair_grid_infimum"),
    "radial.radial_integral": ("radial", "radial_integral"),
    "radial.radial_tail_integral": ("radial", "radial_tail_integral"),
    "estimates.cutoff_bubble_integrals": ("estimates", "cutoff_bubble_integrals"),
    "estimates.fit_orders": ("estimates", "fit_orders"),
    "estimates.ray_maximum": ("estimates", "ray_maximum"),
    "estimates.linking_sweep": ("estimates", "linking_sweep"),
    "estimates.calculus_inequalities": ("estimates", "calculus_inequalities"),
}

_GRADIENTS = ("energy.system.gradient", "energy.scalar.gradient")


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0  # inclusive; a call nested in a call of the same name is not added twice
    self_s: float = 0.0  # duration minus the time covered by direct child spans
    failed: int = 0  # calls that raised
    extra: dict = field(default_factory=dict)

    def bump(self, key: str, by: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + by


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._open = {name: 0 for name in SPANS}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack, open_ = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._on_enter(name, parent)
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                duration = clock() - start
                stack.pop()
                open_[name] -= 1
                if parent is not None:
                    parent[1] += duration
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if open_[name] == 0:
                    stats.s += duration
                if not ok:
                    stats.failed += 1
            self._on_result(name, stats, result)
            return result

        return traced

    def _on_enter(self, name: str, parent) -> None:
        if name in _GRADIENTS and parent is not None and parent[0] == "nehari.nehari_descent":
            self.stats["nehari.nehari_descent"].bump("gradient_calls")
        if name == "energy.system.hessian" and self._open["nehari.multiplicity_search"]:
            self.stats["nehari.multiplicity_search"].bump("hessian_calls")

    @staticmethod
    def _on_result(name: str, stats: SpanStats, result) -> None:
        if name == "nehari.newton_polish":
            stats.bump("ok", bool(result[1]))
        elif name == "nehari.multiplicity_search":
            stats.bump("orbits", len(result))
        elif name == "cli.write_report":
            stats.bump("bytes", sum(os.path.getsize(p) for p in result))

    # -- wiring -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every span target and rebind every reference to it."""
        self._originals += wrap_all(SPANS, self._wrap)

    def uninstall(self) -> None:
        unwrap(self._originals)

    # -- read-out -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            name: {"calls": st.calls, "s": st.s, "self_s": st.self_s,
                   "failed": st.failed, **st.extra}
            for name, st in self.stats.items()
        }


def wrap_all(targets: dict[str, tuple[str, str]], wrap, missing_ok: bool = False) -> list:
    """Replace each target with `wrap(name, original)` and rebind every sinesolve
    reference to the original; returns what `unwrap` needs to undo it.  With
    `missing_ok`, a target the source no longer has is skipped."""
    modules = {sub: importlib.import_module(f"sinesolve.{sub}") for sub, _ in targets.values()}
    originals: list[tuple[object, str, object]] = []
    replaced: dict[int, object] = {}
    for name, (sub, path) in targets.items():
        owner = modules[sub]
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
        except (AttributeError, KeyError):
            if missing_ok:
                continue
            raise
        wrapper = wrap(name, original)
        originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        replaced[id(original)] = wrapper
    for module in sinesolve_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                originals.append((module, attr, value))
                setattr(module, attr, replaced[id(value)])
    return originals


def unwrap(originals: list) -> None:
    for owner, attr, original in reversed(originals):
        setattr(owner, attr, original)
    originals.clear()


def sinesolve_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sinesolve" or n.startswith("sinesolve."))]


# Per-layer metrics, each "<span name>.<field>"; `trace.overhead` is added by run.py.
LAYER_METRICS = [
    "cli.parse_config.s", "cli.write_report.s", "cli.write_report.bytes",
    *(f"domain.{fn}.{f}" for fn in ("axis_matrix", "synthesize", "project",
                                     "mode_mass_matrix", "integrate")
      for f in ("calls", "self_s")),
    *(f"energy.{kind}.{fn}.{f}" for kind in ("system", "scalar")
      for fn in ("energy", "gradient", "hessian") for f in ("calls", "self_s")),
    "nehari.nehari_descent.calls", "nehari.nehari_descent.s",
    "nehari.nehari_descent.gradient_calls", "nehari.project_ray.calls",
    "nehari.project_general.calls", "nehari.project_general.s", "nehari.project_general.failed",
    "nehari.newton_polish.calls", "nehari.newton_polish.s", "nehari.newton_polish.ok_ratio",
    "nehari.scalar_ground_state.calls", "nehari.scalar_ground_state.s", "nehari.ground_state.s",
    "nehari.multiplicity_search.s", "nehari.multiplicity_search.hessian_calls",
    "nehari.multiplicity_search.orbits_per_run",
    "nehari.diagonal_sup.calls", "nehari.diagonal_sup.s", "nehari.coupling_threshold.s",
    "synchronized.find_roots.s", "synchronized.synchronized_solution.s",
    "limit.sobolev_constant.s", "limit.interior_threshold.calls", "limit.interior_threshold.s",
    "limit.coupled_sobolev_constant.s", "limit.pair_grid_infimum.s",
    "radial.radial_integral.calls", "radial.radial_integral.s",
    "radial.radial_tail_integral.calls", "radial.radial_tail_integral.s",
    *(f"estimates.{fn}.s" for fn in ("cutoff_bubble_integrals", "fit_orders", "ray_maximum",
                                     "linking_sweep", "calculus_inequalities")),
]


def metric_unit(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field in ("s", "self_s"):
        return "s"
    if field in ("ok_ratio", "orbits_per_run"):
        return "ratio"
    return "bytes" if field == "bytes" else "count"


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Every entry of LAYER_METRICS, computed from one pass's span snapshot."""
    out = {}
    for metric in LAYER_METRICS:
        span, field = metric.rsplit(".", 1)
        st = snapshot[span]
        if field == "ok_ratio":
            num, den = st.get("ok", 0), st["calls"]
        elif field == "orbits_per_run":
            num, den = st.get("orbits", 0), snapshot["nehari.deflated_root"]["calls"]
        else:
            num, den = st.get(field, 0), 1
        out[metric] = float(num / den) if den else 0.0
    return out
