"""Output check: every job's outcome against the seed commit's reference.

A job's outcome is summarized as a flat dict (`summarize`).  Exit codes,
classifications, flags and counts must match exactly; floats must match
within the quantity's own accuracy (`TOLERANCE`).  The workloads use
deterministic starts only, so no checked quantity depends on the seed and
every one is compared at every seed.  A multiplicity report must also
satisfy the search's acceptance invariants: distinct sign orbits, all fully
nontrivial, energies in (0, c0).
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_SEED = 0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

DEFAULT_RTOL = 1e-8
TOLERANCE = {
    "lambda_bar": 1e-3,  # coupling_threshold bisects to rel_width=1e-3
    "lambda0": 2e-6,  # interior_threshold bisects to rel_width=1e-6
    # golden-section argmin of a flat quotient, and the amplitudes built on it
    "r_min": 1e-6,
    "s_amplitude": 1e-6,
    "t_amplitude": 1e-6,
}
FULLY_NONTRIVIAL = "fully-nontrivial"
DEDUP_TOL = 1e-4  # the CLI's default task.dedup_tol


def _family(report: dict, family: str) -> list[dict]:
    return [r for r in report["results"] if r.get("family") == family]


def summarize(subcommand: str, exit_code, report: dict | None) -> dict:
    """The checked quantities of one job; just the exit code without a report."""
    out = {"exit": exit_code}
    if report is None:
        return out
    th = report["thresholds"]
    if subcommand == "ground-state":
        (system,) = _family(report, "system")
        out.update(energy=system["energy"], classification=system["classification"],
                   below_threshold=system["below_threshold"], c0=th["c0"],
                   scalar_energies=sorted(r["energy"] for r in _family(report, "scalar")))
    elif subcommand == "multiplicity":
        points = _family(report, "system")
        out.update(c0=th["c0"], orbits=len(points),
                   orbit_energies=[r["energy"] for r in points],
                   orbit_classes=[r["classification"] for r in points])
    elif subcommand == "thresholds":
        out.update(c0=th["c0"], lambda_bar=th["lambda_bar"],
                   sups=[r["value"] for r in _family(report, "diagonal-sup")])
    elif subcommand == "synchronized":
        points = _family(report, "synchronized")
        out.update(n_roots=th["n_roots"], scalar_energy=th["scalar_energy"],
                   ratio_roots=[r["ratio_root"] for r in points],
                   sync_energies=[r["energy"] for r in points],
                   sync_classes=[r["classification"] for r in points])
    elif subcommand == "limit":
        out.update(th)
    elif subcommand == "verify-estimates":
        out.update(th)
        for family, flag in (("order-fit", "passed"), ("inequality", "passed"),
                             ("ray-max", "consistent"), ("linking", "passed")):
            out[f"{family}.{flag}"] = [r[flag] for r in _family(report, family)]
    else:
        raise ValueError(f"no summary for subcommand {subcommand!r}")
    return out


def _matches(key: str, got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(key, g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= TOLERANCE.get(key, DEFAULT_RTOL) * max(abs(got), abs(want))
    return type(got) is type(want) and got == want


def _orbit_distance(a: list[float], b: list[float], m: int) -> float:
    return min(
        math.dist(a, [s1 * x for x in b[:m]] + [s2 * x for x in b[m:]])
        for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)
    )


def multiplicity_invariants(report: dict) -> list[str]:
    """Distinct sign orbits, all fully nontrivial, energies in (0, c0)."""
    problems = []
    c0 = report["thresholds"]["c0"]
    points = _family(report, "system")
    for i, p in enumerate(points):
        if p["classification"] != FULLY_NONTRIVIAL:
            problems.append(f"orbit {i} is {p['classification']}")
        if not 0.0 < p["energy"] < c0:
            problems.append(f"orbit {i} energy {p['energy']!r} outside (0, c0={c0!r})")
    vecs = [p["coefficients"]["u1"] + p["coefficients"]["u2"] for p in points]
    if len({p["orbit_id"] for p in points}) != len(points):
        problems.append("repeated orbit ids")
    for i in range(len(vecs)):
        for j in range(i):
            if _orbit_distance(vecs[i], vecs[j], len(vecs[i]) // 2) < DEDUP_TOL:
                problems.append(f"orbits {j} and {i} coincide up to sign")
    return problems


def check(reference: dict, subcommand: str, exit_code, report: dict | None) -> list[str]:
    """Mismatches of one job against its reference summary; empty if it passes."""
    got = summarize(subcommand, exit_code, report)
    problems = []
    for key in sorted(reference):
        if key not in got:
            problems.append(f"{key} missing")
        elif not _matches(key, got[key], reference[key]):
            problems.append(f"{key}: got {got[key]!r}, reference {reference[key]!r}")
    if subcommand == "multiplicity" and report is not None:
        problems += multiplicity_invariants(report)
    return problems


def load_reference() -> dict:
    """Reference summaries keyed by "<workload>/<job name>"."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]
