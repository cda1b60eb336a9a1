"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 worker.py pass SPEC.json      run the jobs in order, untraced
    python3 worker.py traced SPEC.json    the same with spans (tracer.py)
    python3 worker.py setup SPEC.json     import and validate configs only

SPEC holds the `src` directory to import sinesolve from, the workload seed,
the report directory and the jobs ({name, subcommand, config path}).  Jobs
run through `sinesolve.cli.main` in this process, one after another, with
`--threads 1`.  Each job records its wall and CPU time, raw and scaled to
the reference host speed by probe.HostClock; the pass's times are sums over
the jobs, so they leave out interpreter start-up, imports and the probes.
Peak RSS is the whole process's.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback

import tracer
from probe import HostClock

# solver entry points called tens of times per job, each followed by a
# checkpoint of the host clock, so long jobs get probed inside, not only at
# their ends; a target the source lacks is skipped
CHECKPOINTS = {name: tracer.SPANS[name] for name in (
    "nehari.nehari_descent", "nehari.project_general", "nehari.newton_polish",
    "nehari.diagonal_sup")}


def _versions() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _setup(spec: dict) -> dict:
    from sinesolve import cli

    for job in spec["jobs"]:
        with open(job["config"], encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["solver"] = {**raw.get("solver", {}), "seed": spec["seed"]}
        needs_box, _ = cli.SUBCOMMANDS[job["subcommand"]]
        cli.parse_config(raw, needs_box)
    return {"versions": _versions()}


def _run(spec: dict, traced: bool) -> dict:
    spans = None
    if traced:
        spans = tracer.Tracer()
        spans.install()
    from sinesolve import cli

    clock = HostClock()
    if not traced:  # spans would time the probes; traced passes probe between jobs only
        tracer.wrap_all(CHECKPOINTS, clock.hook, missing_ok=True)
    records = []
    for i, job in enumerate(spec["jobs"]):
        argv = [job["subcommand"], "--config", job["config"], "--seed", str(spec["seed"]),
                "--threads", "1", "--out", spec["out"]]
        record = {"name": job["name"], "subcommand": job["subcommand"], "error": None}
        clock.start(record)
        try:
            record["exit"] = cli.main(argv)
        except Exception:  # a crash fails this job; the pass goes on
            record["exit"], record["error"] = None, traceback.format_exc(limit=3)
        finally:
            clock.stop(force=i == len(spec["jobs"]) - 1)
        records.append(record)
    out = {"wall_s": sum(r["wall_s"] for r in records),
           "cpu_s": sum(r["cpu_s"] for r in records),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "jobs": records}
    if spans is not None:
        out["spans"] = spans.snapshot()
    return out


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    if mode == "setup":
        result = _setup(spec)
    elif mode in ("pass", "traced"):
        result = _run(spec, traced=mode == "traced")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
