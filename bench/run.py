"""sinesolve benchmark: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sinesolve is imported from ./src.
One client runs the workload's jobs in a closed loop: each pass is a fresh
single-threaded interpreter (worker.py) that runs every job in order, and
passes repeat until S seconds have gone by, so no cache survives between
passes.  Before that, set-up (a fresh interpreter importing the package and
validating every config) is timed SETUP_REPEATS times.

With --trace 0 the result holds the end-to-end metrics, each the median over
passes or set-up repeats.  wall_s, cpu_s and setup_s are scaled to a
reference host speed (probe.py): the host's speed drifts by up to 1.8x
within seconds and over minutes, and the raw times, printed as raw_wall_s,
raw_cpu_s and raw_setup_s, move with it.  With --trace 1 untraced and traced
passes alternate, and the result holds the per-layer metrics of tracer.py
plus trace.overhead (raw traced over raw untraced wall time, the median
over neighbouring pairs of passes).  Either way every job's output is
checked against reference.json (check.py).  Human-readable lines start with
'#'; the last line of stdout is the JSON result.  Exits 2 without a result
when the checkout has no sinesolve source or the workload is unknown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# pinned before numpy loads anywhere: OpenBLAS would otherwise use every core
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import check  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
SETUP_REPEATS = 5  # after one untimed warm-up that also fills __pycache__
RUN_LIMIT_S = 170.0  # a run must end within 180 s; a worker still busy then is killed

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _worker(mode: str, spec_path: str, env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, spec_path],
        capture_output=True, text=True, env=env,
        timeout=max(deadline - time.perf_counter(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit(root: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, workload: str, seed: int, root: str, work: str, reference: dict | None):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.reference = reference  # None: summarize outputs without checking them
        self.src = os.path.join(root, "src")
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(THREAD_ENV, PYTHONHASHSEED="0")
        self.jobs = []
        for job in jobs_for(workload):
            path = os.path.join(work, f"{job['name']}.config.json")
            config = {**job["config"], "output": {"report": f"{job['name']}.json"}}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.jobs.append({"name": job["name"], "subcommand": job["subcommand"],
                              "config": path})
        self.attempted = 0
        self.failures: list[str] = []
        self._spec_count = 0

    def _spec(self, out: str) -> str:
        self._spec_count += 1
        path = os.path.join(self.work, f"spec-{self._spec_count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"src": self.src, "seed": self.seed, "out": out,
                       "jobs": self.jobs}, fh)
        return path

    def setup(self) -> tuple[list[float], list[float], dict]:
        """Set-up times, scaled to the reference host speed and raw, and the versions."""
        spec = self._spec(self.work)
        info = _worker("setup", spec, self.env, self.deadline)
        raw, probes = [], [probe.probe()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _worker("setup", spec, self.env, self.deadline)
            raw.append(time.perf_counter() - t0)
            probes.append(probe.probe())
        # one scale for all repeats: a single probe is too short to scale one
        scale = probe.PROBE_REF_S / statistics.median(probes)
        return [t * scale for t in raw], raw, info["versions"]

    def one_pass(self, traced: bool) -> dict:
        out = tempfile.mkdtemp(prefix="pass-", dir=self.work)
        result = _worker("traced" if traced else "pass", self._spec(out), self.env,
                         self.deadline)
        for job in result["jobs"]:
            self.attempted += 1
            report_path = os.path.join(out, f"{job['name']}.json")
            report = None
            if os.path.exists(report_path):
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
            if job["error"] is not None:
                problems = ["crashed: " + job["error"].strip().splitlines()[-1]]
            elif self.reference is None:
                job["summary"] = check.summarize(job["subcommand"], job["exit"], report)
                problems = []
            else:
                problems = check.check(self.reference[f"{self.workload}/{job['name']}"],
                                       job["subcommand"], job["exit"], report)
            self.failures += [f"{job['name']}: {p}" for p in problems[:3]]
            job["failed"] = bool(problems)
        return result


def _normalized(one_pass: dict, key: str, subcommand: str | None = None) -> float:
    """The pass's `key` ("wall_s" or "cpu_s") at the reference host speed, summed over jobs."""
    return sum(j["norm_" + key] for j in one_pass["jobs"]
               if subcommand is None or j["subcommand"] == subcommand)


def _report_lines(rows: list[tuple[str, str, list[float]]]) -> list[str]:
    lines = [f"# {'metric':<44} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"]
    for name, unit, values in rows:
        med, q1, q3 = _quartiles(values)
        lines.append(f"# {name:<44} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>3}")
    return lines


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sinesolve", "cli.py")):
        raise BenchError("run from the root of a sinesolve checkout: src/sinesolve is missing")
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        bench = Run(args.workload, args.seed, root, work, check.load_reference())
        setup_times, raw_setup_times, versions = bench.setup()
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            plain.append(bench.one_pass(traced=False))
            if args.trace:
                traced.append(bench.one_pass(traced=True))
            if time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run is using it
        except OSError:
            pass

    env = {**versions, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "threads": THREAD_ENV,
           "commit": _commit(root), "src_sha256": _src_digest(os.path.join(root, "src"))}
    print(f"# sinesolve benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(plain)} untraced + {len(traced)} traced passes, one client, closed loop")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    rows = [(m, "s", [_normalized(p, m) for p in plain]) for m in ("wall_s", "cpu_s")]
    rows += [("raw_" + m, "s", [p[m] for p in plain]) for m in ("wall_s", "cpu_s")]
    rows.append(("peak_rss_mb", "MB", [p["peak_rss_mb"] for p in plain]))
    rows += [("setup_s", "s", setup_times), ("raw_setup_s", "s", raw_setup_times)]
    n_jobs = len(bench.jobs)
    rows.append(("fail_ratio", "ratio",
                 [sum(j["failed"] for j in p["jobs"]) / n_jobs for p in plain + traced]))
    # scaled wall time of each subcommand's jobs, e.g. ground_state_s
    for sub in dict.fromkeys(j["subcommand"] for j in bench.jobs):
        rows.append((sub.replace("-", "_") + "_s", "s", [_normalized(p, "wall_s", sub) for p in plain]))
    if args.trace:
        # raw times of neighbouring passes: traced passes are probed between
        # jobs only, so their scaled times are coarser than the untraced ones
        overheads = [t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)]
        layer = [tracer.layer_metrics(p["spans"]) for p in traced]
        layer_rows = [(m, tracer.metric_unit(m), [x[m] for x in layer]) for m in tracer.LAYER_METRICS]
        layer_rows.append(("trace.overhead", "ratio", overheads))
        rows += [("raw_traced_wall_s", "s", [p["wall_s"] for p in traced])] + layer_rows
        metrics = {m: {"value": statistics.median(v), "unit": u} for m, u, v in layer_rows}
    else:
        metrics = {m: {"value": statistics.median(v), "unit": u}
                   for m, u, v in rows if m in END_TO_END}
    for line in _report_lines(rows):
        print(line)
    for failure in bench.failures[:20]:
        print(f"# FAILED {failure}")
    failed = sum(j["failed"] for p in plain + traced for j in p["jobs"])
    return {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
            "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: subprocess.run kills and reaps its child


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
