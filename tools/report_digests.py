"""SHA-256 digests of every benchmark workload's reports, for comparing two trees.

    python3 tools/report_digests.py > digests.txt

Runs each job of `bench/workloads.py` at seeds 0 and 7 through
`sinesolve.cli.main` in this process, with JSON and CSV output into a
temporary directory, and prints one `sha256  file` line per report file
(sorted by file name), then one `exit CODE  job` line per job.  sinesolve
is imported from the `src` directory beside this script's, and
`bench/workloads.py` is loaded by path and only read.  Running this script
in two checkouts and diffing the outputs shows whether a change moved any
report byte or exit code.  Takes no options.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 7)


def _workloads():
    spec = importlib.util.spec_from_file_location("_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    # one BLAS thread, as the benchmark runs, set before numpy loads
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sinesolve import cli

    workloads = _workloads()
    exits = []
    with tempfile.TemporaryDirectory() as out:
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs_for(workload):
                for seed in SEEDS:
                    name = f"{workload}.{job['name']}.s{seed}"
                    config = os.path.join(out, f"{name}.config")
                    with open(config, "w", encoding="utf-8") as fh:
                        json.dump({**job["config"], "output": {"report": f"{name}.json",
                                                               "formats": ["json", "csv"]}}, fh)
                    with contextlib.redirect_stderr(io.StringIO()):  # wall times only
                        code = cli.main([job["subcommand"], "--config", config,
                                         "--seed", str(seed), "--out", out])
                    exits.append(f"exit {code}  {name}")
        for report in sorted(f for f in os.listdir(out) if f.endswith((".json", ".csv"))):
            with open(os.path.join(out, report), "rb") as fh:
                print(f"{hashlib.sha256(fh.read()).hexdigest()}  {report}")
    print("\n".join(exits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
