"""Record reference.json: each job's outcome at the reference seed.

    python3 bench/make_reference.py

Run from the root of the checkout whose outputs define "correct" (the commit
that introduced the benchmark).  One untraced pass of every workload is run
and summarized with check.summarize; nothing is compared.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import check
from run import WORK_DIR, Run
from workloads import WORKLOADS


def main() -> None:
    root = os.getcwd()
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    jobs = {}
    for workload in WORKLOADS:
        work = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(root, WORK_DIR))
        try:
            result = Run(workload, check.REFERENCE_SEED, root, work, reference=None).one_pass(False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for job in result["jobs"]:
            if job["error"] is not None:
                raise SystemExit(f"{workload}/{job['name']} crashed:\n{job['error']}")
            jobs[f"{workload}/{job['name']}"] = job["summary"]
    with open(check.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"reference_seed": check.REFERENCE_SEED, "jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
