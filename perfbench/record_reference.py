"""Record the reference output hashes of the default seed.

    python3 perfbench/record_reference.py

Builds every workload's job list for DEFAULT_SEED, runs each job once, checks
it with its oracle and writes ``reference.json``: per workload, job key to the
SHA-256 of the job's canonical output.  Record only on a commit whose outputs
are known good: from then on, a change that alters any output byte fails the
benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS

DEFAULT_SEED = 1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for workload in WORKLOADS:
        workdir = run.OUT / f"record-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, _, jobs = run.set_up(workload, DEFAULT_SEED, workdir)
            records, _, outputs = run.run_rounds(jobs, DEFAULT_SEED, 0, min_rounds=1)
            failed, problems = run.check(jobs, records, outputs, {})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if any(failed):
            print(f"{workload}: not recorded, {problems}", file=sys.stderr)
            return 1
        reference[workload] = {key: run.digest(text) for key, text in outputs.items()}
        print(f"{workload}: {len(reference[workload])} jobs")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
