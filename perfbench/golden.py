"""Golden record of the cli-batch jobs: stdout digest and exit code.

    python3 perfbench/golden.py

runs round 0 of the cli-batch workload for seeds 0-9, one child
process per job, and rewrites golden/cli_batch.json.  The benchmark
compares round 0 of every cli-batch run against this record and prints
match, mismatch or unrecorded per job.  A mismatch is not a failure:
the independent checker decides correctness; the record shows whether
the output bytes moved.  Digests can differ between machines whose
floating-point libraries round differently.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli_batch.json")
SEEDS = range(10)


def entry(code: int, stdout: str) -> dict:
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


def load() -> dict:
    """Recorded entries by seed (as a string) and job name."""
    try:
        with open(PATH, encoding="utf-8") as fh:
            return json.load(fh)["seeds"]
    except FileNotFoundError:
        return {}


def main() -> int:
    import run
    from jobs import Runtime

    seeds = {}
    for seed in SEEDS:
        whsymm, _gen, jobs, _took = run.setup("cli-batch", seed)
        rt = Runtime(whsymm, run.ROOT, in_process=False)
        seeds[str(seed)] = {job.name: entry(*job.run(rt)) for job in jobs}
        print(f"seed {seed}: {len(jobs)} jobs recorded", file=sys.stderr)
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
