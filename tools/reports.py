"""Print the verifier reports of benchmark jobs, for comparing two trees.

    python3 tools/reports.py --workload catalog-mix --seeds 1 2 --rounds 3
    python3 tools/reports.py --workload cli-batch --seeds 0 1 2
    python3 tools/reports.py --workload cyclic-large --seeds 1 2 --rounds 2 --verdicts

For ``catalog-mix`` and ``cyclic-large`` it runs rounds 0 .. rounds-1
of each seed in process and prints every job's name with the full text
of each library verifier report it produced (``VerificationReport.
to_text()``) and the SHA-256 of the JSON document of each matrix
factorization (``documents.serialize_factorization``), or the error it
raised.  For ``cli-batch`` it runs the round-0 jobs of each seed as
``python -m whsymm`` child processes and prints each job's exit code
and the SHA-256 of its stdout.  Jobs come
from the benchmark's own generator (``perfbench/inputs.py``) and run
against the ``src`` tree of the checkout this file sits in.  Nothing is
written but stdout, so the outputs of two checkouts compare with one
``diff``.

``--verdicts`` prints no residual digits: each check's name and
verdict, each report's overall verdict and each factorization's
index vector ``d`` (a scalar factorization's ``index``, an index
report's total and explicit indices), and for ``cli-batch`` each
job's exit code alone.  Two trees whose residuals differ only in
their last digits then give the same output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

# as in perfbench/run.py: one thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import whsymm  # noqa: E402
from whsymm import documents  # noqa: E402
from inputs import Generator  # noqa: E402
from jobs import Runtime  # noqa: E402


def verdict_lines(out) -> list[str]:
    """Check names and verdicts, and each factorization's indices."""
    lines = []
    for x in out if isinstance(out, tuple) else (out,):
        if isinstance(x, whsymm.VerificationReport):
            lines.extend(f"check={c.name} verdict={'pass' if c.passed else 'fail'}" for c in x.checks)
            lines.append(f"overall={'pass' if x.passed else 'fail'}")
        elif isinstance(x, whsymm.CenterFactorization):
            lines.append(f"d={x.factorization.d}")
        elif isinstance(x, whsymm.MatrixFactorization):
            lines.append(f"d={x.d}")
        elif isinstance(x, whsymm.ScalarFactorization):
            lines.append(f"index={x.index}")
        elif isinstance(x, whsymm.IndexReport):
            lines.append(f"total_index={x.total_index} explicit={x.explicit}")
    return lines


def document_digest(fac) -> str:
    """SHA-256 of a matrix factorization's JSON document."""
    if isinstance(fac, whsymm.CenterFactorization):
        fac = fac.factorization
    text = documents.dumps(documents.serialize_factorization(fac))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def library_reports(seed: int, workload: str, rounds: int, verdicts: bool) -> None:
    gen = Generator(whsymm, seed)
    rt = Runtime(whsymm, ROOT, in_process=True)
    for r in range(rounds):
        for job in gen.round(workload, r):
            head = f"== seed={seed} round={r} job={job.name}"
            try:
                out = job.run(rt)
            except Exception as exc:  # a raise is this job's output
                print(f"{head} raised {type(exc).__name__}: {exc}")
                continue
            print(head)
            if verdicts:
                print("\n".join(verdict_lines(out)))
                continue
            for x in out if isinstance(out, tuple) else (out,):
                if isinstance(x, whsymm.VerificationReport):
                    print(x.to_text())
                elif isinstance(x, (whsymm.MatrixFactorization, whsymm.CenterFactorization)):
                    print(f"document_sha256={document_digest(x)}")


def cli_digests(seed: int, verdicts: bool) -> None:
    gen = Generator(whsymm, seed)
    rt = Runtime(whsymm, ROOT, in_process=False)
    for job in gen.round("cli-batch", 0):
        code, text = job.run(rt)
        line = f"== seed={seed} job={job.name} exit={code}"
        if not verdicts:
            line += f" stdout_sha256={hashlib.sha256(text.encode('utf-8')).hexdigest()}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-mix", "cyclic-large", "cli-batch"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=1,
                        help="rounds per seed of a library workload (cli-batch runs round 0)")
    parser.add_argument("--verdicts", action="store_true",
                        help="print verdicts and indices only, no residual digits or digests")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        if args.workload == "cli-batch":
            cli_digests(seed, args.verdicts)
        else:
            library_reports(seed, args.workload, args.rounds, args.verdicts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
