"""whsymm benchmark: one workload per invocation, one job at a time.

    python3 perfbench/run.py --workload catalog-mix --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the ``src`` directory
next to this one.  A closed loop with one caller runs whole rounds of
jobs until the jobs have been busy for ``--seconds``; every output is
checked by the independent checker (check.py) outside the timed calls.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones from a traced
run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# One caller and no helper threads: numeric libraries read these when
# numpy is first imported, so they are set before any import of it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

WORKLOADS = ("catalog-mix", "cyclic-large", "cli-batch")
# set-up is timed in this many fresh child processes, spread evenly over
# the run's busy time so that one phase of the host's speed does not
# decide the median
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 3
# p90 is printed only when at least this many jobs ran
P90_MIN_JOBS = 100
# no new round starts once the run would likely pass this wall time
WALL_GUARD_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "groups.build_group.s", "groups.build_group.calls",
    "reps.irreps_for.s", "reps.irreps_for.calls", "reps.fourier_matrix.s",
    "blocks.assemble_matrix.s", "blocks.block_diagonalize.s", "blocks.partial_indices.s",
    "blocks.factor_block.s", "blocks.factor_block.calls",
    "blocks.assemble_full_factorization.s",
    "scalar.factor_rational.s", "scalar.verify_scalar.s",
    "symbols.poly_roots.s", "symbols.poly_roots.calls", "symbols.winding_index.s",
    "center.center_factorize.s", "center.assemble_center_matrix.s",
    "verify.verify_matrix_factorization.s", "verify.verify_matrix_factorization.calls",
    "ratmat.eval_grid.s", "verify.det_index_oracle.s", "verify.self.s",
    "verify.det_samples_bytes",
    "documents.parse.s", "documents.serialize.s",
    "cli.import_s", "cli.main.s", "trace.overhead_s",
]


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_bytes"):
        return "B"
    return "s"


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def setup(workload: str, seed: int):
    """Import whsymm and generate round 0.  Returns (whsymm, generator,
    round-0 jobs, seconds taken)."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "whsymm", "__init__.py")):
        raise Failure(f"no whsymm sources under {SRC}")
    sys.path.insert(0, SRC)
    import whsymm

    if os.path.dirname(os.path.abspath(whsymm.__file__)) != os.path.join(SRC, "whsymm"):
        raise Failure(f"imported whsymm from {whsymm.__file__}, not from {SRC}")
    if workload == "cli-batch":
        import whsymm.cli  # noqa: F401
    from inputs import Generator

    gen = Generator(whsymm, seed)
    jobs = gen.round(workload, 0)
    return whsymm, gen, jobs, time.perf_counter() - start


def _child_seconds(argv: list[str], env=None) -> float:
    out = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Times set-up in a fresh child process at SETUP_SAMPLES evenly
    spaced marks of the run's busy time; ``finish`` takes what is left
    once the run has ended."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                     "--seed", str(seed), "--setup-probe"]
        self.step = seconds / SETUP_SAMPLES
        self.samples: list[float] = []

    def due(self, busy: float) -> None:
        while len(self.samples) < SETUP_SAMPLES and busy >= len(self.samples) * self.step:
            self.samples.append(_child_seconds(self.argv))

    def finish(self) -> list[float]:
        self.due(float("inf"))
        return self.samples


def import_samples() -> list[float]:
    code = ("import time; t = time.perf_counter(); import whsymm, whsymm.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    return [_child_seconds([sys.executable, "-c", code], env) for _ in range(IMPORT_SAMPLES)]


class Loop:
    """Runs jobs one at a time, checks them, and keeps the counts."""

    def __init__(self, rt) -> None:
        self.rt = rt
        self.tracer = None  # a Tracer while a traced run is on
        self.sampler = None  # a SetupSampler in a timed run
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.outputs: dict[str, tuple] = {}

    def run_round(self, jobs, keep_outputs: bool = False) -> float:
        busy = 0.0
        for job in jobs:
            busy += self.run_job(job, keep_outputs)
        return busy

    def run_job(self, job, keep_output: bool) -> float:
        if self.sampler is not None:
            self.sampler.due(sum(self.times))
        tracer = self.tracer
        if tracer is not None:
            tracer.job = self.attempted
        out = None
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("job/" + job.name):
                    out = job.run(self.rt)
            else:
                out = job.run(self.rt)
        except Exception as exc:  # any raise is this operation's failure
            problems = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.probe_verifier()
        if out is not None:
            try:
                problems = job.check(out)
            except Exception as exc:  # a malformed output can break a check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if keep_output:
            self.outputs[job.name] = out
        self.attempted += 1
        self.times.append(elapsed)
        if problems:
            self.failed += 1
            # a known fault counts as known only when it shows its own
            # symptom; any other failure of that job is unexpected
            known = out is not None and job.known_fault and job.shows_known_fault(out)
            tag = "known fault" if known else "FAILED"
            print(f"{tag}: {job.name}: {'; '.join(problems)}", file=sys.stderr)
            if not known:
                self.unexpected.append(job.name)
        elif job.known_fault:
            print(f"known fault did not show: {job.name}", file=sys.stderr)
        return elapsed


def _rounds(gen, workload, loop: Loop, seconds: float, started: float, r: int = 0,
            jobs=None) -> int:
    """Run whole rounds, starting at round ``r``, until the jobs have been
    busy ``seconds``; returns the number of rounds run."""
    busy, count = 0.0, 0
    while True:
        round_start = time.perf_counter()
        jobs = jobs if jobs is not None else gen.round(workload, r)
        busy += loop.run_round(jobs, keep_outputs=(r == 0))
        r, count, jobs = r + 1, count + 1, None
        wall = time.perf_counter()
        if busy >= seconds or (wall - started) + (wall - round_start) > WALL_GUARD_S:
            return count


def golden_report(loop: Loop, seed: int) -> None:
    import golden

    recorded = golden.load().get(str(seed), {})
    for name, out in loop.outputs.items():
        if out is None:
            continue
        got = golden.entry(*out)
        want = recorded.get(name)
        verdict = "unrecorded" if want is None else ("match" if want == got else "mismatch")
        print(f"golden {name}: {verdict}")


def timed_run(workload, seed, seconds, whsymm, gen, first):
    from jobs import Runtime

    started = time.perf_counter()
    rt = Runtime(whsymm, ROOT, in_process=(workload != "cli-batch"))
    loop = Loop(rt)
    loop.sampler = SetupSampler(workload, seed, seconds)
    _rounds(gen, workload, loop, seconds, started, jobs=first)
    samples = loop.sampler.finish()
    if workload == "cli-batch":
        golden_report(loop, seed)
        peak_kb = rt.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = loop.times
    metrics = {
        "setup_s": statistics.median(samples),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if len(times) >= P90_MIN_JOBS:
        print(f"job_p90_s = {statistics.quantiles(times, n=10)[-1]:.6g} s "
              f"(over {len(times)} jobs)")
    else:
        print(f"job_p90_s not reported: {len(times)} jobs < {P90_MIN_JOBS}")
    return loop, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(workload, seed, seconds, whsymm, gen, first):
    from jobs import Runtime
    from tracing import Tracer

    started = time.perf_counter()
    tracer = Tracer(whsymm)
    rt = Runtime(whsymm, ROOT, in_process=True)
    # round 0 once untraced to warm up, then each of its jobs untraced
    # and traced in turn on the same inputs: the difference of the two
    # is the tracing overhead
    loop = Loop(rt)
    loop.run_round(first)
    untraced = traced0 = 0.0
    for job in first:
        untraced += loop.run_job(job, keep_output=False)
        loop.tracer = tracer
        tracer.install()
        try:
            traced0 += loop.run_job(job, keep_output=False)
        finally:
            tracer.uninstall()
            loop.tracer = None
    loop.tracer = tracer
    tracer.install()
    try:
        rounds = 1
        if traced0 < seconds:
            rounds += _rounds(gen, workload, loop, seconds - traced0, started, r=1)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))

    busy, calls = tracer.totals()
    values = {}
    for name in PER_LAYER:
        stem = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            values[name] = calls[stem] / rounds
        elif name.endswith(".s"):
            values[name] = busy[stem] / rounds
    values["ratmat.eval_grid.s"] = busy["probe.eval_grid"] / rounds
    values["verify.det_index_oracle.s"] = busy["probe.det_index_oracle"] / rounds
    values["verify.self.s"] = (values["verify.verify_matrix_factorization.s"]
                               - values["ratmat.eval_grid.s"] - values["verify.det_index_oracle.s"])
    values["verify.det_samples_bytes"] = float(tracer.det_samples_bytes)
    values["cli.import_s"] = statistics.median(import_samples()) if workload == "cli-batch" else 0.0
    values["trace.overhead_s"] = traced0 - untraced
    return loop, {k: (values[k], _unit(k)) for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import plus round-0 generation once and print it")
    args = parser.parse_args(argv)
    try:
        whsymm, gen, first, took = setup(args.workload, args.seed)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(took)
        return 0
    run = traced_run if args.trace else timed_run
    loop, metrics = run(args.workload, args.seed, args.seconds, whsymm, gen, first)
    print(f"workload={args.workload} seed={args.seed} attempted={loop.attempted} "
          f"failed={loop.failed} unexpected_failures={len(loop.unexpected)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
