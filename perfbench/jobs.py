"""The operations the workloads run, each with its own output check.

A job's ``run`` is the only part that is timed: it makes the user-level
calls into whsymm (or one CLI invocation) from plain-data inputs.  Its
``check`` hands the output to the independent checker and returns a
list of problems.  ``known_fault`` marks an operation that fails every
time because of a named fault in whsymm; it still counts as failed, and
its ``shows_known_fault`` tells that fault's symptom from any other
failure.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import check
from refmath import Sym, center_matrix, group_matrix, ref_classes


def to_program(W, s: Sym):
    """The whsymm RationalSymbol of a plain-data symbol."""
    return W.RationalSymbol(W.LaurentPoly(s.shift, s.num), W.LaurentPoly(0, s.den))


class Runtime:
    """How jobs reach whsymm: the imported package, and a CLI runner
    that is either a child process per job or an in-process call."""

    def __init__(self, whsymm, root: str, in_process: bool) -> None:
        self.W = whsymm
        self.root = root
        self.in_process = in_process
        self.child_peak_kb = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def cli(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.W.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.Popen(
            [sys.executable, "-m", "whsymm", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=self.root,
            env=self.env,
        )
        try:
            text = proc.stdout.read().decode("utf-8", errors="replace")
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, text


def _verifier_verdict(report) -> list[str]:
    if report.passed:
        return []
    failed = [c.name for c in report.checks if not c.passed]
    return [f"whsymm's verifier rejected the result ({', '.join(failed)})"]


@dataclass
class GroupFactor:
    """Build the group, factor the group symbol, verify the result."""

    name: str
    spec: dict
    table: np.ndarray
    coeffs: list[Sym]
    expected: list[tuple]
    total: int
    known_fault: bool = False

    def run(self, rt: Runtime):
        W = rt.W
        gs = W.GroupSymbol(W.build_group(self.spec), [to_program(W, s) for s in self.coeffs])
        fac = W.factor_group_symbol(gs)
        return fac, W.verify_matrix_factorization(W.assemble_matrix(gs), fac)

    def check(self, out) -> list[str]:
        return _verifier_verdict(out[1]) + self._independent(out[0])

    def shows_known_fault(self, out) -> bool:
        """whsymm's verifier rejects on reconstruction alone a
        factorization the independent checker finds right."""
        fac, report = out
        rejected = [c.name for c in report.checks if not c.passed]
        return rejected == ["reconstruction"] and not self._independent(fac)

    def _independent(self, fac) -> list[str]:
        return check.factorization(
            lambda t: group_matrix(self.table, self.coeffs, t),
            check.rows_from_program(fac.minus),
            list(fac.d),
            check.rows_from_program(fac.plus),
            self.expected,
            self.total,
        )


@dataclass
class CenterFactor:
    """Factor a center-algebra symbol and verify the result."""

    name: str
    spec: dict
    table: np.ndarray
    coeffs: list[Sym]
    expected: list[tuple]
    total: int
    known_fault: bool = False

    def run(self, rt: Runtime):
        W = rt.W
        cs = W.CenterSymbol(W.build_group(self.spec), [to_program(W, s) for s in self.coeffs])
        cf = W.center_factorize(cs)
        return cf, W.verify_matrix_factorization(W.assemble_center_matrix(cs), cf.factorization)

    def check(self, out) -> list[str]:
        cf, report = out
        classes = ref_classes(self.table)
        fac = cf.factorization
        return _verifier_verdict(report) + check.factorization(
            lambda t: center_matrix(classes, self.coeffs, t),
            check.rows_from_program(fac.minus),
            list(fac.d),
            check.rows_from_program(fac.plus),
            self.expected,
            self.total,
        )


@dataclass
class Indices:
    """Reduce a group symbol and report its partial indices."""

    name: str
    spec: dict
    table: np.ndarray
    coeffs: list[Sym]
    explicit: dict
    det_indices: list
    total: int
    known_fault: bool = False

    def run(self, rt: Runtime):
        W = rt.W
        gs = W.GroupSymbol(W.build_group(self.spec), [to_program(W, s) for s in self.coeffs])
        return W.partial_indices(W.block_diagonalize(gs))

    def check(self, report) -> list[str]:
        got = {
            "explicit": dict(report.explicit),
            "det": [b.det_index for b in report.blocks if b.degree > 1],
            "total": report.total_index,
        }
        return check.index_report(
            lambda t: group_matrix(self.table, self.coeffs, t),
            self.explicit,
            self.det_indices,
            self.total,
            got,
        )


@dataclass
class Scalar:
    """Factor a scalar symbol exactly and verify the result."""

    name: str
    sym: Sym
    index: int
    known_fault: bool = False

    def run(self, rt: Runtime):
        W = rt.W
        s = to_program(W, self.sym)
        fac = W.factor_rational(s)
        return fac, W.verify_scalar(s, fac)

    def check(self, out) -> list[str]:
        fac, report = out
        return _verifier_verdict(report) + check.scalar(
            self.sym,
            check.sym_from_program(fac.minus),
            fac.index,
            check.sym_from_program(fac.plus),
            self.index,
        )


@dataclass
class Cli:
    """One ``python -m whsymm`` invocation; ``check_doc`` checks the
    parsed stdout document when the exit code is the expected one."""

    name: str
    argv: list[str]
    expect_exit: int
    check_doc: Callable[[dict], list[str]] = field(repr=False)
    known_fault: bool = False

    def run(self, rt: Runtime):
        return rt.cli(self.argv)

    def check(self, out) -> list[str]:
        code, text = out
        doc, problems = check.parse_stdout(text)
        if code != self.expect_exit:
            problems.append(f"exit code {code}, expected {self.expect_exit}")
        elif doc is not None:
            problems += self.check_doc(doc)
        return problems

    def shows_known_fault(self, out) -> bool:
        """whsymm accepts, with exit 0 and a well-formed report, what the
        checker rejects."""
        code, text = out
        doc, problems = check.parse_stdout(text)
        return (self.expect_exit == 1 and code == 0 and not problems
                and isinstance(doc, dict) and doc.get("overall") == "pass")
