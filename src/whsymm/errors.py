"""Exception types shared across the package.

Errors are split by how a caller should react: document/input problems,
mathematically ill-posed inputs, unsupported requests, and numerical
resolution failures.  Each class carries the CLI exit code for its
kind; ``whsymm.cli`` documents the table.
"""

from __future__ import annotations


class WhsymmError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DocumentError(WhsymmError):
    """A JSON document or CLI argument could not be parsed or validated."""

    exit_code = 2


class GroupConstructionError(WhsymmError):
    """A Cayley table violates a group law; the message names the first failure."""

    exit_code = 2


class UnsupportedGroupError(WhsymmError):
    """The request needs data (e.g. a representation set) we do not have
    for this group, or the group exceeds the supported size cap."""

    exit_code = 4


class RepValidationError(WhsymmError):
    """A representation set is structurally inconsistent with its group."""

    exit_code = 2


class SymbolDivisionError(WhsymmError):
    """Division by the identically-zero symbol."""

    exit_code = 3


class DegreeCapError(WhsymmError):
    """Polynomial degree exceeds the supported root-finding cap."""

    exit_code = 3


class NotInvertibleOnCircleError(WhsymmError):
    """A symbol has a zero or pole too close to the unit circle for a
    winding index to be trusted."""

    exit_code = 3


class PoleOnGridError(WhsymmError):
    """Evaluation requested at a grid point that is (numerically) a pole."""

    exit_code = 3


class UndersampledError(WhsymmError):
    """A grid-based phase sum did not round cleanly to an integer; the
    sampling rate is too low for this symbol."""

    exit_code = 3


class IllPosedSymbolError(WhsymmError):
    """A block or class component is not invertible on the circle, so the
    factorization problem has no solution.  ``where`` names the component."""

    exit_code = 3

    def __init__(self, message: str, where: str = ""):
        super().__init__(message)
        self.where = where


class PartialFactorizationError(WhsymmError):
    """Full factorization was requested but some block is outside the
    factorable catalog.  Carries the index report that is still available."""

    exit_code = 5

    def __init__(self, message: str, index_report=None):
        super().__init__(message)
        self.index_report = index_report
