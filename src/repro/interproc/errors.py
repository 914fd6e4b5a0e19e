"""Analysis-level failure type.

The solvers raise precise internal errors (``PsgBuildError``,
``SolverDivergence``).  The session facade normalizes anything that
prevents an analysis from completing into :class:`AnalysisError`, so
callers — the CLI in particular — have one exception to map to one
exit code.
"""

from __future__ import annotations


class AnalysisError(RuntimeError):
    """An interprocedural analysis run could not be completed."""


class UnknownRoutineError(AnalysisError):
    """A demand query named a routine the program does not contain.

    Also a usage error at the CLI (exit 2): the image parsed and the
    analysis machinery is fine — the caller asked about a routine that
    does not exist.
    """
