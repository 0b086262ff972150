"""Exception types shared across the package.

The split matters for the command-line tool: bad user input maps to exit
code 2, while a violated mathematical precondition or a failed verdict maps
to exit code 3.
"""

from __future__ import annotations


class RecurMomentsError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(RecurMomentsError, ValueError):
    """Malformed data: bad kernels, bad spec strings, bad parameters."""


class NoSuchPath(RecurMomentsError):
    """A conditioning event has probability zero, so the conditioned law
    does not exist (e.g. every return from i passes through j)."""


class IncomparableLaws(RecurMomentsError):
    """Two laws cannot be compared pointwise (mismatched horizons or
    representations, or unassigned mass at unknown support points)."""


class PreconditionFailed(RecurMomentsError):
    """A documented precondition of a demonstration or solver is violated."""


class WitnessSearchExhausted(PreconditionFailed):
    """The burst schedule ran out, or its midpoints left the int64 range,
    before the witness search found the required sequence; carries the
    witnesses found so far."""

    def __init__(self, message: str, found=()):
        super().__init__(message)
        self.found = tuple(found)


class ConvergenceFailure(RecurMomentsError):
    """A numerical routine failed to reach its accuracy target."""
