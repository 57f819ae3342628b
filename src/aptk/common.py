"""Shared result and error types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class AptError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(AptError):
    """Bad command line arguments or module invocation."""


class ParseError(AptError):
    """Syntax or semantic error in an input file; carries a position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PreconditionError(AptError):
    """An analysis was invoked on input that violates its precondition."""


class UnboundedNetError(PreconditionError):
    """The analysis requires a bounded net but the net is unbounded."""


class StateLimitExceededError(PreconditionError):
    """State space construction hit the configured state limit."""


class CycleCapExceededError(PreconditionError):
    """Cycle enumeration exceeded the configured cap."""


class UnsupportedInputError(PreconditionError):
    """The input is outside the supported fragment for this operation."""


class BoundExceededError(AptError):
    """An integer search would be unbounded or passed its budget.

    Raised for branch and bound over a variable without a finite box, and
    when a search passes linalg.DEFAULT_NODE_LIMIT or DEFAULT_FRONTIER_LIMIT.
    Distinct from infeasibility: the system might still have solutions.
    """


class InternalError(AptError):
    """A self-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class Check:
    """Outcome of a yes/no analysis together with a witness.

    For a negative answer `witness` names a counterexample (its shape is
    documented per operation); `detail` is a short human-readable reason.
    """

    ok: bool
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok
