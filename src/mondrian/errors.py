"""Shared exception types."""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """A search ran out of its node budget before reaching a proven answer.

    Attributes carry whatever partial knowledge the search had:
    ``nodes`` (placements attempted), ``lower_bound``/``upper_bound``
    (bracket on the defect value, when solving), and ``unresolved``
    (candidate areas not yet excluded, when checking for a perfect tiling).
    """

    def __init__(
        self,
        message: str,
        *,
        nodes: int | None = None,
        lower_bound: int | None = None,
        upper_bound: int | None = None,
        unresolved: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.nodes = nodes
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.unresolved = tuple(unresolved)


class InternalConsistencyError(RuntimeError):
    """A mathematically guaranteed invariant failed at runtime.

    This signals a bug in the library itself, never bad user input.
    """


class UsageError(ValueError):
    """An input outside the domain that a command accepts; the CLI exits 2 on it.

    Raised only by the input checks that a command line can reach, so any
    other ValueError from inside a command is a fault and is not reported
    as the user's mistake.
    """


class BFileParseError(ValueError):
    """A b-file line could not be parsed; the message names the line."""
