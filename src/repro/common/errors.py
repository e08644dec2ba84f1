"""Exception hierarchy and error taxonomy for the engine.

Mirrors Presto's user-facing error classes: syntax errors from the parser,
semantic errors from the analyzer, planning errors from the optimizer, and
execution errors from the runtime.  ``InsufficientResourcesError`` reproduces
the "Insufficient Resource" failure the paper's section XII.C describes for
over-large joins.

Every error carries an :class:`ErrorCategory`, mirroring Presto's
standardized error categories (``USER_ERROR`` / ``INTERNAL_ERROR`` /
``INSUFFICIENT_RESOURCES`` / ``EXTERNAL``).  The category decides the
retry policy at every level of the fault-tolerance stack: the
``QueryScheduler`` retries a failing task only when its error is
``retryable`` (INTERNAL_ERROR and EXTERNAL — transient infrastructure
problems), while USER_ERRORs fail fast (re-running a bad query cannot
help) and INSUFFICIENT_RESOURCES escalates instead of retrying (the
paper's answer is falling back to Presto-on-Spark, not a retry loop).
The federation gateway applies the same test when deciding whether to
fail a query over to another cluster.
"""

from __future__ import annotations

import enum


class ErrorCategory(enum.Enum):
    """Presto's standardized error categories (section XII.C)."""

    USER_ERROR = "USER_ERROR"
    INTERNAL_ERROR = "INTERNAL_ERROR"
    INSUFFICIENT_RESOURCES = "INSUFFICIENT_RESOURCES"
    EXTERNAL = "EXTERNAL"

    @property
    def retryable(self) -> bool:
        """Whether a retry can plausibly succeed.

        Transient infrastructure failures (INTERNAL_ERROR, EXTERNAL) are
        retried; USER_ERRORs are deterministic and INSUFFICIENT_RESOURCES
        needs a bigger engine (Presto on Spark), not another attempt.
        """
        return self in (ErrorCategory.INTERNAL_ERROR, ErrorCategory.EXTERNAL)


class PrestoError(Exception):
    """Base class for all engine errors."""

    category: ErrorCategory = ErrorCategory.INTERNAL_ERROR

    @property
    def retryable(self) -> bool:
        return self.category.retryable


class SyntaxError_(PrestoError):
    """SQL text failed to lex or parse.

    Named with a trailing underscore to avoid shadowing the builtin.
    """

    category = ErrorCategory.USER_ERROR

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        location = f" at line {line}:{column}" if line else ""
        super().__init__(f"{message}{location}")


class SemanticError(PrestoError):
    """Query references unknown tables/columns or misuses types."""

    category = ErrorCategory.USER_ERROR


class PlanningError(PrestoError):
    """The optimizer could not produce a valid physical plan."""


class ExecutionError(PrestoError):
    """A task failed at runtime."""


class InsufficientResourcesError(ExecutionError):
    """Query exceeded cluster memory limits (paper section XII.C)."""

    category = ErrorCategory.INSUFFICIENT_RESOURCES

    def __init__(self, message: str = "Insufficient Resources") -> None:
        super().__init__(message)


class AdmissionRejectedError(InsufficientResourcesError):
    """The cluster shed the query at admission (queue over its SLO).

    Carries ``retry_after_ms``, the estimated queue drain time — the
    INSUFFICIENT_RESOURCES category makes the rejection non-retryable
    through the ordinary failover path (re-routing a shed query to the
    same overloaded fleet cannot help); clients back off and resubmit
    after the hint instead.
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class InjectedFaultError(ExecutionError):
    """A failure produced by the deterministic fault injector.

    Carries the category the injector was configured with, so retry
    policies treat an injected fault exactly like the real failure it
    stands in for.
    """

    def __init__(
        self,
        message: str,
        category: ErrorCategory = ErrorCategory.INTERNAL_ERROR,
    ) -> None:
        super().__init__(message)
        self.category = category


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task simulated-time budget."""


class InvalidValueError(ExecutionError):
    """A value made an expression fail at run time.

    Division by zero, a cast of unparseable text, integer overflow —
    Presto's DIVISION_BY_ZERO / INVALID_CAST_ARGUMENT /
    NUMERIC_VALUE_OUT_OF_RANGE, all the query's own fault.
    """

    category = ErrorCategory.USER_ERROR


class EngineDefectError(ExecutionError):
    """A raw (non-Presto) exception escaped a task's operator pipeline.

    Not the user's fault, so it stays INTERNAL_ERROR, but an engine bug
    is deterministic: neither a task retry nor a gateway failover can
    help.  The original exception is the ``__cause__``.
    """

    retryable = False


class SchemaEvolutionError(PrestoError):
    """A schema change violates the company-wide evolution rules (V.A)."""

    category = ErrorCategory.USER_ERROR


class ConnectorError(PrestoError):
    """A connector failed to serve metadata or data."""

    category = ErrorCategory.EXTERNAL


class StorageError(PrestoError):
    """A simulated storage system (HDFS/S3) failed a request."""

    category = ErrorCategory.EXTERNAL


class GatewayError(PrestoError):
    """The federation gateway could not route a query (VIII)."""
