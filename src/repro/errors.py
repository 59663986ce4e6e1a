"""Structured exception taxonomy for the reproduction library.

Every error the library raises on purpose derives from :class:`ReproError`,
so callers (notably the CLI) can distinguish *your input is wrong*
(:class:`SpecValidationError` — fix the spec and rerun) from *the physics
engine lost the plot* (:class:`SolverDivergenceError` — a guard rail
tripped, see ``docs/ROBUSTNESS.md``).

Validation lives on the spec objects themselves (``Technology.validate()``,
``OpenDefect.validate()``, ``SweepGrid.validate()``,
``AnalyzerSpec.validate()``); this module only provides the exception
types and the message formatter they share.  Messages are *actionable*:
they name the spec, the field, the offending value, and the legal range.

The dual inheritance (``ValueError`` / ``ArithmeticError``) keeps
pre-taxonomy ``except ValueError`` call sites working.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ReproError",
    "SpecValidationError",
    "SolverDivergenceError",
    "QuarantinedPointError",
    "InjectionError",
    "QueueFullError",
]


class ReproError(Exception):
    """Base class of every intentional error raised by this library."""


class SpecValidationError(ReproError, ValueError):
    """A spec object (technology, defect, grid, analyzer) is malformed.

    Carries the offending coordinates so tooling can point at the exact
    field: ``spec`` (class name), ``field``, ``value``, ``legal`` (a
    human-readable description of the legal range).
    """

    def __init__(
        self, spec: str, field: str, value: Any, legal: str,
        hint: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.field = field
        self.value = value
        self.legal = legal
        message = f"{spec}.{field} = {value!r} is invalid: must be {legal}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


class SolverDivergenceError(ReproError, ArithmeticError):
    """A numerical guard rail tripped in the RC solver.

    ``guard`` names the tripped check (``"nan"``, ``"rail"``,
    ``"condition"``), ``context`` carries whatever the trip site knew
    (phase signature hash, offending nodes/values, operating point).
    """

    def __init__(self, guard: str, message: str, **context: Any) -> None:
        self.guard = guard
        self.message = message
        self.context = context
        detail = ""
        if context:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
            detail = f" [{pairs}]"
        super().__init__(f"solver guard {guard!r} tripped: {message}{detail}")


class QuarantinedPointError(ReproError):
    """An operation touched a grid point that has been quarantined.

    ``point`` is the :class:`~repro.core.analysis.QuarantinedPoint`
    record describing where and why the solve diverged.
    """

    def __init__(self, point: Any) -> None:
        self.point = point
        super().__init__(f"grid point is quarantined: {point}")


class InjectionError(ReproError):
    """A fault-injection campaign (``repro.inject``) was misconfigured."""


class QueueFullError(ReproError):
    """The sweep service refused a submission: the job queue is full.

    The admission-control path of ``repro.service`` (``docs/SERVICE.md``)
    — the HTTP API maps it to a structured ``429`` response.  Carries
    ``depth`` (jobs currently queued), ``limit`` (the admission bound)
    and ``retry_after`` (a polite back-off hint in seconds).
    """

    def __init__(
        self, depth: int, limit: int, retry_after: float = 1.0
    ) -> None:
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"job queue is full ({depth}/{limit} queued); retry in "
            f"{retry_after:g} s or raise the queue limit"
        )
