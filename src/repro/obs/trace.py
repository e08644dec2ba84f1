"""Deterministic span tracing on the simulated clock.

A :class:`QueryTrace` stamps a flat list of :class:`Span` records, with
parent/child links, from the clock a query is charged on (a task's spans
from its stage lane, so a stage's tasks overlap); it charges nothing
itself, and a query's simulated latency is its root's duration.  For a
given seed the serialized trace is byte-identical across runs — span ids
are a per-trace sequence, timestamps come only from deterministic
simulated charges, and serialization sorts every key.

The tree mirrors the paper's execution hierarchy: gateway routing →
cluster admission → stage → task attempt → operator → cache/storage
access.  The currently active trace is discoverable process-wide via
:func:`current_tracer` (a plain stack — the reproduction is single
threaded), which is how deep substrates like the simulated NameNode or S3
client attach storage-access spans to whatever query is running without
threading a tracer argument through every call.

``critical_path`` follows the chain of latest-ending spans from the root
down; each entry's *contribution* is its span's duration minus the chosen
child's, so the contributions telescope to exactly the root span's
duration — for a staged query, the total simulated milliseconds.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.common.clock import SimulatedClock


@dataclass
class Span:
    """One timed interval of a query's execution."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ms: float
    end_ms: Optional[float] = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return (self.end_ms if self.end_ms is not None else self.start_ms) - self.start_ms

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attributes": dict(self.attributes),
        }


@dataclass
class CriticalPathEntry:
    """One hop of the critical path: a span and its exclusive contribution."""

    span: Span
    contribution_ms: float


class QueryTrace:
    """A deterministic span tree stamped from a simulated clock."""

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()

    def now_ms(self) -> float:
        return self.clock.now_ms()

    # -- span recording -------------------------------------------------------

    def _open(self, name: str, attributes: dict) -> Span:
        stack = self._stack
        span = Span(
            next(self._ids),
            stack[-1].span_id if stack else None,
            name,
            self.clock.now_ms(),
            None,
            attributes,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the current span; closes on exit (or error)."""
        span = self._open(name, attributes)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_ms = self.now_ms()

    def instant(self, name: str, **attributes: Any) -> Span:
        """A zero-duration span at the current simulated time."""
        span = self._open(name, attributes)
        span.end_ms = span.start_ms
        return span

    # -- manual span management ----------------------------------------------
    #
    # The context-manager form assumes the span's whole lifetime fits one
    # Python scope.  Steppable execution (the concurrent scheduler) opens a
    # query/stage span in one step and closes it many steps later, so these
    # expose the same push/pop the context manager performs, explicitly.

    def open_span(self, name: str, **attributes: Any) -> Span:
        """Open a span that stays open across calls; pair with close_span."""
        span = self._open(name, attributes)
        self._stack.append(span)
        return span

    def close_span(self, span: Span) -> Span:
        """Close a span opened by :meth:`open_span`, stamping its end time."""
        if span in self._stack:
            # Normally the top of the stack; removing by identity tolerates
            # an error path closing an outer span before inner cleanup ran.
            self._stack.remove(span)
        if span.end_ms is None:
            span.end_ms = self.now_ms()
        return span

    def add_span(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Record a completed span with explicit timestamps.

        Unlike :meth:`span`, the interval is caller-provided, so recorded
        spans may overlap — how the cluster timeline shows many queries in
        flight at once on the shared simulated clock.
        """
        span = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_ms=start_ms,
            end_ms=end_ms,
            attributes=attributes,
        )
        self.spans.append(span)
        return span

    @property
    def root(self) -> Optional[Span]:
        return self.spans[0] if self.spans else None

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]

    # -- critical path --------------------------------------------------------

    def critical_path(self, span: Optional[Span] = None) -> list[CriticalPathEntry]:
        """The chain of latest-ending spans from ``span`` (default root) down.

        Each entry's contribution is its duration minus the chosen child's,
        so the contributions sum exactly to the starting span's duration.
        A stage's tasks overlap on their lanes; the latest-ending one, the
        last task of the most-loaded lane, is the one the stage waited for.
        """
        current = span if span is not None else self.root
        if current is None:
            return []
        path: list[CriticalPathEntry] = []
        while True:
            kids = [c for c in self.children(current) if c.end_ms is not None]
            if not kids:
                path.append(CriticalPathEntry(current, current.duration_ms))
                return path
            chosen = max(kids, key=lambda c: (c.end_ms, c.span_id))
            path.append(
                CriticalPathEntry(current, current.duration_ms - chosen.duration_ms)
            )
            current = chosen

    def critical_path_ms(self, span: Optional[Span] = None) -> float:
        return sum(entry.contribution_ms for entry in self.critical_path(span))

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": [span.to_dict() for span in self.spans]}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON: sorted keys, spans in creation order."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, default=repr)


# -- active-trace discovery ----------------------------------------------------

_ACTIVE: list[QueryTrace] = []


def maybe_span(tracer: Optional[QueryTrace], name: str, **attributes: Any):
    """``tracer.span(name, **attributes)``, or nothing without a tracer."""
    return nullcontext() if tracer is None else tracer.span(name, **attributes)


def current_tracer() -> Optional[QueryTrace]:
    """The innermost active trace, or None outside any traced request."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(tracer: QueryTrace) -> Iterator[QueryTrace]:
    """Make ``tracer`` discoverable via :func:`current_tracer`."""
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
