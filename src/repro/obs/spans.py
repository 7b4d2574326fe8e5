"""Span-based tracing: nested timed scopes over the active registry.

``span("sweep.cell", scheme="partial", B=8)`` opens a named scope; on
exit it records wall and CPU time both as registry histograms
(``span.<name>.wall_seconds`` / ``span.<name>.cpu_seconds``) and as
ordered ``span_start`` / ``span_end`` events carrying the full nesting
path (``"experiment.table5/sweep.bandwidth"``).  Spans nest through a
thread-local stack, so concurrent sweep threads trace independently.

While telemetry is disabled, :func:`span` returns one shared no-op
context manager without touching the clock or the stack — the same
zero-overhead contract as the null registry.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
)

__all__ = ["span", "current_span_path"]

_local = threading.local()


def _stack() -> list[str]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_span_path() -> str | None:
    """Slash-joined path of the innermost open span, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()
    path = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set_attribute(self, name: str, value: object) -> None:
        """No-op."""


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: records timings and events on the registry."""

    __slots__ = (
        "_registry", "name", "attributes", "path", "_wall", "_cpu",
        "wall_seconds", "cpu_seconds",
    )

    def __init__(
        self, registry: MetricsRegistry, name: str, attributes: dict
    ):
        self._registry = registry
        self.name = name
        self.attributes = attributes
        self.path = name
        self.wall_seconds: float | None = None
        self.cpu_seconds: float | None = None

    def set_attribute(self, name: str, value: object) -> None:
        """Attach one attribute; appears on the ``span_end`` event."""
        self.attributes[name] = value

    def __enter__(self) -> "_Span":
        stack = _stack()
        if stack:
            self.path = f"{stack[-1]}/{self.name}"
        stack.append(self.path)
        self._registry.record_event(
            "span_start", span=self.path, depth=len(stack), **self.attributes
        )
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_seconds = time.perf_counter() - self._wall
        self.cpu_seconds = time.process_time() - self._cpu
        stack = _stack()
        if stack and stack[-1] == self.path:
            stack.pop()
        self._registry.observe(
            f"span.{self.name}.wall_seconds", self.wall_seconds
        )
        self._registry.observe(
            f"span.{self.name}.cpu_seconds", self.cpu_seconds
        )
        fields: dict[str, object] = {
            "span": self.path,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
        }
        if exc_type is not None:
            fields["error"] = exc_type.__name__
        self._registry.record_event("span_end", **fields, **self.attributes)


def span(name: str, **attributes) -> "_Span | _NoopSpan":
    """Open a named, attributed, nested timed scope.

    >>> from repro.obs.metrics import telemetry
    >>> from repro.obs.spans import span
    >>> with telemetry() as registry:
    ...     with span("outer"):
    ...         with span("inner", B=4):
    ...             pass
    >>> [e["span"] for e in registry.events() if e["kind"] == "span_end"]
    ['outer/inner', 'outer']
    """
    registry = get_registry()
    if registry is NULL_REGISTRY:
        return _NOOP_SPAN
    return _Span(registry, name, attributes)
