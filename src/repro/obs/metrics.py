"""Process-wide metrics: counters, gauges, histograms, timers, events.

The registry is the single sink every instrumented hot path writes to —
the pmf cache, both simulation backends, the batched analytic engine,
the sweep drivers and the parallel executor.  Telemetry is *opt-in*:
the process starts with the :data:`NULL_REGISTRY` installed, whose
mutation methods are all no-ops, so disabled telemetry costs one
attribute lookup and one no-op call per instrumentation point (the
analytic benchmark guards this).  :func:`enable_telemetry` swaps in a
live :class:`MetricsRegistry`; :func:`telemetry` does so for the
duration of a ``with`` block.

Metrics are keyed by ``(name, labels)`` where labels are keyword
arguments (``registry.increment("analysis.cells_skipped",
scheme="partial", reason="group_divides_buses")``), mirroring the
Prometheus data model so the text exporter is a straight dump.  Events
(:meth:`MetricsRegistry.record_event`) are ordered dicts with a
monotonic sequence number and *no wall-clock timestamp* — the JSON-lines
event log and the run manifests stay diffable across runs.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
    "telemetry",
]

#: Metric key: ``(name, (("label", "value"), ...))`` with sorted labels.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, object]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


@dataclasses.dataclass
class HistogramSummary:
    """Streaming summary of observed values (count/sum/min/max)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class _Timer:
    """Context manager recording a wall-clock duration into a histogram."""

    __slots__ = ("_registry", "_name", "_labels", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict):
        self._registry = registry
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.observe(
            self._name, time.perf_counter() - self._start, **self._labels
        )


class _NoopTimer:
    """Shared do-nothing timer handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_TIMER = _NoopTimer()


class MetricsRegistry:
    """Thread-safe store of counters, gauges, histograms and events.

    All mutation methods accept keyword labels; ``(name, labels)`` pairs
    identify one time series, exactly as in Prometheus.  Snapshots
    (:meth:`counters`, :meth:`gauges`, :meth:`histograms`,
    :meth:`events`) return plain copies safe to hold across further
    mutation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, HistogramSummary] = {}
        self._events: list[dict[str, object]] = []
        self._seq = 0

    # -- mutation ------------------------------------------------------

    def increment(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` (default 1) to the counter ``(name, labels)``."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``(name, labels)`` to ``value``."""
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Fold ``value`` into the histogram ``(name, labels)``."""
        key = _key(name, labels)
        with self._lock:
            summary = self._histograms.get(key)
            if summary is None:
                summary = self._histograms[key] = HistogramSummary()
            summary.observe(float(value))

    def time_block(self, name: str, **labels) -> _Timer:
        """Context manager timing its block into histogram ``name``.

        >>> registry = MetricsRegistry()
        >>> with registry.time_block("demo.seconds", stage="warm"):
        ...     pass
        >>> registry.histograms()[("demo.seconds", (("stage", "warm"),))].count
        1
        """
        return _Timer(self, name, labels)

    def record_event(self, kind: str, **fields) -> None:
        """Append an ordered event (no timestamp — sequence number only)."""
        with self._lock:
            self._seq += 1
            self._events.append({"seq": self._seq, "kind": kind, **fields})

    # -- snapshots -----------------------------------------------------

    def counters(self) -> dict[MetricKey, float]:
        """Copy of every counter series."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[MetricKey, float]:
        """Copy of every gauge series."""
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> dict[MetricKey, HistogramSummary]:
        """Copy of every histogram series (summaries are copied too)."""
        with self._lock:
            return {
                key: dataclasses.replace(summary)
                for key, summary in self._histograms.items()
            }

    def events(self) -> list[dict[str, object]]:
        """Copy of the ordered event log."""
        with self._lock:
            return [dict(event) for event in self._events]

    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter series (0 when never touched)."""
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label combinations."""
        with self._lock:
            return sum(
                value
                for (metric, _), value in self._counters.items()
                if metric == name
            )

    def clear(self) -> None:
        """Drop every metric and event."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._events.clear()
            self._seq = 0


class NullRegistry(MetricsRegistry):
    """A registry whose mutation methods do nothing.

    Installed while telemetry is disabled (the default), so hot paths
    can call the registry unconditionally; snapshots are always empty.
    """

    def increment(self, name: str, value: float = 1, **labels) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def time_block(self, name: str, **labels) -> _NoopTimer:
        return _NOOP_TIMER

    def record_event(self, kind: str, **fields) -> None:
        pass


#: The process-wide disabled-telemetry sink.
NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY
_swap_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The active registry (:data:`NULL_REGISTRY` while disabled)."""
    return _active


def telemetry_enabled() -> bool:
    """True when a live (non-null) registry is installed."""
    return _active is not NULL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide sink; return the old one."""
    global _active
    with _swap_lock:
        previous = _active
        _active = registry
    return previous


def enable_telemetry(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) a live registry — a fresh one by default."""
    if registry is None:
        registry = MetricsRegistry()
    set_registry(registry)
    return registry


def disable_telemetry() -> None:
    """Restore the no-op :data:`NULL_REGISTRY`."""
    set_registry(NULL_REGISTRY)


@contextmanager
def telemetry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Enable telemetry for a ``with`` block, restoring the prior sink.

    >>> from repro.obs.metrics import telemetry
    >>> with telemetry() as registry:
    ...     registry.increment("demo.count")
    >>> registry.counter_value("demo.count")
    1
    """
    if registry is None:
        registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
