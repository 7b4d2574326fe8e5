"""Criticality-aware overload governor (brownout ladder).

Under sustained overload a serving system has exactly two honest
choices: degrade gracefully or fall over.  The
:class:`BrownoutGovernor` implements the first, watching two pressure
signals — engine queue depth and the p95 of recent request latencies —
and walking a *degradation ladder* one rung per evaluation:

=====  =============================================================
level  behavior
=====  =============================================================
0      normal service
1      **alert** — pressure is recorded (gauge, transition event)
       but nothing degrades yet: every answer is still exact
2      **shrink batch windows** (smaller max size, shorter max
       delay) so queued work drains in smaller, faster bites
3+     ... and **shed** queries by *descending criticality class*:
       the highest class number (least critical) sheds first; class
       0 (most critical, per the PR 8 criticality model) is never
       shed by brownout
=====  =============================================================

Recovery is hysteretic: stepping up happens the moment either signal
crosses its high threshold, but stepping down requires
``recovery_updates`` consecutive calm evaluations — an oscillating
load cannot make the ladder flap.  Hysteresis is counted in
*evaluations*, not wall-clock, so governor behavior in tests and
replayed chaos runs is deterministic.

The governor keeps its own latency ring buffer because
:class:`repro.obs.metrics.HistogramSummary` is a count/sum/min/max
stream with no percentiles.  Shedding is accounted per class as
``brownout.shed{cls=...}``; ladder moves are ``brownout.transition``
events (seq-numbered, timestamp-free) plus a ``brownout.level`` gauge.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque

from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_registry

__all__ = ["BrownoutPolicy", "BrownoutGovernor"]


@dataclasses.dataclass(frozen=True)
class BrownoutPolicy:
    """Thresholds and shape of the degradation ladder.

    Parameters
    ----------
    criticality_classes:
        Number of criticality classes (``0`` = most critical .. ``n-1``
        = least).  The ladder tops out at ``2 + (n - 1)`` — one shed
        rung per class except class 0, which brownout never sheds.
    queue_high / queue_low:
        Queue-depth thresholds for stepping up / counting recovery.
    p95_high_seconds / p95_low_seconds:
        Latency-p95 thresholds for stepping up / counting recovery.
    latency_window:
        Ring-buffer size for the p95 estimate.
    recovery_updates:
        Consecutive calm evaluations required before stepping down one
        rung (the hysteresis).
    batch_shrink_factor:
        Multiplier applied to batch max-size and max-delay at level 2+
        (``0 < factor < 1``).
    """

    criticality_classes: int = 4
    queue_high: int = 16
    queue_low: int = 4
    p95_high_seconds: float = 0.5
    p95_low_seconds: float = 0.1
    latency_window: int = 128
    recovery_updates: int = 3
    batch_shrink_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.criticality_classes < 1:
            raise ConfigurationError(
                f"criticality_classes must be >= 1, got "
                f"{self.criticality_classes}"
            )
        if self.queue_high < 1:
            raise ConfigurationError(
                f"queue_high must be >= 1, got {self.queue_high}"
            )
        if not 0 <= self.queue_low <= self.queue_high:
            raise ConfigurationError(
                f"queue_low must be in [0, queue_high], got "
                f"{self.queue_low}"
            )
        if self.p95_high_seconds <= 0:
            raise ConfigurationError(
                f"p95_high_seconds must be positive, got "
                f"{self.p95_high_seconds}"
            )
        if not 0 <= self.p95_low_seconds <= self.p95_high_seconds:
            raise ConfigurationError(
                f"p95_low_seconds must be in [0, p95_high_seconds], got "
                f"{self.p95_low_seconds}"
            )
        if self.latency_window < 1:
            raise ConfigurationError(
                f"latency_window must be >= 1, got {self.latency_window}"
            )
        if self.recovery_updates < 1:
            raise ConfigurationError(
                f"recovery_updates must be >= 1, got "
                f"{self.recovery_updates}"
            )
        if not 0 < self.batch_shrink_factor < 1:
            raise ConfigurationError(
                f"batch_shrink_factor must be in (0, 1), got "
                f"{self.batch_shrink_factor}"
            )

    @property
    def max_level(self) -> int:
        """Top rung: 2 (alert + shrink) plus one shed rung per
        sheddable class (every class except 0)."""
        return 2 + (self.criticality_classes - 1)

    def shed_floor(self, level: int) -> int | None:
        """Lowest criticality class number shed at ``level``.

        ``None`` below level 3 (nothing sheds).  At level 3 only the
        highest class number sheds; each further rung sheds one more
        class downward, stopping above class 0.
        """
        if level < 3:
            return None
        floor = self.criticality_classes - (level - 2)
        return max(1, floor)


class BrownoutGovernor:
    """Hysteretic ladder walker over queue-depth and p95 pressure.

    Thread-safe; designed to be evaluated once per request.  Each
    evaluation is a few comparisons: two running counts over the ring
    (samples below ``p95_high_seconds``, samples at or below
    ``p95_low_seconds``) locate the p95 against both thresholds without
    ordering the ring.  The p95 itself is sorted out only for
    :meth:`latency_p95` and for the ``p95_ms`` of a recorded ladder move.
    """

    def __init__(self, policy: BrownoutPolicy | None = None) -> None:
        self.policy = policy if policy is not None else BrownoutPolicy()
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(
            maxlen=self.policy.latency_window
        )
        self._below_high = 0
        self._at_or_below_low = 0
        self._level = 0
        self._calm_streak = 0
        self._transitions: list[dict[str, object]] = []

    # -- pressure inputs -----------------------------------------------

    def observe_latency(self, seconds: float) -> None:
        """Fold one request latency into the p95 ring buffer."""
        seconds = float(seconds)
        high = self.policy.p95_high_seconds
        low = self.policy.p95_low_seconds
        with self._lock:
            ring = self._latencies
            if len(ring) == ring.maxlen:
                evicted = ring[0]
                self._below_high -= evicted < high
                self._at_or_below_low -= evicted <= low
            ring.append(seconds)
            self._below_high += seconds < high
            self._at_or_below_low += seconds <= low

    def latency_p95(self) -> float:
        """Current p95 over the ring buffer (0.0 when empty)."""
        with self._lock:
            return self._p95_locked()

    def _p95_index_locked(self) -> int:
        n = len(self._latencies)
        return min(max(0, int(0.95 * n) - (n >= 20)), n - 1)

    def _p95_locked(self) -> float:
        if not self._latencies:
            return 0.0
        return sorted(self._latencies)[self._p95_index_locked()]

    # -- ladder evaluation ---------------------------------------------

    def evaluate(self, queue_depth: int) -> int:
        """Walk the ladder one step given current pressure; return level.

        Steps up immediately when queue depth or p95 crosses its high
        threshold; steps down only after ``recovery_updates``
        consecutive evaluations below both low thresholds.
        """
        policy = self.policy
        with self._lock:
            # With the ring sorted and p95 = ordered[index]:
            # p95 >= high exactly when at most ``index`` samples lie
            # below ``high``, and p95 <= low exactly when more than
            # ``index`` samples lie at or below ``low``.  An empty ring
            # (index -1) reads as p95 = 0.0: never hot, always calm.
            index = self._p95_index_locked()
            hot = (
                queue_depth >= policy.queue_high
                or self._below_high <= index
            )
            calm = (
                queue_depth <= policy.queue_low
                and self._at_or_below_low > index
            )
            if hot:
                self._calm_streak = 0
                if self._level < policy.max_level:
                    self._move(self._level + 1, queue_depth)
            elif calm and self._level > 0:
                self._calm_streak += 1
                if self._calm_streak >= policy.recovery_updates:
                    self._calm_streak = 0
                    self._move(self._level - 1, queue_depth)
            else:
                self._calm_streak = 0
            return self._level

    def _move(self, level: int, queue_depth: int) -> None:
        # Caller holds the lock.
        previous = self._level
        self._level = level
        entry = {
            "from": previous,
            "to": level,
            "queue_depth": queue_depth,
            "p95_ms": round(self._p95_locked() * 1000.0, 3),
        }
        self._transitions.append(entry)
        registry = get_registry()
        registry.set_gauge("brownout.level", float(level))
        registry.increment(
            "brownout.transitions",
            direction="up" if level > previous else "down",
        )
        registry.record_event("brownout.transition", **entry)

    # -- degradation queries -------------------------------------------

    @property
    def level(self) -> int:
        """Current ladder level."""
        with self._lock:
            return self._level

    @property
    def shrink_batches(self) -> bool:
        """Level 2+: shrink batch windows."""
        with self._lock:
            return self._level >= 2

    def batch_limits(
        self, max_size: int, max_delay: float
    ) -> tuple[int, float]:
        """Batch-window limits honoring the current level.

        At level 2+ both are scaled by ``batch_shrink_factor`` (size
        floors at 1) so queued work drains in smaller, faster bites.
        """
        if not self.shrink_batches:
            return max_size, max_delay
        factor = self.policy.batch_shrink_factor
        return max(1, int(max_size * factor)), max_delay * factor

    def should_shed(self, criticality: int) -> bool:
        """True when brownout sheds class ``criticality`` right now.

        Class 0 is never shed by brownout.  Shedding is accounted per
        class on ``brownout.shed{cls=...}``.
        """
        if criticality <= 0:
            return False
        with self._lock:
            floor = self.policy.shed_floor(self._level)
        if floor is None or criticality < floor:
            return False
        get_registry().increment("brownout.shed", cls=criticality)
        return True

    def transitions(self) -> list[dict[str, object]]:
        """Ordered ladder moves (for the manifest ``brownout`` section)."""
        with self._lock:
            return [dict(entry) for entry in self._transitions]
