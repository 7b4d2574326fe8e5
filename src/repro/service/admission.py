"""Admission control: token-bucket rate limiting and queue-depth shedding.

A long-lived query service protects its event loop by refusing work it
cannot absorb *before* the work touches the engine.  Two independent
gates:

* **Token bucket** — sustained rate ``rate_per_second`` with burst
  capacity ``burst``.  An empty bucket sheds with a deterministic
  retry-after hint: exactly the time until the next token accrues, so a
  well-behaved client that waits the hint is admitted (absent new
  contention) rather than bouncing.
* **Queue depth** — when the engine already has ``max_queue_depth``
  requests in flight or queued for a batch window, new work is shed with
  a hint derived from the bucket's refill interval.

Shed requests raise :class:`~repro.exceptions.AdmissionError`; the HTTP
front-end turns that into a 429 envelope with a ``Retry-After`` header,
and :meth:`repro.resilience.retry.RetryPolicy.delay_honoring` folds the hint
into client-side backoff.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.exceptions import AdmissionError, ConfigurationError
from repro.obs.metrics import get_registry

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """Classic token bucket with an injectable monotonic clock.

    Tokens accrue continuously at ``rate_per_second`` up to ``burst``;
    :meth:`try_acquire` either takes one token (returning ``0.0``) or
    returns the seconds until one will be available.
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_second <= 0:
            raise ConfigurationError(
                f"rate_per_second must be positive, got {rate_per_second}"
            )
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self._rate = float(rate_per_second)
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self._burst, self._tokens + elapsed * self._rate)

    def try_acquire(self) -> float:
        """Take one token if available; else the wait until one exists.

        Returns ``0.0`` on success, otherwise the deterministic
        retry-after hint in seconds (never negative, never zero on
        refusal).
        """
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return max((1.0 - self._tokens) / self._rate, 1e-9)

    @property
    def tokens(self) -> float:
        """Tokens currently in the bucket (after refill)."""
        self._refill()
        return self._tokens


class AdmissionController:
    """Gate requests through the bucket and a queue-depth ceiling.

    Parameters
    ----------
    bucket:
        The rate gate; ``None`` disables rate shedding.
    max_queue_depth:
        Largest in-flight/queued request count the engine will accept
        new work on top of; ``None`` disables depth shedding.
    """

    def __init__(
        self,
        bucket: TokenBucket | None = None,
        max_queue_depth: int | None = None,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        self._bucket = bucket
        self._max_queue_depth = max_queue_depth

    @property
    def max_queue_depth(self) -> int | None:
        """The configured depth ceiling (``None`` when disabled)."""
        return self._max_queue_depth

    def admit(self, queue_depth: int = 0) -> None:
        """Admit one request or raise :class:`AdmissionError`.

        ``queue_depth`` is the engine's current in-flight plus queued
        count.  Depth is checked first — a saturated engine sheds even
        when the bucket has tokens, so bursts cannot pile unbounded work
        behind the event loop.
        """
        registry = get_registry()
        if (
            self._max_queue_depth is not None
            and queue_depth >= self._max_queue_depth
        ):
            hint = 1.0 / self._bucket._rate if self._bucket else 0.05
            registry.increment("service.shed", reason="queue_depth")
            raise AdmissionError(
                f"queue depth {queue_depth} at limit "
                f"{self._max_queue_depth}",
                retry_after_seconds=hint,
                reason="queue_depth",
            )
        if self._bucket is not None:
            wait = self._bucket.try_acquire()
            if wait > 0.0:
                registry.increment("service.shed", reason="rate")
                raise AdmissionError(
                    "request rate limit exceeded",
                    retry_after_seconds=wait,
                    reason="rate",
                )
