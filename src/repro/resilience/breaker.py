"""Circuit breakers guarding the service's stateful dependencies.

A :class:`CircuitBreaker` sits in front of a dependency that can fail
collectively — a fabric worker process, the batch-evaluation tier —
and converts sustained failure into *fast, typed rejection* instead of
piled-up timeouts:

* **closed** — calls flow through; failures are folded into a sliding
  window of recent outcomes.
* **open** — once the window holds ``failure_threshold`` failures, the
  breaker trips.  Calls are refused immediately with
  :class:`~repro.exceptions.BreakerOpenError` (→ structured 503 with a
  ``Retry-After`` hint) until the probe delay elapses.
* **half-open** — after the probe delay, exactly one trial call is let
  through.  Success closes the breaker and clears the window; failure
  re-opens it with an exponentially longer probe delay.

Determinism contract: like :class:`repro.resilience.RetryPolicy`, the
probe delay jitter is *hashed*, not drawn — a pure function of
``(breaker name, open count)`` using the same
``sha256(f"{token}:{attempt}")`` construction as ``RetryPolicy.delay``.
Replayed chaos runs trip, probe and recover on the identical schedule,
and breaker state transitions are logged as seq-numbered,
timestamp-free ``breaker.transition`` events so run manifests stay
byte-diffable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.exceptions import BreakerOpenError, ConfigurationError
from repro.obs.metrics import get_registry

__all__ = ["BreakerPolicy", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclasses.dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs of a :class:`CircuitBreaker`.

    Parameters
    ----------
    failure_threshold:
        Number of failures within the sliding window that trips the
        breaker open.
    window_size:
        Number of most-recent call outcomes kept in the sliding window.
        Must be at least ``failure_threshold``.
    probe_delay_seconds:
        Base delay before the first half-open probe after tripping;
        successive re-opens multiply it by ``probe_backoff_factor``.
    probe_backoff_factor:
        Exponential growth of the probe delay across consecutive
        re-opens (``>= 1``).
    jitter_fraction:
        Relative spread of the deterministic probe jitter, hashed from
        ``(name, open count)`` exactly like ``RetryPolicy.delay``.
    max_probe_delay_seconds:
        Upper bound on the (pre-jitter) probe delay.
    """

    failure_threshold: int = 3
    window_size: int = 8
    probe_delay_seconds: float = 0.5
    probe_backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    max_probe_delay_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}"
            )
        if self.window_size < self.failure_threshold:
            raise ConfigurationError(
                f"window_size ({self.window_size}) must be >= "
                f"failure_threshold ({self.failure_threshold})"
            )
        if self.probe_delay_seconds <= 0:
            raise ConfigurationError(
                f"probe_delay_seconds must be positive, got "
                f"{self.probe_delay_seconds}"
            )
        if self.probe_backoff_factor < 1:
            raise ConfigurationError(
                f"probe_backoff_factor must be >= 1, got "
                f"{self.probe_backoff_factor}"
            )
        if not 0 <= self.jitter_fraction <= 1:
            raise ConfigurationError(
                "jitter_fraction must be in [0, 1], got "
                f"{self.jitter_fraction}"
            )
        if self.max_probe_delay_seconds < self.probe_delay_seconds:
            raise ConfigurationError(
                f"max_probe_delay_seconds ({self.max_probe_delay_seconds}) "
                f"must be >= probe_delay_seconds "
                f"({self.probe_delay_seconds})"
            )

    def probe_delay(self, name: str, open_count: int) -> float:
        """Delay before the half-open probe of open period ``open_count``.

        Deterministic: a pure function of ``(policy, name,
        open_count)``, using the same hashed-jitter construction as
        :meth:`repro.resilience.RetryPolicy.delay` so breaker probes and
        retry backoffs replay on identical schedules.
        """
        if open_count < 1:
            raise ConfigurationError(
                f"open_count must be >= 1, got {open_count}"
            )
        base = min(
            self.probe_delay_seconds
            * self.probe_backoff_factor ** (open_count - 1),
            self.max_probe_delay_seconds,
        )
        digest = hashlib.sha256(f"{name}:{open_count}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))


class CircuitBreaker:
    """Closed/open/half-open failure gate around one dependency.

    Thread-safe: the fabric coordinator's reader threads and the asyncio
    service loop may record outcomes concurrently.  All telemetry is
    emitted through :func:`repro.obs.metrics.get_registry`:

    * ``breaker.rejected{name=}`` — calls refused while open;
    * ``breaker.transitions{name=, to=}`` — state-change counter;
    * ``breaker.transition`` events with ``(name, from, to, failures)``.

    Parameters
    ----------
    name:
        Stable identity of the guarded dependency (``fabric.worker.3``,
        ``service.batch``); keys the jitter hash,
        the metrics labels and the manifest section.
    policy:
        The :class:`BreakerPolicy` (defaults are fine for tests).
    clock:
        Injectable monotonic clock, for deterministic tests.
    """

    def __init__(
        self,
        name: str,
        policy: BreakerPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._window: deque[bool] = deque(maxlen=self.policy.window_size)
        self._state = CLOSED
        self._open_count = 0
        self._opened_at = 0.0
        self._probe_delay = 0.0
        self._probe_inflight = False
        self._transitions: list[dict[str, object]] = []

    # -- state inspection ----------------------------------------------

    @property
    def state(self) -> str:
        """Current state, probing the open→half-open edge lazily."""
        with self._lock:
            return self._observed_state()

    def _observed_state(self) -> str:
        # Caller holds the lock.  The open→half-open transition happens
        # lazily on observation: there is no timer thread, so "open with
        # the probe delay elapsed" *is* half-open.
        if self._state == OPEN and self._probe_due():
            self._transition(HALF_OPEN)
        return self._state

    def _probe_due(self) -> bool:
        return self._clock() - self._opened_at >= self._probe_delay

    @property
    def failure_count(self) -> int:
        """Failures currently inside the sliding window."""
        with self._lock:
            return sum(1 for ok in self._window if not ok)

    def retry_after_seconds(self) -> float:
        """Time until the next half-open probe (0.0 unless open)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                0.0, self._opened_at + self._probe_delay - self._clock()
            )

    def transitions(self) -> list[dict[str, object]]:
        """Ordered state transitions (for the manifest ``breaker`` section)."""
        with self._lock:
            return [dict(entry) for entry in self._transitions]

    # -- gating --------------------------------------------------------

    def allow(self) -> bool:
        """True when a call may proceed right now.

        In half-open state only one in-flight probe is allowed; further
        callers are refused until the probe's outcome is recorded.
        """
        with self._lock:
            state = self._observed_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            get_registry().increment("breaker.rejected", breaker=self.name)
            return False

    def check(self) -> None:
        """Raise :class:`BreakerOpenError` unless :meth:`allow` passes."""
        if self.allow():
            return
        raise BreakerOpenError(
            f"circuit breaker {self.name!r} is open",
            name=self.name,
            retry_after_seconds=self.retry_after_seconds(),
        )

    # -- outcome recording ---------------------------------------------

    def record_success(self) -> None:
        """Fold a successful call into the window; may close the breaker."""
        with self._lock:
            self._probe_inflight = False
            if self._observed_state() == HALF_OPEN:
                self._window.clear()
                self._open_count = 0
                self._transition(CLOSED)
            self._window.append(True)

    def record_failure(self) -> None:
        """Fold a failed call into the window; may (re-)open the breaker."""
        with self._lock:
            self._probe_inflight = False
            state = self._observed_state()
            self._window.append(False)
            if state == HALF_OPEN:
                self._open(self._open_count + 1)
            elif state == CLOSED:
                failures = sum(1 for ok in self._window if not ok)
                if failures >= self.policy.failure_threshold:
                    self._open(self._open_count + 1)

    def call(self, func: Callable, *args, **kwargs):
        """Run ``func`` through the breaker gate, recording the outcome."""
        self.check()
        try:
            result = func(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    # -- internals -----------------------------------------------------

    def _open(self, open_count: int) -> None:
        # Caller holds the lock.
        self._open_count = open_count
        self._opened_at = self._clock()
        self._probe_delay = self.policy.probe_delay(self.name, open_count)
        self._transition(OPEN)

    def _transition(self, to_state: str) -> None:
        # Caller holds the lock.
        from_state = self._state
        self._state = to_state
        failures = sum(1 for ok in self._window if not ok)
        # Label key is ``breaker``, not ``name`` — the registry methods
        # take the metric name positionally as ``name``.
        entry = {
            "breaker": self.name,
            "from": from_state,
            "to": to_state,
            "failures": failures,
        }
        self._transitions.append(entry)
        registry = get_registry()
        registry.increment(
            "breaker.transitions", breaker=self.name, to=to_state
        )
        registry.record_event("breaker.transition", **entry)
        registry.set_gauge(
            "breaker.open",
            1.0 if to_state == OPEN else 0.0,
            breaker=self.name,
        )
