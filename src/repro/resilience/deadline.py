"""End-to-end latency budgets that travel with a request.

A :class:`Deadline` is created once at ingress — an HTTP request or a
fabric dispatch — and *decremented by time itself*:
every hop reads the remaining budget off the same monotonic clock, so
passing a deadline across layers costs nothing and can never drift.
Three propagation channels carry the remaining budget between
processes, all expressed in integral milliseconds:

* the ``X-Repro-Deadline-Ms`` HTTP header (:meth:`Deadline.header_value`
  / :func:`parse_deadline_header`) on service requests;
* the ``deadline_ms`` field of fabric HELLO/WORK frames;
* the ``REPRO_DEADLINE_MS`` environment variable
  (:data:`ENV_DEADLINE_MS`) for spawned fabric workers.

Checkpoints call :meth:`Deadline.check` with a site label; an expired
budget raises :class:`~repro.exceptions.DeadlineExceededError`, which
the HTTP front-end maps to a structured 504 envelope — the typed error
never surfaces as a raw traceback.  Waiting paths bound their blocking
calls with :meth:`Deadline.remaining_seconds` so no dependency stall
can hold a request past its budget.
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable

from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.obs.metrics import get_registry

__all__ = [
    "Deadline",
    "ENV_DEADLINE_MS",
    "DEADLINE_HEADER",
    "parse_deadline_header",
    "deadline_from_env",
]

#: Environment variable carrying the remaining budget to worker spawns.
ENV_DEADLINE_MS = "REPRO_DEADLINE_MS"

#: HTTP request header carrying the remaining budget in milliseconds.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Largest accepted budget (one hour): anything bigger is a client bug,
#: and the bound keeps arithmetic on remaining time overflow-free.
MAX_BUDGET_MS = 3_600_000.0


class Deadline:
    """A monotonic latency budget shared by every hop of one request.

    Parameters
    ----------
    budget_ms:
        Total budget in milliseconds, measured from construction.
    clock:
        Injectable monotonic clock (seconds), for deterministic tests.
    """

    __slots__ = ("budget_ms", "_clock", "_expires_at")

    def __init__(
        self,
        budget_ms: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if isinstance(budget_ms, bool) or not isinstance(
            budget_ms, (int, float)
        ):
            raise ConfigurationError(
                f"deadline budget must be a number, got {budget_ms!r}"
            )
        budget_ms = float(budget_ms)
        if not math.isfinite(budget_ms) or budget_ms <= 0:
            raise ConfigurationError(
                f"deadline budget must be positive and finite, got "
                f"{budget_ms}"
            )
        if budget_ms > MAX_BUDGET_MS:
            raise ConfigurationError(
                f"deadline budget {budget_ms}ms exceeds the "
                f"{MAX_BUDGET_MS:.0f}ms ceiling"
            )
        self.budget_ms = budget_ms
        self._clock = clock
        self._expires_at = clock() + budget_ms / 1000.0

    def remaining_seconds(self) -> float:
        """Budget left, in seconds; ``0.0`` once expired (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    def remaining_ms(self) -> float:
        """Budget left, in milliseconds; ``0.0`` once expired."""
        return self.remaining_seconds() * 1000.0

    @property
    def expired(self) -> bool:
        """True once the budget is spent."""
        return self._expires_at <= self._clock()

    def check(self, site: str) -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent.

        ``site`` labels the checkpoint (``service.engine``,
        ``fabric.coordinator``, ...) in the error, the
        ``resilience.deadline_exceeded`` counter and the event log.
        """
        if not self.expired:
            return
        registry = get_registry()
        registry.increment("resilience.deadline_exceeded", site=site)
        registry.record_event(
            "resilience.deadline_exceeded",
            site=site,
            budget_ms=self.budget_ms,
        )
        raise DeadlineExceededError(
            f"deadline of {self.budget_ms:.0f}ms exceeded at {site}",
            site=site,
            budget_ms=self.budget_ms,
        )

    def header_value(self) -> str:
        """Remaining budget as the integral-ms wire string (floor, >= 1).

        Flooring keeps the propagated budget conservative — a downstream
        hop never believes it has more time than the ingress granted —
        while the floor of 1 keeps an about-to-expire deadline
        representable (the receiving hop will observe the expiry
        itself).
        """
        return str(max(1, int(self.remaining_ms())))

    def bounded(self, seconds: float | None) -> float | None:
        """``seconds`` capped to the remaining budget.

        The idiom for bounding blocking waits: ``timeout =
        deadline.bounded(poll_interval)``.  ``None`` means "no local
        bound" and yields the plain remaining time.
        """
        remaining = self.remaining_seconds()
        if seconds is None:
            return remaining
        return min(float(seconds), remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget_ms={self.budget_ms:.0f}, "
            f"remaining_ms={self.remaining_ms():.0f})"
        )


def parse_deadline_header(value: str) -> Deadline:
    """Parse an ``X-Repro-Deadline-Ms`` header into a fresh budget.

    Rejections are typed :class:`~repro.exceptions.ConfigurationError`
    (→ structured 400), so a malformed header can never crash the
    front-end.
    """
    text = value.strip()
    try:
        budget_ms = int(text)
    except ValueError:
        raise ConfigurationError(
            f"header {DEADLINE_HEADER} must be an integer millisecond "
            f"budget, got {value!r}"
        ) from None
    return Deadline(budget_ms)


def deadline_from_env(
    environ: "os._Environ[str] | dict[str, str] | None" = None,
) -> Deadline | None:
    """The deadline advertised by ``REPRO_DEADLINE_MS``, if any.

    Fabric workers call this once at startup; a missing or empty
    variable means no budget (``None``).  A malformed value raises
    :class:`~repro.exceptions.ConfigurationError` — a worker spawned
    with a corrupt budget must fail loudly, not run unbounded.
    """
    env = os.environ if environ is None else environ
    raw = env.get(ENV_DEADLINE_MS, "").strip()
    if not raw:
        return None
    try:
        budget_ms = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_DEADLINE_MS} must be an integer millisecond budget, "
            f"got {raw!r}"
        ) from None
    return Deadline(budget_ms)
