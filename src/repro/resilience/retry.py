"""Retry policies with deterministic jitter for the sweep executors.

Million-cell availability grids run for hours across worker processes;
a single transient failure (a killed worker, a failing cell, a corrupt
cache file) must cost one retry, not the whole sweep.  This module
defines the policy object used by the serial
:func:`repro.analysis.parallel.parallel_map` (per-cell retries) and the
fabric coordinator (re-sharding the cells of a dead worker or a failed
slice).

Determinism contract: backoff jitter is *hashed*, not drawn.  The delay
before attempt ``k`` of a cell is a pure function of ``(policy, token,
k)`` — reruns of a flaky sweep wait the same amount of time, logs line
up across machines, and no retry ever touches the NumPy RNG streams
that make sweep records bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.exceptions import ConfigurationError

__all__ = ["RetryPolicy"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, to retry a failing unit of work.

    Parameters
    ----------
    max_attempts:
        Total tries including the first one; ``1`` disables retries.
    backoff_seconds:
        Delay before the first retry; subsequent retries multiply it by
        ``backoff_factor``.
    backoff_factor:
        Exponential growth factor of the backoff (``>= 1``).
    jitter_fraction:
        Relative spread of the deterministic jitter: the delay for
        attempt ``k`` is scaled by a factor in
        ``[1 - jitter_fraction, 1 + jitter_fraction]`` hashed from the
        retry token — fixed across reruns, decorrelated across cells.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0 <= self.jitter_fraction <= 1:
            raise ConfigurationError(
                "jitter_fraction must be in [0, 1], got "
                f"{self.jitter_fraction}"
            )

    def should_retry(self, attempt: int) -> bool:
        """True when attempt number ``attempt`` (1-based) may be retried."""
        return attempt < self.max_attempts

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before the retry following failed attempt ``attempt``.

        Deterministic: equal ``(attempt, token)`` pairs always produce
        the same delay (see the module docstring).
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff_seconds * self.backoff_factor ** (attempt - 1)
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))

    def delay_honoring(
        self, attempt: int, token: str = "", retry_after: float = 0.0
    ) -> float:
        """Backoff that also honors a server-supplied retry-after hint.

        The bandwidth-query service sheds load with a deterministic
        ``retry_after_seconds`` hint (429 envelopes carry it as
        ``error.retry_after_s`` and a ``Retry-After`` header).  A client
        retrying under this policy should wait at least that long — this
        returns ``max(delay(attempt, token), retry_after)``, keeping the
        policy's determinism while never hammering a shedding server
        before it asked to be called again.
        """
        if retry_after < 0:
            raise ConfigurationError(
                f"retry_after must be >= 0, got {retry_after}"
            )
        return max(self.delay(attempt, token), float(retry_after))

