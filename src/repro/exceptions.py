"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while letting programming errors (``TypeError`` from bad API usage, etc.)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """A system was configured with structurally invalid parameters.

    Examples: a multiple bus network with more buses than memory modules,
    a partial bus network whose group count does not divide the bus count,
    or a K-class network with ``K > B``.

    Also subclasses :class:`ValueError`: these are invalid argument
    values, so callers written against the standard library idiom
    (``except ValueError``) keep working while library-aware callers can
    catch the precise type.
    """


class ModelError(ReproError, ValueError):
    """A request model was constructed with invalid probabilities.

    Examples: request fractions that do not sum to one, a negative request
    rate, or a hierarchy whose cluster sizes do not factor the machine size.

    Subclasses :class:`ValueError` for the same reason as
    :class:`ConfigurationError`.
    """


class SimulationError(ReproError):
    """The Monte-Carlo simulator was driven with inconsistent inputs.

    Examples: a request model whose dimensions do not match the topology,
    or a non-positive cycle count.
    """


class FaultError(ReproError):
    """A fault-injection request was invalid.

    Examples: failing a bus index that does not exist, or failing every bus
    of a network and then asking for its bandwidth.
    """


class ExperimentError(ReproError):
    """An experiment harness was asked for an unknown table or figure."""


class ServiceError(ReproError):
    """The bandwidth-query service could not serve a request.

    Base class for failures of the serving layer itself (admission,
    transport, request framing) as opposed to failures of the underlying
    model or configuration, which keep their own types.
    """


class QueryTooLargeError(ServiceError, ValueError):
    """A query asked for more work than the service is willing to batch.

    Examples: a sweep whose bus-count vector exceeds the configured cell
    limit, or an HTTP request body larger than the framing cap.  Maps to
    HTTP 413 in the front-end.
    """


class AdmissionError(ServiceError):
    """The service shed a request before doing any work.

    Raised by the token-bucket/queue-depth admission controller.  Carries
    a deterministic ``retry_after_seconds`` hint that clients can feed to
    :meth:`repro.resilience.retry.RetryPolicy.delay_honoring` (and that the
    HTTP front-end surfaces as a ``Retry-After`` header on the 429
    envelope), plus the shed ``reason`` (``"rate"`` or ``"queue_depth"``).
    """

    def __init__(self, message: str, retry_after_seconds: float = 0.0,
                 reason: str = "rate"):
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)
        self.reason = reason


class DeadlineExceededError(ServiceError):
    """A request ran out of its end-to-end latency budget.

    Raised wherever a :class:`repro.resilience.deadline.Deadline` is
    checked: the query engine before/while computing and the fabric
    coordinator while dispatching or re-sharding.  Maps to a structured
    HTTP 504 envelope in the front-end — never a raw traceback.
    ``site`` names the checkpoint that observed the expiry and
    ``budget_ms`` the original budget.
    """

    def __init__(self, message: str, site: str = "",
                 budget_ms: float | None = None):
        super().__init__(message)
        self.site = site
        self.budget_ms = budget_ms


class BreakerOpenError(ServiceError):
    """A circuit breaker refused a call because its dependency is down.

    Raised by :meth:`repro.resilience.breaker.CircuitBreaker.call` (and
    the guarded dispatch paths) while the breaker is open and no probe
    is due.  Carries the breaker ``name`` and a deterministic
    ``retry_after_seconds`` hint — the time until the next half-open
    probe — which the HTTP front-end surfaces as a ``Retry-After``
    header on the 503 envelope.
    """

    def __init__(self, message: str, name: str = "",
                 retry_after_seconds: float = 0.0):
        super().__init__(message)
        self.name = name
        self.retry_after_seconds = float(retry_after_seconds)


class ServiceStoppingError(ServiceError):
    """The service is shutting down and will not take or finish work.

    Raised for new requests arriving after graceful shutdown began and
    used to *complete* (rather than abandon) every in-flight coalesced
    waiter.  Maps to a structured HTTP 503 envelope.
    """


class ChaosError(ReproError):
    """A failure injected on purpose by an active chaos fault plan.

    Raised by :func:`repro.resilience.chaos.inject` for ``error`` rules
    so injected failures are distinguishable from organic ones in logs,
    metrics and breaker accounting.
    """


class RetryExhaustedError(ReproError):
    """A retried operation kept failing through its whole retry budget.

    Raised by the fabric coordinator
    (:class:`~repro.fabric.coordinator.FabricCoordinator`) once its
    :class:`~repro.resilience.retry.RetryPolicy`'s ``max_attempts`` is
    spent on a slice.  Cells already gathered stay in its result cache;
    the failing cells' errors are in the ``fabric.cell_error`` events.
    """

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts
