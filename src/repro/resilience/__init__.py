"""Execution resilience: the control plane hardening the serving stack.

Four cooperating mechanisms:

* :mod:`~repro.resilience.retry` — deterministic-jitter retry policies
  for crash-tolerant sweeps;
* :mod:`~repro.resilience.deadline` — end-to-end latency budgets
  propagated across HTTP, fabric frames and worker environments;
* :mod:`~repro.resilience.breaker` — circuit breakers converting
  sustained dependency failure into fast typed rejection;
* :mod:`~repro.resilience.brownout` — a criticality-aware overload
  governor walking a degradation ladder (alert → shrink batches
  → shed by class);
* :mod:`~repro.resilience.chaos` — a seeded, deterministic
  fault-injection harness for exercising all of the above.
"""

from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan
from repro.resilience.deadline import (
    DEADLINE_HEADER,
    ENV_DEADLINE_MS,
    Deadline,
    deadline_from_env,
    parse_deadline_header,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "Deadline",
    "DEADLINE_HEADER",
    "ENV_DEADLINE_MS",
    "deadline_from_env",
    "parse_deadline_header",
    "BreakerPolicy",
    "CircuitBreaker",
    "BrownoutGovernor",
    "BrownoutPolicy",
    "FaultPlan",
    "FaultRule",
    "chaos_plan",
]
