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
