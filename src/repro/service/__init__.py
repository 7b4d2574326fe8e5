"""The bandwidth-query service: a long-lived serving path for the paper.

Everything else in :mod:`repro` is a library call or a batch CLI; this
package turns the analytic engine into an asyncio service that amortizes
the shared pmf cache and the whole-grid kernels across *concurrent*
callers:

* :mod:`repro.service.protocol` — typed queries, JSON parsing through
  the library's :class:`~repro.exceptions.ConfigurationError` path, and
  structured error envelopes.
* :mod:`repro.service.engine` — the three-tier
  :class:`~repro.service.engine.QueryEngine`: result LRU, in-flight
  coalescing map (no thundering herd), and per-tick micro-batching into
  single :func:`~repro.analysis.batch.scheme_bus_profile` grid calls.
* :mod:`repro.service.batching` — the max-delay / max-size
  :class:`~repro.service.batching.BatchWindow` scheduler.
* :mod:`repro.service.admission` — token-bucket admission control and
  queue-depth shedding with deterministic retry-after hints.
* :mod:`repro.service.http` — the stdlib asyncio-streams HTTP front-end
  (``/query``, ``/sweep``, ``/healthz``, ``/metrics``) behind the
  ``repro-serve`` console script (:mod:`repro.service.cli`).
"""
