"""Telemetry subsystem: metrics, spans, exporters and run manifests.

The observability layer for the whole stack.  Hot paths (the pmf cache,
both simulation backends, the batched analytic engine, the sweep
drivers, the parallel executor) report into a process-wide
:class:`~repro.obs.metrics.MetricsRegistry`; :func:`~repro.obs.spans.span`
traces nested timed scopes; the exporters turn a registry into a
JSON-lines event log, a Prometheus text dump, or a diffable per-run
``manifest.json``.

Telemetry is disabled by default and *zero-overhead when disabled*: the
installed registry is a shared no-op and
:func:`~repro.obs.spans.span` returns a shared no-op context manager.
Enable it per run::

    from repro.obs.manifest import write_manifest
    from repro.obs.metrics import telemetry
    from repro.obs.spans import span

    with telemetry() as registry:
        with span("my.run", scheme="partial"):
            ...  # any repro work: sweeps, simulations, experiments
        write_manifest(registry, "out/manifest.json", run={"name": "demo"})

or process-wide with :func:`~repro.obs.metrics.enable_telemetry` /
:func:`~repro.obs.metrics.disable_telemetry` (the experiment CLI's
``--telemetry PATH`` does exactly this around each experiment).
"""
