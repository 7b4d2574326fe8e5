"""repro — multiple bus interconnection network performance analysis.

A faithful, production-oriented reproduction of:

    Wen-Tsuen Chen and Jang-Ping Sheu,
    "Performance Analysis of Multiple Bus Interconnection Networks with
    Hierarchical Requesting Model", ICDCS 1988.

Every name is imported from the module that defines it; the package
``__init__`` files hold only their docstrings, so importing one module
loads only what that module needs.  Quickstart::

    from repro.analysis.evaluate import analytic_bandwidth
    from repro.core.hierarchy import paper_two_level_model
    from repro.simulation.engine import simulate_bandwidth
    from repro.topology.full import FullBusMemoryNetwork

    net = FullBusMemoryNetwork(16, 16, 8)
    model = paper_two_level_model(16, rate=1.0)
    print(analytic_bandwidth(net, model))      # closed form, eq. (4)
    print(simulate_bandwidth(net, model))      # Monte-Carlo cross-check

Package map:

* :mod:`repro.core` — request models (uniform / Das-Bhuyan favourite /
  hierarchical) and the closed-form bandwidth equations (1)-(12).
* :mod:`repro.topology` — the four bus-memory connection schemes plus the
  crossbar, with the Table I cost model.
* :mod:`repro.arbitration` — the two-stage arbitration substrate.
* :mod:`repro.simulation` — synchronous cycle-level Monte-Carlo simulator.
* :mod:`repro.workloads` — generators, traces, task-graph assignment.
* :mod:`repro.faults` — static bus fault injection, degraded-mode and
  availability-weighted bandwidth analysis.
* :mod:`repro.resilience` — retry policies for crash-tolerant execution.
* :mod:`repro.analysis` — sweeps, cross-scheme comparison, table rendering.
* :mod:`repro.experiments` — reproduction of every paper table and figure.
* :mod:`repro.obs` — opt-in telemetry: metrics registry, spans, run
  manifests.  Off by default with zero overhead.
* :mod:`repro.service` — the asyncio bandwidth-query service: result
  LRU, in-flight request coalescing, per-tick micro-batching into the
  whole-grid kernels, token-bucket admission control and an HTTP
  front-end (``repro-serve``).
* :mod:`repro.fabric` — the forked coordinator/worker sweep executor
  behind ``repro-fabric``.
"""

__version__ = "1.0.0"
