"""repro — multiple bus interconnection network performance analysis.

A faithful, production-oriented reproduction of:

    Wen-Tsuen Chen and Jang-Ping Sheu,
    "Performance Analysis of Multiple Bus Interconnection Networks with
    Hierarchical Requesting Model", ICDCS 1988.

Quickstart::

    from repro import (
        FullBusMemoryNetwork, paper_two_level_model, analytic_bandwidth,
        simulate_bandwidth,
    )

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
"""

from repro.analysis import (
    analytic_bandwidth,
    bandwidth_sweep,
    bandwidth_sweep_with_skips,
    bus_count_sweep,
    bus_count_sweep_with_skips,
    bus_utilization_profile,
    compare_schemes,
    min_buses_for_bandwidth,
    min_buses_for_crossbar_fraction,
    paper_model_pair,
    rate_for_crossbar_fraction,
    render_matrix,
    render_table,
    scheme_bus_profile,
    tail_excess_all_buses,
)
from repro.core import (
    FavoriteMemoryRequestModel,
    HierarchicalRequestModel,
    MatrixRequestModel,
    RequestModel,
    UniformRequestModel,
    bandwidth_crossbar,
    bandwidth_full,
    bandwidth_kclass,
    bandwidth_partial,
    bandwidth_single,
    exact_bandwidth,
    paper_two_level_model,
    pmf_cache,
    solve_resubmission_equilibrium,
)
from repro.exceptions import (
    AdmissionError,
    BreakerOpenError,
    ChaosError,
    ConfigurationError,
    DeadlineExceededError,
    ExperimentError,
    FaultError,
    ModelError,
    QueryTooLargeError,
    ReproError,
    RetryExhaustedError,
    ServiceError,
    ServiceStoppingError,
    SimulationError,
)
from repro.faults import (
    AvailabilityPoint,
    DegradedNetwork,
    availability_curve,
    degradation_curve,
    expected_bandwidth_under_failures,
    fail_buses,
    scheme_availability_curves,
    verify_fault_tolerance_degree,
)
from repro.obs import (
    MetricsRegistry,
    build_manifest,
    disable_telemetry,
    enable_telemetry,
    events_jsonl,
    get_registry,
    prometheus_text,
    span,
    telemetry,
    telemetry_enabled,
    write_manifest,
)
from repro.resilience import (
    BreakerPolicy,
    BrownoutGovernor,
    BrownoutPolicy,
    CircuitBreaker,
    Deadline,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    chaos_plan,
)
from repro.service import (
    AdmissionController,
    BandwidthService,
    Query,
    QueryEngine,
    ServiceLimits,
    TokenBucket,
)
from repro.simulation import (
    MultiprocessorSimulator,
    ResubmissionSimulator,
    SimulationResult,
    simulate_bandwidth,
)
from repro.topology import (
    CrossbarNetwork,
    FullBusMemoryNetwork,
    KClassPartialBusNetwork,
    MultipleBusNetwork,
    PartialBusNetwork,
    SingleBusMemoryNetwork,
    build_network,
    cost_report,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "SimulationError",
    "FaultError",
    "ExperimentError",
    "RetryExhaustedError",
    "ServiceError",
    "QueryTooLargeError",
    "AdmissionError",
    "BreakerOpenError",
    "ChaosError",
    "DeadlineExceededError",
    "ServiceStoppingError",
    # request models
    "RequestModel",
    "MatrixRequestModel",
    "UniformRequestModel",
    "FavoriteMemoryRequestModel",
    "HierarchicalRequestModel",
    "paper_two_level_model",
    "paper_model_pair",
    # closed forms
    "bandwidth_full",
    "bandwidth_single",
    "bandwidth_partial",
    "bandwidth_kclass",
    "bandwidth_crossbar",
    "analytic_bandwidth",
    "exact_bandwidth",
    # topologies
    "MultipleBusNetwork",
    "FullBusMemoryNetwork",
    "SingleBusMemoryNetwork",
    "PartialBusNetwork",
    "KClassPartialBusNetwork",
    "CrossbarNetwork",
    "build_network",
    "cost_report",
    # simulation
    "MultiprocessorSimulator",
    "SimulationResult",
    "simulate_bandwidth",
    "ResubmissionSimulator",
    "solve_resubmission_equilibrium",
    # faults
    "DegradedNetwork",
    "fail_buses",
    "verify_fault_tolerance_degree",
    "degradation_curve",
    "AvailabilityPoint",
    "expected_bandwidth_under_failures",
    "availability_curve",
    "scheme_availability_curves",
    # resilience
    "RetryPolicy",
    "Deadline",
    "BreakerPolicy",
    "CircuitBreaker",
    "BrownoutPolicy",
    "BrownoutGovernor",
    "FaultPlan",
    "FaultRule",
    "chaos_plan",
    # service
    "Query",
    "ServiceLimits",
    "QueryEngine",
    "TokenBucket",
    "AdmissionController",
    "BandwidthService",
    # analysis
    "bandwidth_sweep",
    "bandwidth_sweep_with_skips",
    "bus_count_sweep",
    "bus_count_sweep_with_skips",
    "scheme_bus_profile",
    "tail_excess_all_buses",
    "pmf_cache",
    "compare_schemes",
    "render_table",
    "render_matrix",
    "min_buses_for_bandwidth",
    "min_buses_for_crossbar_fraction",
    "rate_for_crossbar_fraction",
    "bus_utilization_profile",
    # observability
    "MetricsRegistry",
    "get_registry",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry",
    "telemetry_enabled",
    "span",
    "events_jsonl",
    "prometheus_text",
    "build_manifest",
    "write_manifest",
]
