"""Synchronous cycle-level Monte-Carlo simulator of the multiprocessor.

The simulator realizes the paper's system model verbatim (Section III
assumptions 1-5): all processors share a memory-cycle clock; each issues
an independent Bernoulli(``r``) request aimed by its request-model row;
stage one resolves memory contention with random per-module arbiters;
stage two assigns buses with the scheme-specific policy; blocked requests
vanish.  Because the analytical formulas (eqs. 4, 6, 9, 12) were derived
under exactly these rules, simulation and closed form must agree within
Monte-Carlo noise wherever the analysis is exact — the validation
experiment (E9) checks precisely that.

Two execution backends share this front end:

* ``"loop"`` — the reference implementation: one Python iteration per
  cycle through the arbitration objects of :mod:`repro.arbitration`.
* ``"vectorized"`` — the NumPy batch backend
  (:mod:`repro.simulation.vectorized`): all cycles resolved as dense
  array operations, one to two orders of magnitude faster; with
  ``views=False`` it counts grants from the requested-module sets alone
  and skips arbitration.
* ``"auto"`` (default) — ``"vectorized"`` whenever the workload and
  topology support it, ``"loop"`` otherwise (custom policies, trace
  replay, fault-degraded topologies).

Both backends derive *separate* request-generation and arbitration RNG
streams from the seed via :class:`numpy.random.SeedSequence`, so for the
same seed they observe bit-identical request streams; per-cycle grant
counts (and hence bandwidth) then agree exactly, which the equivalence
test suite locks down.

When telemetry is enabled (:mod:`repro.obs`), every simulator reports
its resolved backend (with a ``sim.backend_fallback`` event whenever
``"auto"`` silently degrades to the loop), the RNG stream identity of
each run, and cycle/grant/request counters; each run executes inside a
``sim.run`` span.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.arbitration import (
    BusAssignmentPolicy,
    assignment_for,
    priority_assignment_for,
)
from repro.arbitration.memory_arbiter import resolve_memory_contention
from repro.core.priority import ArbitrationSpec
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, SimulationError
from repro.obs.metrics import get_registry, telemetry_enabled
from repro.obs.spans import span
from repro.simulation.metrics import MetricsCollector, SimulationResult
from repro.simulation.priority import (
    PrioritySimulationResult,
    derive_priority_streams,
    run_priority_loop,
    run_priority_vectorized,
)
from repro.simulation.seeds import spawn_seeds
from repro.simulation.vectorized import (
    run_vectorized,
    vectorization_unsupported_reason,
)
from repro.topology.network import MultipleBusNetwork
from repro.workloads.generator import ModelRequestGenerator, RequestGenerator

__all__ = ["MultiprocessorSimulator", "simulate_bandwidth", "derive_streams"]

_BACKENDS = ("auto", "loop", "vectorized")


def derive_streams(
    seed: int | np.random.SeedSequence | None,
) -> tuple[np.random.Generator, np.random.Generator]:
    """Derive the (generation, arbitration) RNG pair from one seed.

    Both backends draw request generation and arbitration randomness
    from two independently spawned children of the same
    :class:`~numpy.random.SeedSequence`, so the request stream a seed
    produces is backend-independent (arbitration never perturbs it).
    Deriving never mutates a ``SeedSequence`` passed in, so the same
    root always yields the same pair.
    """
    generation, arbitration = spawn_seeds(seed, 2)
    return np.random.default_rng(generation), np.random.default_rng(arbitration)


class MultiprocessorSimulator:
    """Cycle-level simulator binding topology, workload and arbitration.

    Parameters
    ----------
    network:
        The interconnection topology (any
        :class:`~repro.topology.MultipleBusNetwork`).
    workload:
        A :class:`~repro.core.request_models.RequestModel` (wrapped
        automatically) or any
        :class:`~repro.workloads.generator.RequestGenerator`.
    policy:
        Optional stage-two bus assignment override; defaults to the
        paper's policy for the network's scheme
        (:func:`repro.arbitration.assignment_for`).  Setting one forces
        the loop backend.
    seed:
        Seed for the simulation's random streams — an int, ``None`` (OS
        entropy) or a :class:`~numpy.random.SeedSequence` (as produced
        by :func:`repro.analysis.parallel.spawn_seeds` for independent
        sweep cells).
    backend:
        ``"auto"`` (default), ``"loop"`` or ``"vectorized"`` — see the
        module docstring.  ``"vectorized"`` raises
        :class:`~repro.exceptions.SimulationError` when the
        workload/topology/policy combination is not vectorizable.
    spec:
        Optional :class:`~repro.core.priority.ArbitrationSpec` enabling
        criticality classes and/or burst tenure.  With a spec,
        :meth:`run` dispatches to the priority backends
        (:mod:`repro.simulation.priority`) and returns a
        :class:`~repro.simulation.priority.PrioritySimulationResult`;
        a custom ``policy`` is incompatible with a spec.
    """

    def __init__(
        self,
        network: MultipleBusNetwork,
        workload: RequestModel | RequestGenerator,
        policy: BusAssignmentPolicy | None = None,
        seed: int | np.random.SeedSequence | None = None,
        backend: str = "auto",
        spec: ArbitrationSpec | None = None,
    ):
        if isinstance(workload, RequestModel):
            workload = ModelRequestGenerator(workload)
        if workload.n_processors != network.n_processors:
            raise SimulationError(
                f"workload has {workload.n_processors} processors but the "
                f"network has {network.n_processors}"
            )
        if workload.n_memories != network.n_memories:
            raise SimulationError(
                f"workload addresses {workload.n_memories} modules but the "
                f"network has {network.n_memories}"
            )
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        custom_policy = policy is not None
        if spec is not None:
            if custom_policy:
                raise SimulationError(
                    "a custom stage-two policy cannot be combined with an "
                    "ArbitrationSpec (priority arbitration provides its "
                    "own policies)"
                )
            if spec.n_classes > network.n_processors:
                raise SimulationError(
                    f"{spec.n_classes} criticality classes for "
                    f"{network.n_processors} processors"
                )
            # Build (and discard) the priority policy eagerly so
            # unsupported topologies fail at construction, like the
            # baseline path does.
            priority_assignment_for(network, spec)
        if policy is None:
            policy = assignment_for(network)
        if policy.n_buses != network.n_buses:
            raise SimulationError(
                f"policy arbitrates {policy.n_buses} buses but the network "
                f"has {network.n_buses}"
            )
        network.validate()

        reason = (
            "a custom stage-two policy is set (only the paper's default "
            "arbiters are vectorized)"
            if custom_policy
            else vectorization_unsupported_reason(network, workload)
        )
        if backend == "vectorized" and reason is not None:
            raise SimulationError(f"backend='vectorized' unavailable: {reason}")
        requested_backend = backend
        if backend == "auto":
            backend = "loop" if reason is not None else "vectorized"

        if telemetry_enabled():
            registry = get_registry()
            registry.increment("sim.backend", backend=backend)
            registry.record_event(
                "sim.backend_selected",
                backend=backend,
                requested=requested_backend,
                scheme=network.scheme,
                N=network.n_processors,
                M=network.n_memories,
                B=network.n_buses,
            )
            if requested_backend == "auto" and reason is not None:
                registry.record_event(
                    "sim.backend_fallback",
                    scheme=network.scheme,
                    reason=reason,
                )

        self._network = network
        self._generator = workload
        self._policy = policy
        self._seed = seed
        self._backend = backend
        self._spec = spec

    @property
    def network(self) -> MultipleBusNetwork:
        """The simulated topology."""
        return self._network

    @property
    def policy(self) -> BusAssignmentPolicy:
        """The stage-two bus assignment policy in use (loop backend)."""
        return self._policy

    @property
    def backend(self) -> str:
        """The resolved execution backend: ``"loop"`` or ``"vectorized"``."""
        return self._backend

    @property
    def spec(self) -> ArbitrationSpec | None:
        """The arbitration spec, or ``None`` for the paper's model."""
        return self._spec

    def run(
        self, n_cycles: int, warmup: int = 0, views: bool = True
    ) -> SimulationResult | PrioritySimulationResult:
        """Simulate ``warmup + n_cycles`` cycles and return statistics.

        Warm-up cycles exercise the arbiters (advancing round-robin
        pointers) without being measured.  Under the paper's drop-blocked
        assumption cycles are independent, so warm-up only matters for
        pointer states; it defaults to zero.

        ``views=False`` asks only for the grant-count statistics: the
        result's ``bus_utilization``, ``module_service_rates`` and
        ``processor_success_rates`` are ``None``, and the vectorized
        backend skips arbitration altogether (see
        :mod:`repro.simulation.vectorized`).  Every other field is
        bit-identical to ``views=True``.  Priority runs always
        arbitrate, so they need ``views=True``.
        """
        if n_cycles < 1:
            raise SimulationError(f"need at least one cycle, got {n_cycles}")
        if warmup < 0:
            raise SimulationError(f"warmup must be >= 0, got {warmup}")
        if not views and self._spec is not None:
            raise SimulationError(
                "priority runs report per-class arbitration; they need views"
            )
        root = (
            self._seed
            if isinstance(self._seed, np.random.SeedSequence)
            else np.random.SeedSequence(self._seed)
        )
        if telemetry_enabled():
            entropy = root.entropy
            get_registry().record_event(
                "sim.rng",
                backend=self._backend,
                scheme=self._network.scheme,
                entropy=(
                    [int(e) for e in entropy]
                    if isinstance(entropy, (list, tuple))
                    else int(entropy) if entropy is not None else None
                ),
                spawn_key=[int(k) for k in root.spawn_key],
            )
        with span(
            "sim.run", backend=self._backend, scheme=self._network.scheme
        ):
            if self._spec is not None:
                streams = derive_priority_streams(root)
                runner = (
                    run_priority_vectorized
                    if self._backend == "vectorized"
                    else run_priority_loop
                )
                result = runner(
                    self._network,
                    self._generator,
                    self._spec,
                    n_cycles,
                    warmup,
                    *streams,
                )
            elif self._backend == "vectorized":
                generation_rng, arbitration_rng = derive_streams(root)
                result = run_vectorized(
                    self._network,
                    self._generator,
                    n_cycles,
                    warmup,
                    generation_rng,
                    arbitration_rng,
                    views=views,
                )
            else:
                generation_rng, arbitration_rng = derive_streams(root)
                result = self._run_loop(
                    n_cycles, warmup, generation_rng, arbitration_rng
                )
                if not views:
                    result = dataclasses.replace(
                        result,
                        bus_utilization=None,
                        module_service_rates=None,
                        processor_success_rates=None,
                    )
        if telemetry_enabled():
            registry = get_registry()
            totals = (
                result.total
                if isinstance(result, PrioritySimulationResult)
                else result
            )
            registry.increment(
                "sim.cycles", totals.n_cycles, backend=self._backend
            )
            if totals.grant_counts is not None:
                registry.increment(
                    "sim.grants",
                    int(sum(totals.grant_counts)),
                    backend=self._backend,
                )
            registry.increment(
                "sim.requests",
                int(round(totals.requests_per_cycle * totals.n_cycles)),
                backend=self._backend,
            )
            if isinstance(result, PrioritySimulationResult):
                registry.increment(
                    "arbitration.runs", discipline=result.discipline
                )
                for cls in range(result.n_classes):
                    registry.increment(
                        "arbitration.class_grants",
                        int(sum(result.per_class_grant_counts[cls])),
                        cls=cls,
                    )
                    registry.increment(
                        "arbitration.starved_cycles",
                        int(result.per_class_starved_cycles[cls]),
                        cls=cls,
                    )
                registry.increment(
                    "arbitration.blocked_tenure",
                    int(sum(result.per_class_blocked_tenure)),
                )
        return result

    def _run_loop(
        self,
        n_cycles: int,
        warmup: int,
        generation_rng: np.random.Generator,
        arbitration_rng: np.random.Generator,
    ) -> SimulationResult:
        """Reference per-cycle implementation."""
        self._policy.reset()
        collector = MetricsCollector(
            self._network.n_processors,
            self._network.n_memories,
            self._network.n_buses,
        )
        n_memories = self._network.n_memories
        for cycle, requests in enumerate(
            self._generator.cycles(warmup + n_cycles, generation_rng)
        ):
            winners = resolve_memory_contention(
                requests, n_memories, arbitration_rng
            )
            grants = self._policy.assign(sorted(winners), arbitration_rng)
            self._check_grants(grants, winners)
            if cycle >= warmup:
                collector.record(requests, winners, grants)
        return collector.result()

    def _check_grants(
        self, grants: dict[int, int], winners: dict[int, int]
    ) -> None:
        """Sanity-check stage two against the connection matrix.

        Every grant must pair a bus with a module actually wired to it and
        actually requested this cycle; a module may hold at most one bus.
        These invariants catch arbitration bugs at the source instead of
        as bandwidth anomalies.
        """
        mbm = self._network.memory_bus_matrix()
        seen_modules: set[int] = set()
        for bus, module in grants.items():
            if module not in winners:
                raise SimulationError(
                    f"bus {bus} granted to module {module} which has no "
                    "outstanding request"
                )
            if not mbm[module, bus]:
                raise SimulationError(
                    f"bus {bus} granted to module {module} which is not "
                    "wired to it"
                )
            if module in seen_modules:
                raise SimulationError(
                    f"module {module} granted more than one bus"
                )
            seen_modules.add(module)


def simulate_bandwidth(
    network: MultipleBusNetwork,
    workload: RequestModel | RequestGenerator,
    n_cycles: int = 20_000,
    seed: int | np.random.SeedSequence | None = 0,
    backend: str = "auto",
    spec: ArbitrationSpec | None = None,
    views: bool = True,
) -> SimulationResult | PrioritySimulationResult:
    """One-call convenience wrapper around :class:`MultiprocessorSimulator`.

    ``views=False`` skips the per-bus/module/processor views (see
    :meth:`MultiprocessorSimulator.run`); callers that read only the
    bandwidth and its interval, like sweep cells, pass it.

    .. warning::
       The default ``seed=0`` makes each call reproducible, but it also
       means *every* default-seeded call shares the same underlying
       random streams: summing or comparing many default-seeded runs
       silently correlates their noise.  For independent replications or
       sweep cells, pass ``seed=None`` (OS entropy) or derive one
       :class:`~numpy.random.SeedSequence` per cell with
       :func:`repro.analysis.parallel.spawn_seeds` — which is exactly
       what the parallel sweep executor does.

    >>> from repro.topology import FullBusMemoryNetwork
    >>> from repro.core import UniformRequestModel
    >>> net = FullBusMemoryNetwork(8, 8, 4)
    >>> res = simulate_bandwidth(net, UniformRequestModel(8, 8), 2000, seed=1)
    >>> 3.0 < res.bandwidth < 4.2
    True
    """
    return MultiprocessorSimulator(
        network, workload, seed=seed, backend=backend, spec=spec
    ).run(n_cycles, views=views)
