"""Priority/burst backends: criticality classes and multi-cycle tenure.

This module extends both simulator backends with the two effects of
:class:`~repro.core.priority.ArbitrationSpec`:

* **criticality classes** — each issued request draws a class label from
  the spec's class mix; stage one arbitrates by composite key
  (:func:`~repro.arbitration.memory_arbiter.stage_one_composite`) and
  stage two by the deterministic ``Priority*Assignment`` policies.
* **burst tenure** — a granted request holds its bus *and* its module
  for ``L`` cycles (fixed, or geometric with mean ``L``); requests
  aimed at an in-service module are dropped and counted, preserving the
  paper's blocked-requests-dropped semantics across tenure.

Backend equivalence is *bit-exact by construction*: both backends draw
the four RNG streams (:func:`derive_priority_streams`) with identical
NumPy calls, compute the same composite stage-one keys, and hand the
same candidate lists to the *same* deterministic stage-two policy
classes, so per-class per-cycle grant arrays agree element-wise.  The
shared :func:`_cycle_step` realizes one cycle's bookkeeping for both.

With one class and unit tenure the grant *counts* reduce to the
baseline simulator's exactly: every stage-two policy grants as many
requests onto the same bus positions as its baseline counterpart, and
the request stream (generation stream) is untouched.  The differential
test wall pins this degenerate equality per scheme and per discipline.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.arbitration import PriorityBusPolicy, priority_assignment_for
from repro.arbitration.memory_arbiter import (
    resolve_prioritized,
    stage_one_composite,
)
from repro.core.priority import ArbitrationSpec
from repro.exceptions import SimulationError
from repro.simulation.metrics import SimulationResult, result_from_arrays
from repro.simulation.seeds import spawn_seeds
from repro.simulation.vectorized import _CHUNK
from repro.topology.network import MultipleBusNetwork
from repro.workloads.generator import ModelRequestGenerator, RequestGenerator

__all__ = [
    "PrioritySimulationResult",
    "derive_priority_streams",
    "run_priority_loop",
    "run_priority_vectorized",
]


def derive_priority_streams(
    seed: int | np.random.SeedSequence | None,
) -> tuple[
    np.random.Generator,
    np.random.Generator,
    np.random.Generator,
    np.random.Generator,
]:
    """Derive (generation, arbitration, class, tenure) RNG streams.

    The first two children coincide with
    :func:`~repro.simulation.engine.derive_streams`'s — a spawned
    child's key depends on its index, not on how many siblings are
    spawned — so a priority run observes the *same request stream* as a
    baseline run of the same seed.  Class labels and burst lengths come
    from the two extra streams, leaving generation and arbitration
    draws undisturbed.
    """
    return tuple(
        np.random.default_rng(child) for child in spawn_seeds(seed, 4)
    )


@dataclasses.dataclass(frozen=True)
class PrioritySimulationResult:
    """Per-class statistics of one priority/burst simulation run.

    Attributes
    ----------
    total:
        The class-blind :class:`~repro.simulation.metrics.SimulationResult`
        view — ``bandwidth`` counts grant *starts* per cycle and
        ``bus_utilization`` measures occupied bus-cycles, so under
        tenure ``L > 1`` utilization exceeds ``bandwidth / B``.
    discipline, class_weights, tenure, tenure_dist:
        The :class:`~repro.core.priority.ArbitrationSpec` echoed back.
    per_class_bandwidth:
        Grant starts per cycle for each class (sums to
        ``total.bandwidth``).
    per_class_requests_per_cycle:
        Issued requests per cycle per class.
    per_class_acceptance:
        Fraction of each class's issued requests granted a bus.
    per_class_mean_grant_latency:
        Mean bus-cycles a granted request of the class holds its bus
        (``1.0`` exactly when ``tenure == 1``).
    per_class_starved_cycles:
        Measured cycles in which the class had at least one stage-two
        candidate but received no grant — the starvation counter strict
        priority is expected to inflate for low classes.
    per_class_blocked_stage_one:
        Requests that lost their per-module arbitration.
    per_class_blocked_tenure:
        Requests dropped because their module was mid-burst.
    per_class_grant_counts:
        Per-measured-cycle grant starts per class — the backend-agnostic
        fingerprint the equivalence tests compare element-wise.
    """

    total: SimulationResult
    discipline: str
    class_weights: tuple[float, ...]
    tenure: float
    tenure_dist: str
    per_class_bandwidth: tuple[float, ...]
    per_class_requests_per_cycle: tuple[float, ...]
    per_class_acceptance: tuple[float, ...]
    per_class_mean_grant_latency: tuple[float, ...]
    per_class_starved_cycles: tuple[int, ...]
    per_class_blocked_stage_one: tuple[int, ...]
    per_class_blocked_tenure: tuple[int, ...]
    per_class_grant_counts: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        """Number of criticality classes ``K``."""
        return len(self.class_weights)


class _PriorityAccumulator:
    """Shared per-class counters both priority backends fill."""

    def __init__(
        self,
        n_classes: int,
        n_cycles: int,
        n_processors: int,
        n_memories: int,
        n_buses: int,
    ):
        self.grant_counts = np.zeros((n_classes, n_cycles), dtype=np.int64)
        self.issued = np.zeros(n_classes, dtype=np.int64)
        self.blocked_stage_one = np.zeros(n_classes, dtype=np.int64)
        self.blocked_tenure = np.zeros(n_classes, dtype=np.int64)
        self.starved = np.zeros(n_classes, dtype=np.int64)
        self.latency_sum = np.zeros(n_classes, dtype=np.int64)
        self.bus_busy = np.zeros(n_buses, dtype=np.int64)
        self.module_served = np.zeros(n_memories, dtype=np.int64)
        self.processor_served = np.zeros(n_processors, dtype=np.int64)


class _TenureState:
    """Bus and module occupancy horizons (cycle index, exclusive)."""

    def __init__(self, n_buses: int, n_memories: int):
        self.bus_until = np.zeros(n_buses, dtype=np.int64)
        self.mod_until = np.zeros(n_memories, dtype=np.int64)


def _burst_length(spec: ArbitrationSpec, draw: float | None) -> int:
    """Cycles one grant holds its bus: fixed ``L`` or a geometric draw.

    The geometric inverse transform ``1 + floor(log1p(-u) / log1p(-p))``
    with ``p = 1/L`` has mean ``L`` and support ``{1, 2, ...}``.
    """
    if spec.tenure_dist == "fixed":
        return int(spec.tenure)
    if spec.tenure <= 1.0:
        return 1
    return 1 + int(
        math.floor(math.log1p(-draw) / math.log1p(-1.0 / spec.tenure))
    )


def _class_labels(
    draws: np.ndarray | None, cumulative: np.ndarray, n_classes: int
) -> np.ndarray:
    """Map uniform draws to class labels via the mix's inverse CDF.

    Same idiom as the request generator's destination pick, so label
    streams are reproducible across backends by row-major RNG parity.
    """
    labels = (draws[..., None] >= cumulative).sum(axis=-1)
    return np.minimum(labels, n_classes - 1)


def _cycle_step(
    t: int,
    warmup: int,
    end: int,
    issues_row: np.ndarray,
    chosen_row: np.ndarray,
    labels_row: np.ndarray,
    winner_row: np.ndarray,
    policy: PriorityBusPolicy,
    spec: ArbitrationSpec,
    tenure_row: np.ndarray | None,
    state: _TenureState,
    acc: _PriorityAccumulator,
) -> None:
    """Advance one cycle: drops, stage two, tenure state, counters.

    Both backends call this with identical inputs (same request row,
    same composite stage-one winners, same policy object), so every
    counter they accumulate is bit-identical.
    """
    measured = t >= warmup
    requesters = np.flatnonzero(issues_row)
    modules = chosen_row[requesters]
    labels = labels_row[requesters]
    if measured:
        np.add.at(acc.issued, labels, 1)

    busy_module = state.mod_until > t
    dropped = busy_module[modules]
    if measured and dropped.any():
        np.add.at(acc.blocked_tenure, labels[dropped], 1)

    requested = np.zeros(len(busy_module), dtype=bool)
    requested[modules] = True
    candidate_modules = np.flatnonzero(requested & ~busy_module)
    candidate_classes = labels_row[winner_row[candidate_modules]]
    if measured:
        np.add.at(acc.blocked_stage_one, labels[~dropped], 1)
        np.add.at(acc.blocked_stage_one, candidate_classes, -1)

    candidates = [
        (int(module), int(cls))
        for module, cls in zip(candidate_modules, candidate_classes)
    ]
    free_buses = [int(b) for b in np.flatnonzero(state.bus_until <= t)]
    grants = policy.assign(candidates, free_buses)

    class_of = dict(candidates)
    granted_classes: set[int] = set()
    for bus, module in sorted(grants.items()):
        draw = None if tenure_row is None else float(tenure_row[bus])
        length = _burst_length(spec, draw)
        state.bus_until[bus] = t + length
        state.mod_until[module] = t + length
        overlap = min(t + length, end) - max(t, warmup)
        if overlap > 0:
            acc.bus_busy[bus] += overlap
        if measured:
            cls = class_of[module]
            acc.grant_counts[cls, t - warmup] += 1
            acc.module_served[module] += 1
            acc.processor_served[winner_row[module]] += 1
            acc.latency_sum[cls] += length
            granted_classes.add(cls)
    if measured:
        for cls in set(int(c) for c in candidate_classes) - granted_classes:
            acc.starved[cls] += 1


def _finalize(
    spec: ArbitrationSpec, acc: _PriorityAccumulator
) -> PrioritySimulationResult:
    """Reduce accumulated counters into a result object."""
    n = acc.grant_counts.shape[1]
    grants = acc.grant_counts.sum(axis=1)
    total = result_from_arrays(
        acc.grant_counts.sum(axis=0),
        int(acc.issued.sum()),
        acc.bus_busy,
        acc.module_served,
        acc.processor_served,
    )
    acceptance = tuple(
        float(g / i) if i else 0.0 for g, i in zip(grants, acc.issued)
    )
    latency = tuple(
        float(s / g) if g else 0.0 for s, g in zip(acc.latency_sum, grants)
    )
    return PrioritySimulationResult(
        total=total,
        discipline=spec.discipline,
        class_weights=spec.class_weights,
        tenure=spec.tenure,
        tenure_dist=spec.tenure_dist,
        per_class_bandwidth=tuple(float(g / n) for g in grants),
        per_class_requests_per_cycle=tuple(
            float(i / n) for i in acc.issued
        ),
        per_class_acceptance=acceptance,
        per_class_mean_grant_latency=latency,
        per_class_starved_cycles=tuple(int(s) for s in acc.starved),
        per_class_blocked_stage_one=tuple(
            int(b) for b in acc.blocked_stage_one
        ),
        per_class_blocked_tenure=tuple(
            int(b) for b in acc.blocked_tenure
        ),
        per_class_grant_counts=tuple(
            tuple(int(g) for g in row) for row in acc.grant_counts
        ),
    )


def run_priority_loop(
    network: MultipleBusNetwork,
    generator: RequestGenerator,
    spec: ArbitrationSpec,
    n_cycles: int,
    warmup: int,
    generation_rng: np.random.Generator,
    arbitration_rng: np.random.Generator,
    class_rng: np.random.Generator,
    tenure_rng: np.random.Generator,
) -> PrioritySimulationResult:
    """Reference per-cycle priority/burst backend."""
    policy = priority_assignment_for(network, spec)
    policy.reset()
    n_processors = network.n_processors
    n_memories = network.n_memories
    n_buses = network.n_buses
    n_classes = spec.n_classes
    cumulative = np.cumsum(np.asarray(spec.class_weights))
    geometric = spec.tenure_dist == "geometric"
    end = warmup + n_cycles
    acc = _PriorityAccumulator(
        n_classes, n_cycles, n_processors, n_memories, n_buses
    )
    state = _TenureState(n_buses, n_memories)
    zero_labels = np.zeros(n_processors, dtype=np.int64)
    for t, requests in enumerate(generator.cycles(end, generation_rng)):
        keys = arbitration_rng.random(n_processors)
        if n_classes > 1:
            labels_row = _class_labels(
                class_rng.random(n_processors), cumulative, n_classes
            )
        else:
            labels_row = zero_labels
        tenure_row = tenure_rng.random(n_buses) if geometric else None
        composite = stage_one_composite(keys, labels_row, spec)
        winners = resolve_prioritized(requests, n_memories, composite)
        winner_row = np.full(n_memories, -1, dtype=np.int64)
        for module, processor in winners.items():
            winner_row[module] = processor
        issues_row = np.zeros(n_processors, dtype=bool)
        chosen_row = np.zeros(n_processors, dtype=np.int64)
        for processor, module in requests:
            issues_row[processor] = True
            chosen_row[processor] = module
        _cycle_step(
            t,
            warmup,
            end,
            issues_row,
            chosen_row,
            labels_row,
            winner_row,
            policy,
            spec,
            tenure_row,
            state,
            acc,
        )
    return _finalize(spec, acc)


def run_priority_vectorized(
    network: MultipleBusNetwork,
    generator: ModelRequestGenerator,
    spec: ArbitrationSpec,
    n_cycles: int,
    warmup: int,
    generation_rng: np.random.Generator,
    arbitration_rng: np.random.Generator,
    class_rng: np.random.Generator,
    tenure_rng: np.random.Generator,
) -> PrioritySimulationResult:
    """Chunked priority/burst backend.

    Request generation, class labels, composite keys and stage-one
    winners resolve as whole-chunk array operations (a request dropped
    for a busy module never contends at another module, so whole-chunk
    stage one stays valid under tenure); the per-cycle remainder —
    stage two through the deterministic priority policies plus tenure
    state — is inherently sequential and shares :func:`_cycle_step`
    with the loop backend.
    """
    if not isinstance(generator, ModelRequestGenerator):
        raise SimulationError(
            "the vectorized priority backend needs a request-model "
            f"workload, got {type(generator).__name__}"
        )
    policy = priority_assignment_for(network, spec)
    policy.reset()
    n_processors = network.n_processors
    n_memories = network.n_memories
    n_buses = network.n_buses
    n_classes = spec.n_classes
    cumulative = np.cumsum(np.asarray(spec.class_weights))
    geometric = spec.tenure_dist == "geometric"
    total = warmup + n_cycles
    end = total
    acc = _PriorityAccumulator(
        n_classes, n_cycles, n_processors, n_memories, n_buses
    )
    state = _TenureState(n_buses, n_memories)
    processors = np.arange(n_processors)

    produced = 0
    while produced < total:
        chunk = min(_CHUNK, total - produced)
        issues, chosen = generator.request_arrays(chunk, generation_rng)
        keys = arbitration_rng.random((chunk, n_processors))
        if n_classes > 1:
            labels = _class_labels(
                class_rng.random((chunk, n_processors)),
                cumulative,
                n_classes,
            )
        else:
            labels = np.zeros((chunk, n_processors), dtype=np.int64)
        tenure_draws = (
            tenure_rng.random((chunk, n_buses)) if geometric else None
        )

        composite = stage_one_composite(keys, labels, spec)
        flat = np.arange(chunk)[:, None] * n_memories + chosen
        active_flat = flat[issues]
        max_composite = np.full(chunk * n_memories, -np.inf)
        np.maximum.at(max_composite, active_flat, composite[issues])
        winning = issues & (composite == max_composite[flat])
        winner = np.full(chunk * n_memories, -1, dtype=np.int64)
        winner[flat[winning]] = np.broadcast_to(
            processors, (chunk, n_processors)
        )[winning]
        winner = winner.reshape(chunk, n_memories)

        for i in range(chunk):
            _cycle_step(
                produced + i,
                warmup,
                end,
                issues[i],
                chosen[i],
                labels[i],
                winner[i],
                policy,
                spec,
                None if tenure_draws is None else tenure_draws[i],
                state,
                acc,
            )
        produced += chunk
    return _finalize(spec, acc)
