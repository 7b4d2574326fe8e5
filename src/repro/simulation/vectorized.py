"""Vectorized NumPy batch backend for the Monte-Carlo simulator.

The loop backend (:mod:`repro.simulation.engine`) executes one Python
iteration per cycle; this module resolves *all* cycles of a run as dense
array operations instead.

**Grant counts.**  Under the paper's blocked-requests-dropped rule the
number of requests a cycle serves depends only on *which* modules were
requested, for every work-conserving arbiter.  So the backend's core
path is three array steps per chunk of cycles:

* draw requests — every Bernoulli issue and destination pick for the
  chunk comes from one block of RNG draws
  (:meth:`~repro.workloads.generator.ModelRequestGenerator.request_arrays`,
  consuming the generation stream bit-identically to the loop backend);
* form the ``(cycles, M)`` requested-module matrix;
* apply the scheme's served-count rule,
  :func:`repro.core.exact.served_counts` — the same function exact
  enumeration applies to the subset lattice.

That yields the per-cycle grant counts, hence bandwidth, confidence
interval and acceptance probability, bit-identical to the loop backend
for the same seed.  ``run_vectorized(..., views=False)`` stops there:
it is what sweep cells run, since their records read nothing else.

**Arbitration, only for views.**  Per-bus, per-module and
per-processor views need to know *who* won, so with ``views=True`` (the
default) every chunk also resolves the two arbitration stages from the
separate arbitration stream:

* stage one — per-module memory contention: each request draws a
  uniform key and the winner of every ``(cycle, module)`` cell is the
  requester holding the maximum key (uniform among requesters, exactly
  the loop arbiter's distribution);
* stage two — scheme-specific bus assignment for the full, single,
  g-group partial and K-class connection schemes plus the crossbar.

:func:`check_batch_invariants` then verifies every grant and that the
assigner's per-cycle counts equal the served-count rule, so each
views-on run is also a differential check of the rule.  Bus
utilization matches the loop backend exactly; the fairness views (which
processor/module wins) differ only in distributionally-equivalent ways.
The equivalence test suite pins all of this down.

Use it through ``MultiprocessorSimulator(..., backend="vectorized")`` or
``simulate_bandwidth(..., backend="vectorized")``; the default
``backend="auto"`` selects it automatically whenever the workload and
topology are supported.  Fault-degraded topologies
(:class:`~repro.faults.injection.DegradedNetwork`) have no stage-two
assigner here, so ``"auto"`` runs them on the loop backend.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.exact import served_counts
from repro.exceptions import SimulationError
from repro.obs.metrics import get_registry
from repro.simulation.metrics import SimulationResult, result_from_arrays
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.network import MultipleBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork
from repro.workloads.generator import ModelRequestGenerator, RequestGenerator

__all__ = [
    "BatchTrace",
    "run_vectorized",
    "check_batch_invariants",
    "vectorization_unsupported_reason",
]

#: Cycles resolved per vectorized chunk.  Bounds peak memory to
#: ``O(_CHUNK * max(N, M))`` regardless of run length; a multiple of the
#: request generator's draw block (1024) so chunked and per-cycle
#: consumption observe the same generation RNG stream.
_CHUNK = 8192


@dataclasses.dataclass(frozen=True)
class BatchTrace:
    """Dense per-cycle arrays of one vectorized run (for tests/analysis).

    Attributes
    ----------
    issues:
        ``(C, N)`` bool — processor issued a request this cycle.
    chosen:
        ``(C, N)`` int64 — module addressed (valid where ``issues``).
    requested:
        ``(C, M)`` bool — module had at least one request.
    request_counts:
        ``(C, M)`` int64 — number of requests per module.
    winner:
        ``(C, M)`` int64 — stage-one winning processor, ``-1`` if the
        module was not requested.
    grant_module:
        ``(C, B)`` int64 — module served by each bus, ``-1`` if idle.
    """

    issues: np.ndarray
    chosen: np.ndarray
    requested: np.ndarray
    request_counts: np.ndarray
    winner: np.ndarray
    grant_module: np.ndarray


def vectorization_unsupported_reason(
    network: MultipleBusNetwork, generator: RequestGenerator
) -> str | None:
    """Why ``(network, generator)`` cannot run vectorized, or ``None``.

    The vectorized backend covers the paper's five structured schemes
    driven by a request-model workload; arbitrary generators (e.g. trace
    replay) and unstructured topologies (e.g. fault-degraded networks,
    which need the matching arbiter) fall back to the loop backend.
    """
    if not isinstance(generator, ModelRequestGenerator):
        return (
            f"workload {type(generator).__name__} is not a "
            "ModelRequestGenerator (only request-model workloads are "
            "vectorized)"
        )
    if not isinstance(network, _SCHEMES):
        return (
            f"scheme {network.scheme!r} has no vectorized stage-two "
            "arbiter (only full/single/partial/kclass/crossbar do)"
        )
    return None


# ---------------------------------------------------------------------------
# Grant counts: the requested-module matrix
# ---------------------------------------------------------------------------


def _requested_matrix(
    issues: np.ndarray, chosen: np.ndarray, n_memories: int
) -> np.ndarray:
    """``(C, M)`` bool: the module had at least one request this cycle.

    Requests that were not issued are aimed at a spare column ``M``,
    which is dropped, so one flat scatter marks every cell.
    """
    n_cycles = issues.shape[0]
    width = n_memories + 1
    target = np.where(issues, chosen, n_memories)
    target += (np.arange(n_cycles) * width)[:, None]
    requested = np.zeros(n_cycles * width, dtype=bool)
    requested[target] = True
    return requested.reshape(n_cycles, width)[:, :n_memories]


# ---------------------------------------------------------------------------
# Stage one: all-cycles memory contention
# ---------------------------------------------------------------------------


def _resolve_stage_one(
    issues: np.ndarray,
    chosen: np.ndarray,
    n_memories: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve per-module contention for every cycle of a chunk.

    Returns ``(requested, request_counts, winner)`` with shapes
    ``(C, M)``.  Winner selection: every active request draws a uniform
    key; the maximum key per ``(cycle, module)`` cell wins, which is
    uniform over that cell's requesters — the same distribution as the
    loop backend's :class:`~repro.arbitration.memory_arbiter.MemoryArbiter`.
    """
    n_cycles, n_processors = issues.shape
    flat = np.arange(n_cycles)[:, None] * n_memories + chosen
    active_flat = flat[issues]
    request_counts = np.bincount(
        active_flat, minlength=n_cycles * n_memories
    ).reshape(n_cycles, n_memories)
    requested = request_counts > 0

    keys = rng.random((n_cycles, n_processors))
    max_key = np.full(n_cycles * n_memories, -1.0)
    np.maximum.at(max_key, active_flat, keys[issues])
    winning = issues & (keys == max_key[flat])
    winner = np.full(n_cycles * n_memories, -1, dtype=np.int64)
    processors = np.broadcast_to(
        np.arange(n_processors), (n_cycles, n_processors)
    )
    winner[flat[winning]] = processors[winning]
    return requested, request_counts, winner.reshape(n_cycles, n_memories)


# ---------------------------------------------------------------------------
# Stage two: vectorized scheme-specific bus assignment
# ---------------------------------------------------------------------------


def _top_requested(
    requested: np.ndarray, keys: np.ndarray, n_slots: int
) -> np.ndarray:
    """Serve up to ``n_slots`` requested columns, highest key first.

    Returns ``(C, n_slots)`` column indices with ``-1`` in unused slots.
    Slot ``s`` is filled iff at least ``s + 1`` columns are requested, so
    the *set of busy slots* depends only on the request count — the
    property that makes vectorized bus utilization match the loop
    backend's enumerate-order grants bit for bit.
    """
    masked = np.where(requested, keys, -1.0)
    order = np.argsort(-masked, axis=1)[:, :n_slots]
    n_requested = np.minimum(requested.sum(axis=1), n_slots)
    ranks = np.arange(n_slots)[None, :]
    return np.where(ranks < n_requested[:, None], order, -1)


def _assign_full(
    network: FullBusMemoryNetwork,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """``B``-out-of-``M`` arbitration: a uniform subset of winners."""
    keys = rng.random(requested.shape)
    return _top_requested(requested, keys, network.n_buses)


def _assign_crossbar(
    network: CrossbarNetwork,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """No contention: every requested module served, in module order."""
    n_cycles, n_memories = requested.shape
    n_buses = network.n_buses
    # Ascending module order mirrors the loop policy's sorted() input;
    # keys stay positive so they sort strictly above the -1 idle mark.
    keys = np.broadcast_to(
        np.arange(n_memories, 0, -1, dtype=float), (n_cycles, n_memories)
    )
    return _top_requested(requested, keys, n_buses)


def _assign_partial(
    network: PartialBusNetwork,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent ``B/g``-out-of-``M/g`` arbitration per group."""
    n_cycles = requested.shape[0]
    mg = network.modules_per_group
    bg = network.buses_per_group
    keys = rng.random(requested.shape)
    grant = np.full((n_cycles, network.n_buses), -1, dtype=np.int64)
    for group in range(network.n_groups):
        local = _top_requested(
            requested[:, group * mg : (group + 1) * mg],
            keys[:, group * mg : (group + 1) * mg],
            bg,
        )
        grant[:, group * bg : (group + 1) * bg] = np.where(
            local >= 0, local + group * mg, -1
        )
    return grant


def _assign_single(
    network: SingleBusMemoryNetwork,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each bus independently serves one of its requested modules."""
    n_cycles = requested.shape[0]
    bus_of_module = np.asarray(network.bus_of_module)
    keys = rng.random(requested.shape)
    grant = np.full((n_cycles, network.n_buses), -1, dtype=np.int64)
    for bus in range(network.n_buses):
        attached = np.flatnonzero(bus_of_module == bus)
        if attached.size == 0:
            continue
        masked = np.where(
            requested[:, attached], keys[:, attached], -1.0
        )
        best = masked.argmax(axis=1)
        served = masked[np.arange(n_cycles), best] >= 0.0
        grant[:, bus] = np.where(served, attached[best], -1)
    return grant


def _assign_kclass(
    network: KClassPartialBusNetwork,
    requested: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """The two-step K-class procedure of Lang et al., all cycles at once.

    Step one packs each class's selected modules against its private
    high bus end (class ``C_j`` reaches buses ``0 .. j + B - K - 1``);
    step two resolves per-bus contention between classes with a random
    pick.  The busy-bus *set* each cycle depends only on the per-class
    request counts, so grant counts match the loop implementation
    exactly.
    """
    n_cycles = requested.shape[0]
    n_buses = network.n_buses
    n_classes = network.n_classes
    class_of_module = np.asarray(network.class_of_module)
    select_keys = rng.random(requested.shape)
    bus_keys = rng.random((n_classes, n_cycles, n_buses))

    candidates = np.full((n_classes, n_cycles, n_buses), -1, dtype=np.int64)
    for cls in range(1, n_classes + 1):
        members = np.flatnonzero(class_of_module == cls)
        if members.size == 0:
            continue
        width = cls + n_buses - n_classes
        sub = requested[:, members]
        masked = np.where(sub, select_keys[:, members], -1.0)
        order = np.argsort(-masked, axis=1)
        selected = np.minimum(sub.sum(axis=1), width)
        for rank in range(min(width, members.size)):
            bus = width - 1 - rank
            module = members[order[:, rank]]
            candidates[cls - 1, :, bus] = np.where(
                rank < selected, module, -1
            )

    contenders = np.where(candidates >= 0, bus_keys, -1.0)
    winning_class = contenders.argmax(axis=0)
    cycle_index = np.arange(n_cycles)[:, None]
    bus_index = np.arange(n_buses)[None, :]
    grant = candidates[winning_class, cycle_index, bus_index]
    served = contenders[winning_class, cycle_index, bus_index] >= 0.0
    return np.where(served, grant, -1)


_ASSIGNERS = (
    (CrossbarNetwork, _assign_crossbar),
    (KClassPartialBusNetwork, _assign_kclass),
    (PartialBusNetwork, _assign_partial),
    (SingleBusMemoryNetwork, _assign_single),
    (FullBusMemoryNetwork, _assign_full),
)

#: The schemes with a vectorized stage two (and a served-count rule).
_SCHEMES = tuple(network_type for network_type, _ in _ASSIGNERS)


def _assigner_for(network: MultipleBusNetwork):
    for network_type, assigner in _ASSIGNERS:
        if isinstance(network, network_type):
            return assigner
    raise SimulationError(
        f"scheme {network.scheme!r} has no vectorized stage-two arbiter"
    )


# ---------------------------------------------------------------------------
# Invariants and the backend entry point
# ---------------------------------------------------------------------------


def check_batch_invariants(
    network: MultipleBusNetwork,
    requested: np.ndarray,
    winner: np.ndarray,
    grant_module: np.ndarray,
) -> None:
    """Vectorized counterpart of the loop engine's grant sanity checks.

    Verifies, over every cycle at once, that each grant pairs a bus with
    a module wired to it and requested this cycle (with a stage-one
    winner), that no module holds more than one bus, and — for the five
    healthy schemes — that each cycle's grant count equals the
    served-count rule :func:`repro.core.exact.served_counts`.  Failed-bus
    views (:mod:`repro.faults`) serve up to a matching instead, so the
    rule check skips them.
    """
    memory_bus = network.memory_bus_matrix()
    cycles, buses = np.nonzero(grant_module >= 0)
    modules = grant_module[cycles, buses]
    if not requested[cycles, modules].all():
        raise SimulationError(
            "bus granted to a module which has no outstanding request"
        )
    if not memory_bus[modules, buses].all():
        raise SimulationError(
            "bus granted to a module which is not wired to it"
        )
    if not (winner[cycles, modules] >= 0).all():
        raise SimulationError("granted module has no stage-one winner")
    flat = cycles * network.n_memories + modules
    if flat.size and np.bincount(flat).max() > 1:
        raise SimulationError("module granted more than one bus")
    if isinstance(network, _SCHEMES) and not np.array_equal(
        (grant_module >= 0).sum(axis=1), served_counts(network, requested)
    ):
        raise SimulationError(
            "per-cycle grant counts differ from the scheme's served-count rule"
        )


def run_vectorized(
    network: MultipleBusNetwork,
    generator: ModelRequestGenerator,
    n_cycles: int,
    warmup: int,
    generation_rng: np.random.Generator,
    arbitration_rng: np.random.Generator,
    keep_trace: bool = False,
    views: bool = True,
) -> SimulationResult | tuple[SimulationResult, BatchTrace]:
    """Run ``warmup + n_cycles`` cycles in vectorized chunks.

    ``generation_rng`` must be the same stream (by derivation) the loop
    backend hands its request generator, which is what makes grant
    counts comparable across backends; ``arbitration_rng`` feeds the
    winner-selection keys.

    With ``views=False`` only the grant-count path runs (see the module
    docstring): no arbitration, no draws from ``arbitration_rng``, and
    the result's ``bus_utilization``, ``module_service_rates`` and
    ``processor_success_rates`` are ``None``.  Every other field is
    bit-identical to a ``views=True`` run of the same streams.

    With ``keep_trace`` (which needs ``views``) the full per-cycle
    arrays are returned alongside the result (measured cycles only) —
    used by the equivalence tests to re-check the arbitration
    invariants offline.
    """
    reason = vectorization_unsupported_reason(network, generator)
    if reason is not None:
        raise SimulationError(f"cannot vectorize: {reason}")
    if keep_trace and not views:
        raise SimulationError("keep_trace records arbitration; it needs views")
    assigner = _assigner_for(network)
    n_memories = network.n_memories
    total = warmup + n_cycles

    grant_count_chunks: list[np.ndarray] = []
    requests_issued = 0
    bus_busy = module_served = processor_served = None
    if views:
        bus_busy = np.zeros(network.n_buses, dtype=np.int64)
        module_served = np.zeros(n_memories, dtype=np.int64)
        processor_served = np.zeros(network.n_processors, dtype=np.int64)
    trace_chunks: list[BatchTrace] = []

    registry = get_registry()
    produced = 0
    while produced < total:
        chunk = min(_CHUNK, total - produced)
        registry.increment("sim.vectorized.chunks")
        registry.increment("sim.vectorized.chunk_cycles", chunk)
        issues, chosen = generator.request_arrays(chunk, generation_rng)
        if views:
            requested, request_counts, winner = _resolve_stage_one(
                issues, chosen, n_memories, arbitration_rng
            )
            grant_module = assigner(network, requested, arbitration_rng)
            check_batch_invariants(network, requested, winner, grant_module)

        first_measured = max(0, warmup - produced)
        produced += chunk
        if first_measured >= chunk:
            continue
        sl = slice(first_measured, None)
        requests_issued += int(issues[sl].sum())
        if not views:
            grant_count_chunks.append(
                served_counts(
                    network,
                    _requested_matrix(issues[sl], chosen[sl], n_memories),
                )
            )
            continue
        if keep_trace:
            trace_chunks.append(
                BatchTrace(
                    issues[sl],
                    chosen[sl],
                    requested[sl],
                    request_counts[sl],
                    winner[sl],
                    grant_module[sl],
                )
            )
        grants = grant_module[sl]
        granted = grants >= 0
        grant_count_chunks.append(granted.sum(axis=1))
        bus_busy += granted.sum(axis=0)
        served_modules = grants[granted]
        module_served += np.bincount(served_modules, minlength=n_memories)
        served_cycles = np.nonzero(granted)[0]
        processor_served += np.bincount(
            winner[sl][served_cycles, served_modules],
            minlength=network.n_processors,
        )

    result = result_from_arrays(
        np.concatenate(grant_count_chunks),
        requests_issued,
        bus_busy,
        module_served,
        processor_served,
    )
    if not keep_trace:
        return result
    trace = BatchTrace(
        *(
            np.concatenate([getattr(t, f.name) for t in trace_chunks])
            for f in dataclasses.fields(BatchTrace)
        )
    )
    return result, trace
