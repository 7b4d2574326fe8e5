"""Loop vs vectorized backend equivalence, locked down cell by cell.

The vectorized backend claims *exact* agreement with the reference loop
backend for the same seed: identical per-cycle grant counts (hence
bandwidth, confidence interval and acceptance probability) and identical
bus utilization, because both are determined by the request stream alone
under any work-conserving arbiter.  These tests pin that claim across
all supported schemes, both paper request models and two request rates,
with run lengths crossing the generator's 1024-cycle draw block and the
vectorized 8192-cycle chunk boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweep import paper_model_pair
from repro.arbitration.bus_arbiter import assignment_for
from repro.core.priority import ArbitrationSpec
from repro.exceptions import SimulationError
from repro.simulation.engine import MultiprocessorSimulator, derive_streams
from repro.simulation.priority import derive_priority_streams
from repro.simulation.vectorized import (
    check_batch_invariants,
    run_vectorized,
    vectorization_unsupported_reason,
)
from repro.topology.factory import build_network
from repro.workloads.generator import FixedRequestGenerator, ModelRequestGenerator

# (scheme, kwargs) for every vectorized stage-two arbiter.
SCHEMES = [
    ("full", {}),
    ("single", {}),
    ("partial", {"n_groups": 2}),
    ("kclass", {}),
    ("crossbar", {}),
]
N = 8
B = 4
# Crosses the generator's 1024-cycle draw block (and, via the chunked
# trace test below, the 8192-cycle vectorized chunk).
CYCLES = 1500
SEED = 404


def _network(scheme: str, kwargs: dict):
    n_buses = N if scheme == "crossbar" else B
    return build_network(scheme, N, N, n_buses, **kwargs)


def _run(scheme, kwargs, model, backend, warmup=0):
    simulator = MultiprocessorSimulator(
        _network(scheme, kwargs), model, seed=SEED, backend=backend
    )
    assert simulator.backend == backend
    return simulator.run(CYCLES, warmup=warmup)


@pytest.mark.parametrize("rate", [0.5, 1.0])
@pytest.mark.parametrize("model_name", ["hier", "unif"])
@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_backends_agree_exactly(scheme, kwargs, model_name, rate):
    model = paper_model_pair(N, rate)[model_name]
    loop = _run(scheme, kwargs, model, "loop")
    vec = _run(scheme, kwargs, model, "vectorized")

    # The per-cycle grant counts — the backend-agnostic fingerprint —
    # must match element for element, not just in aggregate.
    assert loop.grant_counts == vec.grant_counts
    assert loop.bandwidth == vec.bandwidth
    assert loop.bandwidth_ci95 == vec.bandwidth_ci95
    assert loop.requests_per_cycle == vec.requests_per_cycle
    assert loop.acceptance_probability == vec.acceptance_probability
    assert loop.bus_utilization == vec.bus_utilization
    assert loop.n_cycles == vec.n_cycles == CYCLES

    # Fairness views differ only by which equivalent winner was picked:
    # totals must still agree.
    assert sum(loop.module_service_rates) == pytest.approx(
        sum(vec.module_service_rates)
    )
    assert sum(loop.processor_success_rates) == pytest.approx(
        sum(vec.processor_success_rates)
    )


@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_backends_agree_with_warmup(scheme, kwargs):
    model = paper_model_pair(N, 1.0)["hier"]
    loop = _run(scheme, kwargs, model, "loop", warmup=100)
    vec = _run(scheme, kwargs, model, "vectorized", warmup=100)
    assert loop.grant_counts == vec.grant_counts
    assert loop.bandwidth == vec.bandwidth


@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_trace_satisfies_arbitration_invariants(scheme, kwargs):
    """Replay the vectorized run's dense trace through every grant check."""
    network = _network(scheme, kwargs)
    model = paper_model_pair(N, 1.0)["hier"]
    generator = ModelRequestGenerator(model)
    generation_rng, arbitration_rng = derive_streams(SEED)
    result, trace = run_vectorized(
        network,
        generator,
        CYCLES,
        0,
        generation_rng,
        arbitration_rng,
        keep_trace=True,
    )

    # The batch checker itself (also exercised on every run_vectorized
    # chunk internally).
    check_batch_invariants(
        network, trace.requested, trace.winner, trace.grant_module
    )

    # Independent re-derivation of the same invariants from the trace.
    assert trace.issues.shape == (CYCLES, N)
    assert trace.grant_module.shape == (CYCLES, network.n_buses)
    # requested/request_counts must follow from the raw draws.
    counts = np.zeros((CYCLES, network.n_memories), dtype=np.int64)
    cycle_idx, proc_idx = np.nonzero(trace.issues)
    np.add.at(counts, (cycle_idx, trace.chosen[cycle_idx, proc_idx]), 1)
    assert (counts == trace.request_counts).all()
    assert ((counts > 0) == trace.requested).all()
    # Winners exist exactly on requested cells and issued that request.
    assert ((trace.winner >= 0) == trace.requested).all()
    w_cycles, w_modules = np.nonzero(trace.winner >= 0)
    w_procs = trace.winner[w_cycles, w_modules]
    assert trace.issues[w_cycles, w_procs].all()
    assert (trace.chosen[w_cycles, w_procs] == w_modules).all()
    # Grants are wired, requested, and unique per module.
    mbm = network.memory_bus_matrix()
    g_cycles, g_buses = np.nonzero(trace.grant_module >= 0)
    g_modules = trace.grant_module[g_cycles, g_buses]
    assert mbm[g_modules, g_buses].all()
    assert trace.requested[g_cycles, g_modules].all()
    per_cycle_modules = set(zip(g_cycles.tolist(), g_modules.tolist()))
    assert len(per_cycle_modules) == len(g_cycles)
    # The result summarizes the trace.
    assert result.grant_counts == tuple(
        (trace.grant_module >= 0).sum(axis=1).tolist()
    )


def test_request_stream_is_backend_independent():
    """Both backends observe the identical request stream for one seed."""
    model = paper_model_pair(N, 1.0)["hier"]
    generator = ModelRequestGenerator(model)
    gen_rng_a, _ = derive_streams(SEED)
    gen_rng_b, _ = derive_streams(SEED)
    issues, chosen = generator.request_arrays(CYCLES, gen_rng_a)
    for c, requests in enumerate(generator.cycles(CYCLES, gen_rng_b)):
        expected = [
            (int(p), int(chosen[c, p])) for p in np.flatnonzero(issues[c])
        ]
        assert requests == expected


def test_auto_backend_prefers_vectorized():
    model = paper_model_pair(N, 1.0)["hier"]
    simulator = MultiprocessorSimulator(_network("full", {}), model, seed=1)
    assert simulator.backend == "vectorized"


def test_auto_backend_falls_back_for_fixed_generator():
    generator = FixedRequestGenerator([[(0, 0), (1, 1)]], N, N)
    simulator = MultiprocessorSimulator(
        _network("full", {}), generator, seed=1
    )
    assert simulator.backend == "loop"
    assert vectorization_unsupported_reason(
        _network("full", {}), generator
    ) is not None


def test_auto_backend_falls_back_for_custom_policy():
    network = _network("full", {})
    model = paper_model_pair(N, 1.0)["hier"]
    simulator = MultiprocessorSimulator(
        network, model, policy=assignment_for(network), seed=1
    )
    assert simulator.backend == "loop"


def test_explicit_vectorized_rejects_unsupported():
    generator = FixedRequestGenerator([[(0, 0)]], N, N)
    with pytest.raises(SimulationError, match="vectorized"):
        MultiprocessorSimulator(
            _network("full", {}), generator, seed=1, backend="vectorized"
        )


# Priority specs crossing class mixes, disciplines and both tenure
# distributions; the equivalence contract is the same exact one as for
# the class-blind backends, extended to the per-class arrays.
_PRIORITY_SPECS = [
    ArbitrationSpec(discipline="strict", class_weights=(0.25, 0.75),
                    tenure=3.0),
    ArbitrationSpec(discipline="wrr", class_weights=(0.5, 0.3, 0.2),
                    tenure=2.5, tenure_dist="geometric"),
    ArbitrationSpec(discipline="rr", tenure=4.0),
    ArbitrationSpec(discipline="proc", class_weights=(0.1, 0.9),
                    tenure=1.5, tenure_dist="geometric"),
]


def _priority_run(scheme, kwargs, model, spec, backend, warmup=0):
    simulator = MultiprocessorSimulator(
        _network(scheme, kwargs), model, seed=SEED, backend=backend,
        spec=spec,
    )
    assert simulator.backend == backend
    return simulator.run(CYCLES, warmup=warmup)


@pytest.mark.parametrize(
    "spec", _PRIORITY_SPECS, ids=lambda s: f"{s.discipline}-L{s.tenure}"
)
@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_priority_backends_agree_exactly(scheme, kwargs, spec):
    """Burst tenure + priority grants: identical per-class grant arrays."""
    model = paper_model_pair(N, 1.0)["hier"]
    loop = _priority_run(scheme, kwargs, model, spec, "loop")
    vec = _priority_run(scheme, kwargs, model, spec, "vectorized")

    assert loop.per_class_grant_counts == vec.per_class_grant_counts
    assert loop.total.grant_counts == vec.total.grant_counts
    assert loop.total.bandwidth == vec.total.bandwidth
    assert loop.total.bus_utilization == vec.total.bus_utilization
    assert loop.per_class_bandwidth == vec.per_class_bandwidth
    assert loop.per_class_requests_per_cycle == (
        vec.per_class_requests_per_cycle
    )
    assert loop.per_class_starved_cycles == vec.per_class_starved_cycles
    assert loop.per_class_blocked_stage_one == (
        vec.per_class_blocked_stage_one
    )
    assert loop.per_class_blocked_tenure == vec.per_class_blocked_tenure
    assert loop.per_class_mean_grant_latency == (
        vec.per_class_mean_grant_latency
    )


@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_priority_backends_agree_with_warmup(scheme, kwargs):
    model = paper_model_pair(N, 1.0)["unif"]
    spec = ArbitrationSpec(
        discipline="wrr", class_weights=(0.25, 0.75), tenure=2.0,
        tenure_dist="geometric",
    )
    loop = _priority_run(scheme, kwargs, model, spec, "loop", warmup=100)
    vec = _priority_run(
        scheme, kwargs, model, spec, "vectorized", warmup=100
    )
    assert loop.per_class_grant_counts == vec.per_class_grant_counts
    assert loop.total.bandwidth == vec.total.bandwidth


def test_priority_request_stream_matches_baseline_streams():
    """Priority stream derivation preserves the class-blind streams."""
    root = 1234
    gen_a, arb_a = derive_streams(root)
    gen_b, arb_b, _cls, _ten = derive_priority_streams(root)
    assert (gen_a.random(64) == gen_b.random(64)).all()
    assert (arb_a.random(64) == arb_b.random(64)).all()
