"""Differential test: loop vs vectorized backends on degraded topologies.

A fault-degraded network is not vectorizable, so ``backend="auto"``
silently drops to the per-cycle loop with the generic maximum-matching
arbiter.  These tests pin down that the fallback is (a) taken and logged
through telemetry, and (b) *correct*, by exploiting a structural
identity: zeroing a bus column is equivalent to removing the bus, so

* a full bus-memory network with ``f`` failed buses must grant exactly
  like a healthy ``B - f``-bus full network (every module still reaches
  every surviving bus), which the vectorized backend can simulate; and
* a partial network with one failed bus per group must grant exactly
  like the healthy partial network with ``B - g`` buses.

Both sides share one seed.  Request generation and arbitration RNG
streams are derived separately (``derive_streams``), so the per-cycle
request patterns are bit-identical across backends and topologies of the
same ``(N, M)`` — any grant-count divergence is an arbitration bug, not
noise.
"""

from __future__ import annotations

import pytest

from repro.core.request_models import UniformRequestModel
from repro.faults.injection import fail_buses
from repro.obs.metrics import telemetry
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.factory import build_network

N = 8
CYCLES = 1000
SEEDS = (404, 2024)


def _grants(network, backend, seed):
    model = UniformRequestModel(
        network.n_processors, network.n_memories, rate=0.8
    )
    simulator = MultiprocessorSimulator(
        network, model, seed=seed, backend=backend
    )
    result = simulator.run(CYCLES)
    return simulator.backend, result.grant_counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_failed", [1, 2])
def test_degraded_full_equals_smaller_healthy_full(seed, n_failed):
    n_buses = 4
    degraded = fail_buses(
        build_network("full", N, N, n_buses), range(n_failed)
    )
    healthy = build_network("full", N, N, n_buses - n_failed)

    loop_backend, loop_grants = _grants(degraded, "auto", seed)
    vec_backend, vec_grants = _grants(healthy, "vectorized", seed)

    assert loop_backend == "loop"  # auto fell back on the degraded topology
    assert vec_backend == "vectorized"
    assert loop_grants == vec_grants


@pytest.mark.parametrize("seed", SEEDS)
def test_degraded_partial_equals_smaller_healthy_partial(seed):
    # g = 2 groups over B = 4: buses {0, 1} and {2, 3}.  Failing one bus
    # per group leaves the healthy B = 2 partial network.
    degraded = fail_buses(
        build_network("partial", N, N, 4, n_groups=2), [0, 2]
    )
    healthy = build_network("partial", N, N, 2, n_groups=2)

    loop_backend, loop_grants = _grants(degraded, "auto", seed)
    vec_backend, vec_grants = _grants(healthy, "vectorized", seed)

    assert loop_backend == "loop"
    assert vec_backend == "vectorized"
    assert loop_grants == vec_grants


def test_loop_and_vectorized_agree_on_the_healthy_counterpart():
    """Sanity anchor: the two backends agree on the healthy network too."""
    healthy = build_network("full", N, N, 3)
    _, loop_grants = _grants(healthy, "loop", SEEDS[0])
    _, vec_grants = _grants(healthy, "vectorized", SEEDS[0])
    assert loop_grants == vec_grants


def test_auto_fallback_is_taken_and_reported_via_telemetry():
    degraded = fail_buses(build_network("full", N, N, 4), [1])
    model = UniformRequestModel(N, N, rate=0.8)
    with telemetry() as registry:
        simulator = MultiprocessorSimulator(
            degraded, model, seed=SEEDS[0], backend="auto"
        )
        assert simulator.backend == "loop"
        simulator.run(200)

        selected = [
            e for e in registry.events()
            if e["kind"] == "sim.backend_selected"
        ]
        assert len(selected) == 1
        assert selected[0]["requested"] == "auto"
        assert selected[0]["backend"] == "loop"
        assert selected[0]["scheme"] == "degraded"

        fallbacks = [
            e for e in registry.events()
            if e["kind"] == "sim.backend_fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0]["scheme"] == "degraded"
        assert isinstance(fallbacks[0]["reason"], str)
        assert fallbacks[0]["reason"]

        assert registry.counter_value("sim.backend", backend="loop") == 1
        assert registry.counter_value("sim.cycles", backend="loop") == 200
