"""The grant-count path of the vectorized backend, pinned to arbitration.

``run_vectorized(..., views=False)`` counts each cycle's grants from the
requested-module set alone (:func:`repro.core.exact.served_counts`) and
never arbitrates.  These tests hold it to the full arbitration path:
every headline statistic bit-identical on all five vectorized schemes,
both paper models, several seeds, with warm-up, and past the exact
enumeration's 16-module cap — plus the sweep records built on it, the
module draw it consumes, and the seed derivation that feeds it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis.parallel import (
    _simulated_cell,
    simulated_bandwidth_sweep,
    sweep_cell_specs,
)
from repro.analysis.sweep import paper_model_pair
from repro.core.priority import ArbitrationSpec
from repro.core.request_models import (
    FavoriteMemoryRequestModel,
    MatrixRequestModel,
)
from repro.exceptions import SimulationError
from repro.simulation.engine import (
    MultiprocessorSimulator,
    derive_streams,
    simulate_bandwidth,
)
from repro.simulation.priority import derive_priority_streams
from repro.simulation.seeds import spawn_seeds
from repro.simulation.vectorized import run_vectorized
from repro.topology.factory import build_network
from repro.workloads.generator import ModelRequestGenerator

SCHEMES = [
    ("full", {}),
    ("single", {}),
    ("partial", {"n_groups": 2}),
    ("kclass", {}),
    ("crossbar", {}),
]
HEADLINE = (
    "n_cycles",
    "grant_counts",
    "bandwidth",
    "bandwidth_ci95",
    "requests_per_cycle",
    "acceptance_probability",
)
VIEWS = ("bus_utilization", "module_service_rates", "processor_success_rates")
SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def _network(scheme: str, kwargs: dict, size: int):
    n_buses = size if scheme == "crossbar" else 4
    return build_network(scheme, size, size, n_buses, **kwargs)


def _both(network, model, seed, n_cycles=1500, warmup=100,
          backend="vectorized"):
    """The same run with and without views."""
    return [
        MultiprocessorSimulator(
            network, model, seed=seed, backend=backend
        ).run(n_cycles, warmup=warmup, views=views)
        for views in (True, False)
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("size", [8, 24])
@pytest.mark.parametrize("model_name", ["hier", "unif"])
@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_views_off_matches_arbitration(scheme, kwargs, model_name, size, seed):
    model = paper_model_pair(size, 0.55)[model_name]
    full, counted = _both(_network(scheme, kwargs, size), model, seed)
    for field in HEADLINE:
        assert getattr(counted, field) == getattr(full, field), field
    for field in VIEWS:
        assert getattr(counted, field) is None
        assert getattr(full, field) is not None


@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_views_off_crosses_chunk_boundary(scheme, kwargs):
    # 9000 measured + 300 warm-up cycles span two 8192-cycle chunks.
    model = paper_model_pair(8, 1.0)["hier"]
    full, counted = _both(
        _network(scheme, kwargs, 8), model, 7, n_cycles=9000, warmup=300
    )
    assert counted.grant_counts == full.grant_counts
    assert counted.bandwidth_ci95 == full.bandwidth_ci95


def test_views_off_on_loop_backend_drops_only_views():
    network = _network("kclass", {}, 8)
    model = paper_model_pair(8, 0.8)["hier"]
    full, counted = _both(network, model, 5, n_cycles=400, backend="loop")
    for field in HEADLINE:
        assert getattr(counted, field) == getattr(full, field), field
    assert all(getattr(counted, field) is None for field in VIEWS)


def test_views_on_account_for_every_grant():
    network = _network("kclass", {}, 8)
    model = paper_model_pair(8, 1.0)["hier"]
    result = simulate_bandwidth(network, model, 2000, seed=4)
    grants = sum(result.grant_counts)
    for field in VIEWS:
        assert sum(getattr(result, field)) * 2000 == pytest.approx(grants)


def test_views_off_draws_nothing_from_arbitration_stream():
    network = _network("partial", {"n_groups": 2}, 8)
    generator = ModelRequestGenerator(paper_model_pair(8, 0.7)["hier"])
    generation_rng, arbitration_rng = derive_streams(9)
    before = arbitration_rng.bit_generator.state
    run_vectorized(
        network, generator, 500, 50, generation_rng, arbitration_rng,
        views=False,
    )
    assert arbitration_rng.bit_generator.state == before


def test_trace_and_priority_need_views():
    network = _network("full", {}, 8)
    model = paper_model_pair(8, 0.7)["unif"]
    generation_rng, arbitration_rng = derive_streams(1)
    with pytest.raises(SimulationError, match="views"):
        run_vectorized(
            network, ModelRequestGenerator(model), 100, 0,
            generation_rng, arbitration_rng, keep_trace=True, views=False,
        )
    with pytest.raises(SimulationError, match="views"):
        simulate_bandwidth(
            network, model, 100, spec=ArbitrationSpec(), views=False
        )


# ---------------------------------------------------------------------------
# Sweep records
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme,kwargs", SCHEMES, ids=lambda v: str(v))
def test_sweep_records_match_arbitrated_runs(scheme, kwargs):
    n_buses = [12] if scheme == "crossbar" else [2, 4]
    specs = sweep_cell_specs(
        scheme, 12, n_buses, [0.2, 1.0], n_cycles=600, seed=3, **kwargs
    )
    for spec in specs:
        record = _simulated_cell(spec)
        arbitrated = simulate_bandwidth(
            build_network(
                scheme, 12, 12, spec["B"], **spec["network_kwargs"]
            ),
            spec["model"],
            n_cycles=spec["n_cycles"],
            seed=spec["seed"],
            backend=spec["backend"],
        )
        assert record["bandwidth"] == arbitrated.bandwidth
        assert record["ci95"] == arbitrated.bandwidth_ci95


def test_two_worker_fabric_command_matches_serial_sweep():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.fabric.cli", "--scheme", "kclass",
            "--N", "12", "--buses", "4,6", "--rates", "0.3,0.9",
            "--cycles", "700", "--seed", "5", "--workers", "2",
            "--json", "--quiet",
        ],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    serial = simulated_bandwidth_sweep(
        "kclass", 12, [4, 6], [0.3, 0.9], n_cycles=700, seed=5
    )
    assert json.loads(out.stdout) == json.loads(json.dumps(serial))


# ---------------------------------------------------------------------------
# Module draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        paper_model_pair(12, 0.6)["hier"],
        FavoriteMemoryRequestModel(10, 20, 0.7, rate=0.9),
        # Zero-fraction columns make repeated cumulative entries.
        MatrixRequestModel(
            np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0]]), rate=1.0
        ),
    ],
    ids=["hier", "favorite", "sparse"],
)
def test_draw_block_matches_broadcast_count(model):
    generator = ModelRequestGenerator(model)
    issues, chosen = generator._draw_block(1024, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    expected_issues = rng.random(issues.shape) < model.rate
    draws = rng.random(issues.shape)
    cumulative = generator._cumulative
    expected = (draws[:, :, None] >= cumulative[None, :, :]).sum(axis=2)
    np.clip(expected, 0, model.n_memories - 1, out=expected)
    assert (issues == expected_issues).all()
    assert (chosen == expected).all()


# ---------------------------------------------------------------------------
# Seed derivation leaves the caller's root untouched
# ---------------------------------------------------------------------------


def test_spawn_seeds_is_repeatable_and_matches_a_fresh_spawn():
    root = np.random.SeedSequence(2024)
    first = spawn_seeds(root, 3)
    second = spawn_seeds(root, 3)
    fresh = np.random.SeedSequence(2024).spawn(3)
    for a, b, c in zip(first, second, fresh):
        assert a.spawn_key == b.spawn_key == c.spawn_key
        assert (a.generate_state(4) == c.generate_state(4)).all()
    assert root.n_children_spawned == 0


def test_rerunning_a_spec_gives_the_same_record():
    (spec,) = sweep_cell_specs(
        "full", 12, [4], [0.5], n_cycles=800, seed=0,
        model_factory=lambda n, r: {"unif": paper_model_pair(n, r)["unif"]},
    )
    assert _simulated_cell(spec) == _simulated_cell(spec)


def test_simulator_with_seed_sequence_reruns_identically():
    simulator = MultiprocessorSimulator(
        _network("single", {}, 8),
        paper_model_pair(8, 0.9)["hier"],
        seed=np.random.SeedSequence(77),
    )
    assert simulator.run(300).grant_counts == simulator.run(300).grant_counts


def test_priority_streams_match_baseline_streams_from_seed_sequence():
    root = np.random.SeedSequence(1234)
    gen_a, arb_a = derive_streams(root)
    gen_b, arb_b, _cls, _ten = derive_priority_streams(root)
    assert (gen_a.random(64) == gen_b.random(64)).all()
    assert (arb_a.random(64) == arb_b.random(64)).all()
