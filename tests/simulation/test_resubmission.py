"""Tests for the event-level resubmission simulator."""

import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import UniformRequestModel
from repro.core.resubmission import solve_resubmission_equilibrium
from repro.exceptions import SimulationError
from repro.simulation.resubmission import ResubmissionSimulator
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.single import SingleBusMemoryNetwork


class TestResubmissionSimulator:
    def test_matches_analytic_fixed_point(self):
        network = FullBusMemoryNetwork(16, 16, 4)
        for r in (0.3, 0.6):
            model = paper_two_level_model(16, rate=r)
            eq = solve_resubmission_equilibrium(
                model, lambda m: analytic_bandwidth(network, m)
            )
            sim = ResubmissionSimulator(network, model, seed=1).run(15_000)
            assert sim.bandwidth == pytest.approx(eq.bandwidth, rel=0.03)
            assert sim.effective_rate == pytest.approx(
                eq.effective_rate, rel=0.05
            )
            assert sim.mean_wait_cycles == pytest.approx(
                eq.mean_wait_cycles, abs=0.15
            )

    def test_single_connection_scheme(self):
        network = SingleBusMemoryNetwork(8, 8, 4)
        model = UniformRequestModel(8, 8, rate=0.5)
        sim = ResubmissionSimulator(network, model, seed=2).run(10_000)
        assert 0.0 < sim.bandwidth <= 4.0
        assert sim.effective_rate >= 0.5 - 0.02

    def test_zero_rate_idles(self):
        network = FullBusMemoryNetwork(4, 4, 2)
        model = UniformRequestModel(4, 4, rate=0.0)
        sim = ResubmissionSimulator(network, model, seed=0).run(500)
        assert sim.bandwidth == 0.0
        assert sim.effective_rate == 0.0
        assert sim.mean_wait_cycles == 0.0

    def test_saturation_throughput_equals_buses(self):
        network = FullBusMemoryNetwork(16, 16, 2)
        model = UniformRequestModel(16, 16, rate=1.0)
        sim = ResubmissionSimulator(network, model, seed=3).run(5_000)
        assert sim.bandwidth == pytest.approx(2.0, abs=0.02)

    def test_seed_reproducibility(self):
        network = FullBusMemoryNetwork(8, 8, 4)
        model = UniformRequestModel(8, 8, rate=0.6)
        a = ResubmissionSimulator(network, model, seed=9).run(1_000)
        b = ResubmissionSimulator(network, model, seed=9).run(1_000)
        assert a == b

    def test_wait_exceeds_drop_model_zero(self):
        # Under load, waits must be strictly positive.
        network = FullBusMemoryNetwork(16, 16, 2)
        model = UniformRequestModel(16, 16, rate=0.8)
        sim = ResubmissionSimulator(network, model, seed=4).run(5_000)
        assert sim.mean_wait_cycles > 1.0
        assert sim.max_wait_cycles >= sim.mean_wait_cycles

    def test_wait_percentiles_ordered(self):
        network = FullBusMemoryNetwork(16, 16, 2)
        model = UniformRequestModel(16, 16, rate=0.8)
        sim = ResubmissionSimulator(network, model, seed=4).run(5_000)
        assert (
            0.0
            <= sim.p50_wait_cycles
            <= sim.p95_wait_cycles
            <= sim.max_wait_cycles
        )
        # The wait distribution is heavy-tailed under contention: the
        # 95th percentile clearly exceeds the median.
        assert sim.p95_wait_cycles > sim.p50_wait_cycles

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(SimulationError):
            ResubmissionSimulator(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(6, 8)
            )
        with pytest.raises(SimulationError):
            ResubmissionSimulator(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(8, 6)
            )

    def test_rejects_bad_cycles(self):
        sim = ResubmissionSimulator(
            FullBusMemoryNetwork(4, 4, 2), UniformRequestModel(4, 4)
        )
        with pytest.raises(SimulationError):
            sim.run(0)
        with pytest.raises(SimulationError):
            sim.run(100, warmup=-1)
