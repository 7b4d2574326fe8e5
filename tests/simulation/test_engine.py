"""Integration tests for the Monte-Carlo simulator.

The headline checks drive the simulator with the *independence workload*
(each module requested independently with probability X) under which the
paper's closed forms are exact — simulation must agree within its
confidence interval for every connection scheme.
"""

import numpy as np
import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.arbitration.bus_arbiter import RandomBusAssignment
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import MatrixRequestModel, UniformRequestModel
from repro.exceptions import SimulationError
from repro.simulation.engine import MultiprocessorSimulator, simulate_bandwidth
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork

CYCLES = 15_000


def independence_model(n: int, x: float) -> MatrixRequestModel:
    return MatrixRequestModel(np.eye(n), rate=x)


class TestExactAgreement:
    """Schemes x independence workload: closed forms are exact here."""

    @pytest.mark.parametrize(
        "network",
        [
            FullBusMemoryNetwork(8, 8, 4),
            SingleBusMemoryNetwork(8, 8, 4),
            PartialBusNetwork(8, 8, 4, n_groups=2),
            KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2]),
            CrossbarNetwork(8, 8),
        ],
        ids=lambda n: n.scheme,
    )
    def test_simulation_matches_analytic(self, network):
        model = independence_model(8, 0.65)
        analytic = analytic_bandwidth(network, model)
        result = MultiprocessorSimulator(network, model, seed=99).run(CYCLES)
        assert result.agrees_with(analytic, slack=0.02), (
            f"{network.scheme}: simulated {result.bandwidth:.4f} vs "
            f"analytic {analytic:.4f} (ci {result.bandwidth_ci95:.4f})"
        )


class TestCrossbarExactness:
    def test_processor_workload_crossbar_is_exact(self):
        # With B = N there is no bus contention, so eq. (4) is exact even
        # for the correlated processor-driven workload.
        model = paper_two_level_model(8, rate=1.0)
        network = FullBusMemoryNetwork(8, 8, 8)
        analytic = analytic_bandwidth(network, model)
        result = MultiprocessorSimulator(network, model, seed=5).run(CYCLES)
        assert result.agrees_with(analytic, slack=0.02)

    def test_processor_workload_small_b_overestimates(self):
        # At small B the binomial independence approximation slightly
        # underestimates the true bandwidth of the correlated workload.
        model = paper_two_level_model(8, rate=1.0)
        network = FullBusMemoryNetwork(8, 8, 4)
        analytic = analytic_bandwidth(network, model)
        result = MultiprocessorSimulator(network, model, seed=5).run(CYCLES)
        assert result.bandwidth >= analytic - 0.01
        assert result.bandwidth - analytic < 0.1


class TestEngineMechanics:
    def test_seed_reproducibility(self):
        network = FullBusMemoryNetwork(8, 8, 4)
        model = UniformRequestModel(8, 8)
        a = MultiprocessorSimulator(network, model, seed=7).run(500)
        b = MultiprocessorSimulator(network, model, seed=7).run(500)
        assert a.bandwidth == b.bandwidth
        assert a.bus_utilization == b.bus_utilization

    def test_different_seeds_differ(self):
        network = FullBusMemoryNetwork(8, 8, 4)
        model = UniformRequestModel(8, 8)
        a = MultiprocessorSimulator(network, model, seed=1).run(500)
        b = MultiprocessorSimulator(network, model, seed=2).run(500)
        assert a.bandwidth != b.bandwidth

    def test_warmup_not_measured(self):
        network = FullBusMemoryNetwork(4, 4, 2)
        model = UniformRequestModel(4, 4)
        result = MultiprocessorSimulator(network, model, seed=0).run(
            100, warmup=50
        )
        assert result.n_cycles == 100

    def test_policy_override(self):
        network = FullBusMemoryNetwork(8, 8, 4)
        model = independence_model(8, 0.65)
        random_policy = RandomBusAssignment(8, 4)
        result = MultiprocessorSimulator(
            network, model, policy=random_policy, seed=3
        ).run(CYCLES)
        # Grant counts (and hence bandwidth) are policy-independent.
        analytic = analytic_bandwidth(network, model)
        assert result.agrees_with(analytic, slack=0.02)

    def test_bandwidth_bounded_by_buses(self):
        network = FullBusMemoryNetwork(8, 8, 2)
        result = simulate_bandwidth(
            network, UniformRequestModel(8, 8), 2000, seed=0
        )
        assert result.bandwidth <= 2.0
        assert max(result.bus_utilization) <= 1.0

    def test_zero_rate_yields_zero_bandwidth(self):
        network = FullBusMemoryNetwork(4, 4, 2)
        result = simulate_bandwidth(
            network, UniformRequestModel(4, 4, rate=0.0), 100, seed=0
        )
        assert result.bandwidth == 0.0
        assert result.requests_per_cycle == 0.0

    def test_fairness_under_symmetric_model(self):
        network = FullBusMemoryNetwork(8, 8, 4)
        result = simulate_bandwidth(
            network, UniformRequestModel(8, 8), 20_000, seed=4
        )
        rates = np.asarray(result.processor_success_rates)
        assert rates.std() / rates.mean() < 0.05


class TestEngineValidation:
    def test_rejects_processor_mismatch(self):
        with pytest.raises(SimulationError, match="processors"):
            MultiprocessorSimulator(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(6, 8)
            )

    def test_rejects_module_mismatch(self):
        with pytest.raises(SimulationError, match="modules"):
            MultiprocessorSimulator(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(8, 6)
            )

    def test_rejects_policy_bus_mismatch(self):
        with pytest.raises(SimulationError, match="buses"):
            MultiprocessorSimulator(
                FullBusMemoryNetwork(8, 8, 4),
                UniformRequestModel(8, 8),
                policy=RandomBusAssignment(8, 3),
            )

    def test_rejects_bad_cycle_counts(self):
        sim = MultiprocessorSimulator(
            FullBusMemoryNetwork(4, 4, 2), UniformRequestModel(4, 4)
        )
        with pytest.raises(SimulationError):
            sim.run(0)
        with pytest.raises(SimulationError):
            sim.run(10, warmup=-1)

    def test_grant_checker_catches_bad_policy(self):
        class BadPolicy(RandomBusAssignment):
            def assign(self, requested, rng):
                return {0: 0}  # grants module 0 even when not requested

        model = MatrixRequestModel(
            np.array([[0.0, 1.0], [0.0, 1.0]]), rate=1.0
        )
        sim = MultiprocessorSimulator(
            FullBusMemoryNetwork(2, 2, 2),
            model,
            policy=BadPolicy(2, 2),
            seed=0,
        )
        with pytest.raises(SimulationError, match="no outstanding request"):
            sim.run(10)
