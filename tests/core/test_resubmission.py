"""Tests for the rate-adjustment resubmission model."""

import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import UniformRequestModel
from repro.core.resubmission import solve_resubmission_equilibrium
from repro.exceptions import ModelError
from repro.topology.full import FullBusMemoryNetwork


def _solver(network, model):
    return solve_resubmission_equilibrium(
        model, lambda m: analytic_bandwidth(network, m)
    )


class TestEquilibrium:
    def test_effective_rate_at_least_nominal(self):
        network = FullBusMemoryNetwork(16, 16, 4)
        for r in (0.2, 0.5, 0.9):
            eq = _solver(network, paper_two_level_model(16, rate=r))
            assert eq.effective_rate >= r - 1e-12
            assert eq.effective_rate <= 1.0

    def test_no_contention_means_no_adjustment(self):
        # B = N and one processor per module at a modest rate: almost no
        # blocking, so alpha stays close to r and the wait is near zero.
        network = FullBusMemoryNetwork(8, 8, 8)
        model = UniformRequestModel(8, 8, rate=0.1)
        eq = _solver(network, model)
        assert eq.effective_rate == pytest.approx(0.1, abs=0.01)
        assert eq.mean_wait_cycles < 0.2

    def test_saturated_network_drives_alpha_to_one(self):
        network = FullBusMemoryNetwork(16, 16, 2)
        eq = _solver(network, paper_two_level_model(16, rate=0.9))
        assert eq.effective_rate > 0.98

    def test_bandwidth_monotone_in_rate(self):
        network = FullBusMemoryNetwork(16, 16, 4)
        values = [
            _solver(network, paper_two_level_model(16, rate=r)).bandwidth
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_wait_monotone_in_rate(self):
        network = FullBusMemoryNetwork(16, 16, 4)
        waits = [
            _solver(
                network, paper_two_level_model(16, rate=r)
            ).mean_wait_cycles
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(waits, waits[1:]))

    def test_resubmission_bandwidth_at_least_drop_model(self):
        # Retries add offered load, so throughput can only rise.
        network = FullBusMemoryNetwork(16, 16, 4)
        for r in (0.2, 0.5, 0.8):
            model = paper_two_level_model(16, rate=r)
            drop = analytic_bandwidth(network, model)
            assert _solver(network, model).bandwidth >= drop - 1e-9

    def test_acceptance_in_unit_interval(self):
        network = FullBusMemoryNetwork(16, 16, 4)
        eq = _solver(network, paper_two_level_model(16, rate=0.6))
        assert 0.0 < eq.acceptance_probability <= 1.0
        assert eq.mean_wait_cycles == pytest.approx(
            1.0 / eq.acceptance_probability - 1.0
        )

    def test_rejects_zero_rate(self):
        network = FullBusMemoryNetwork(8, 8, 4)
        with pytest.raises(ModelError, match="positive rate"):
            _solver(network, UniformRequestModel(8, 8, rate=0.0))

    def test_iterations_reported(self):
        network = FullBusMemoryNetwork(16, 16, 4)
        eq = _solver(network, paper_two_level_model(16, rate=0.5))
        assert eq.iterations >= 1
