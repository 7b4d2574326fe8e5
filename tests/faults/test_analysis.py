"""Tests for degraded-mode bandwidth and fault-tolerance verification."""

import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.request_models import UniformRequestModel
from repro.exceptions import FaultError
from repro.faults.analysis import (
    analytic_degraded_bandwidth,
    degradation_curve,
    simulated_degraded_bandwidth,
    verify_fault_tolerance_degree,
)
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork

MODEL8 = UniformRequestModel(8, 8)


class TestVerifyFaultToleranceDegree:
    def test_full(self):
        assert verify_fault_tolerance_degree(FullBusMemoryNetwork(8, 8, 4)) == 3

    def test_single(self):
        assert verify_fault_tolerance_degree(SingleBusMemoryNetwork(8, 8, 4)) == 0

    def test_partial(self):
        assert verify_fault_tolerance_degree(PartialBusNetwork(8, 8, 4, 2)) == 1

    def test_kclass(self):
        net = KClassPartialBusNetwork(8, 8, 4, class_sizes=[4, 4])
        assert verify_fault_tolerance_degree(net) == 2

    def test_fig3(self):
        net = KClassPartialBusNetwork(3, 6, 4, class_sizes=[2, 2, 2])
        assert verify_fault_tolerance_degree(net) == 1

    def test_rejects_huge_networks(self):
        with pytest.raises(FaultError, match="intractable"):
            verify_fault_tolerance_degree(FullBusMemoryNetwork(32, 32, 21))


class TestAnalyticDegraded:
    def test_no_failures_equals_healthy(self):
        for network in (
            FullBusMemoryNetwork(8, 8, 4),
            SingleBusMemoryNetwork(8, 8, 4),
            PartialBusNetwork(8, 8, 4, 2),
        ):
            assert analytic_degraded_bandwidth(
                network, MODEL8, set()
            ) == pytest.approx(analytic_bandwidth(network, MODEL8))

    def test_full_failure_shrinks_bus_pool(self):
        net = FullBusMemoryNetwork(8, 8, 4)
        degraded = analytic_degraded_bandwidth(net, MODEL8, {0, 2})
        reference = analytic_bandwidth(FullBusMemoryNetwork(8, 8, 2), MODEL8)
        assert degraded == pytest.approx(reference)

    def test_full_placement_irrelevant(self):
        net = FullBusMemoryNetwork(8, 8, 4)
        assert analytic_degraded_bandwidth(net, MODEL8, {0}) == pytest.approx(
            analytic_degraded_bandwidth(net, MODEL8, {3})
        )

    def test_single_loses_bus_terms(self):
        net = SingleBusMemoryNetwork(8, 8, 4)
        healthy = analytic_bandwidth(net, MODEL8)
        degraded = analytic_degraded_bandwidth(net, MODEL8, {1})
        assert degraded == pytest.approx(healthy * 3 / 4)

    def test_partial_dead_group(self):
        net = PartialBusNetwork(8, 8, 4, 2)
        degraded = analytic_degraded_bandwidth(net, MODEL8, {0, 1})
        # Group 1 survives intact: bandwidth of one (M/2, B/2) subnetwork.
        from repro.core.bandwidth import bandwidth_full

        x = MODEL8.symmetric_module_probability()
        assert degraded == pytest.approx(bandwidth_full(4, 2, x))

    def test_rejects_failing_everything(self):
        with pytest.raises(FaultError, match="survive"):
            analytic_degraded_bandwidth(
                FullBusMemoryNetwork(8, 8, 2), MODEL8, {0, 1}
            )

    def test_rejects_unknown_bus(self):
        with pytest.raises(FaultError, match="out of range"):
            analytic_degraded_bandwidth(
                FullBusMemoryNetwork(8, 8, 2), MODEL8, {7}
            )

    def test_rejects_kclass(self):
        net = KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2])
        with pytest.raises(FaultError, match="no degraded closed form"):
            analytic_degraded_bandwidth(net, MODEL8, {0})

    def test_rejects_crossbar(self):
        with pytest.raises(FaultError, match="crosspoint"):
            analytic_degraded_bandwidth(CrossbarNetwork(8, 8), MODEL8, {0})


class TestSimulatedDegraded:
    def test_matches_analytic_for_full(self):
        net = FullBusMemoryNetwork(8, 8, 4)
        analytic = analytic_degraded_bandwidth(net, MODEL8, {0})
        simulated = simulated_degraded_bandwidth(
            net, MODEL8, {0}, n_cycles=20_000, seed=0
        )
        # Processor-driven workload: simulation may exceed the binomial
        # approximation slightly, never fall materially below.
        assert simulated == pytest.approx(analytic, abs=0.08)

    def test_kclass_degraded_simulation_runs(self):
        net = KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2])
        value = simulated_degraded_bandwidth(
            net, MODEL8, {3}, n_cycles=2_000, seed=0
        )
        assert 0.0 < value <= 3.0


class TestDegradationCurve:
    def test_monotone_decrease_full(self):
        curve = degradation_curve(
            FullBusMemoryNetwork(8, 8, 4), MODEL8, method="analytic"
        )
        means = [point.mean for point in curve]
        assert means == sorted(means, reverse=True)
        assert curve[0].accessible_fraction == 1.0

    def test_single_accessibility_drops(self):
        curve = degradation_curve(
            SingleBusMemoryNetwork(8, 8, 4), MODEL8, method="analytic"
        )
        assert curve[-1].accessible_fraction < 1.0

    def test_worst_leq_best(self):
        curve = degradation_curve(
            PartialBusNetwork(8, 8, 4, 2), MODEL8, method="analytic"
        )
        for point in curve:
            assert point.worst <= point.mean <= point.best + 1e-12

    def test_simulate_method(self):
        curve = degradation_curve(
            KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2]),
            MODEL8,
            max_failures=1,
            method="simulate",
            n_cycles=1_000,
        )
        assert len(curve) == 2
        assert curve[1].mean < curve[0].mean

    def test_rejects_bad_method(self):
        with pytest.raises(FaultError):
            degradation_curve(
                FullBusMemoryNetwork(4, 4, 2), MODEL8, method="guess"
            )

    def test_rejects_bad_max_failures(self):
        with pytest.raises(FaultError):
            degradation_curve(
                FullBusMemoryNetwork(4, 4, 2), MODEL8, max_failures=2
            )
