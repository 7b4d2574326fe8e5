"""The README's library paths, imported from the modules that define them."""

import pytest

import repro
from repro import exceptions
from repro.analysis.compare import compare_schemes
from repro.analysis.evaluate import analytic_bandwidth
from repro.core.hierarchy import paper_two_level_model
from repro.faults.analysis import verify_fault_tolerance_degree
from repro.faults.injection import fail_buses
from repro.simulation.engine import simulate_bandwidth
from repro.topology.cost import cost_report
from repro.topology.factory import build_network
from repro.topology.full import FullBusMemoryNetwork


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_exception_hierarchy(self):
        for exc in (
            exceptions.ConfigurationError,
            exceptions.ModelError,
            exceptions.SimulationError,
            exceptions.FaultError,
            exceptions.ExperimentError,
        ):
            assert issubclass(exc, exceptions.ReproError)
            assert issubclass(exc, Exception)

    def test_quickstart_path(self):
        # The README's four-line quickstart must work verbatim.
        net = FullBusMemoryNetwork(16, 16, 8)
        model = paper_two_level_model(16, rate=1.0)
        analytic = analytic_bandwidth(net, model)
        assert analytic == pytest.approx(7.99, abs=0.01)
        result = simulate_bandwidth(net, model, n_cycles=2_000, seed=0)
        assert result.bandwidth == pytest.approx(analytic, abs=0.2)

    def test_scheme_comparison_path(self):
        rows = compare_schemes(16, 8, paper_two_level_model(16))
        assert rows[0].scheme in ("full", "crossbar")

    def test_cost_report_path(self):
        report = cost_report(build_network("single", 8, 8, 4))
        assert report.connections == 40

    def test_fault_path(self):
        net = build_network("partial", 8, 8, 4)
        degraded = fail_buses(net, {0})
        assert degraded.failed_buses == (0,)
        assert verify_fault_tolerance_degree(net) == 1
