"""Tests for the Table I cost model."""

import pytest

from repro.topology.cost import (
    cost_report,
    expected_connections,
    performance_cost_ratio,
    symbolic_table,
)
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork


class TestExpectedConnections:
    """Structural counts must equal the paper's closed forms exactly."""

    def test_full(self):
        net = FullBusMemoryNetwork(16, 12, 6)
        assert net.connection_count() == expected_connections(net) == 6 * 28

    def test_single(self):
        net = SingleBusMemoryNetwork(16, 12, 6)
        assert net.connection_count() == expected_connections(net) == 96 + 12

    def test_partial(self):
        net = PartialBusNetwork(16, 12, 6, n_groups=2)
        assert net.connection_count() == expected_connections(net) == 6 * 22

    def test_kclass(self):
        net = KClassPartialBusNetwork(16, 12, 6, class_sizes=[4, 4, 4])
        expected = 6 * 16 + 4 * 4 + 4 * 5 + 4 * 6
        assert net.connection_count() == expected_connections(net) == expected

    def test_crossbar(self):
        net = CrossbarNetwork(16, 12)
        assert net.connection_count() == expected_connections(net) == 192

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            expected_connections(object())


class TestCostReport:
    def test_fields(self):
        report = cost_report(FullBusMemoryNetwork(8, 8, 4))
        assert report.scheme == "full"
        assert report.connections == 64
        assert report.bus_loads == (16, 16, 16, 16)
        assert report.max_bus_load == 16
        assert report.degree_of_fault_tolerance == 3

    def test_as_row_keys(self):
        row = cost_report(SingleBusMemoryNetwork(8, 8, 4)).as_row()
        assert set(row) == {
            "scheme", "connections", "max bus load", "fault tolerance"
        }

    def test_kclass_load_is_heaviest_on_bus_one(self):
        report = cost_report(
            KClassPartialBusNetwork(3, 6, 4, class_sizes=[2, 2, 2])
        )
        assert report.max_bus_load == report.bus_loads[0] == 9


class TestCostOrdering:
    """Section II-B: partial schemes sit between single and full."""

    def test_connection_ordering(self):
        n, m, b = 16, 16, 8
        full = FullBusMemoryNetwork(n, m, b).connection_count()
        partial = PartialBusNetwork(n, m, b, 2).connection_count()
        kclass = KClassPartialBusNetwork(
            n, m, b, class_sizes=[2] * 8
        ).connection_count()
        single = SingleBusMemoryNetwork(n, m, b).connection_count()
        assert single < kclass < full
        assert single < partial < full

    def test_kclass_cost_close_to_partial_g2(self):
        # Paper: NB + (B+1)N/2 vs B(N + N/2) for K = B equal classes.
        n, b = 16, 8
        partial = PartialBusNetwork(n, n, b, 2).connection_count()
        kclass = KClassPartialBusNetwork(
            n, n, b, class_sizes=[n // b] * b
        ).connection_count()
        assert abs(partial - kclass) / partial < 0.1

    def test_kclass_closed_form_matches_paper_expression(self):
        # With K = B and M_j = N/K: NB + (B+1)N/2.
        n, b = 16, 8
        kclass = KClassPartialBusNetwork(
            n, n, b, class_sizes=[n // b] * b
        ).connection_count()
        assert kclass == n * b + (b + 1) * n // 2


class TestSymbolicTable:
    def test_four_rows(self):
        table = symbolic_table()
        assert len(table) == 4
        assert table[0]["connections"] == "B(N + M)"
        assert table[3]["fault tolerance"] == "B - K"


class TestPerformanceCostRatio:
    def test_basic(self):
        report = cost_report(SingleBusMemoryNetwork(8, 8, 4))
        assert performance_cost_ratio(4.0, report) == pytest.approx(0.1)

    def test_rejects_zero_connections(self):
        report = cost_report(SingleBusMemoryNetwork(8, 8, 4))
        bad = type(report)(
            scheme="x", connections=0, bus_loads=(),
            max_bus_load=0, degree_of_fault_tolerance=0,
        )
        with pytest.raises(ValueError):
            performance_cost_ratio(1.0, bad)
