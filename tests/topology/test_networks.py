"""Structural tests for the five topology classes."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork


class TestBaseInvariants:
    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigurationError):
            FullBusMemoryNetwork(0, 8, 4)
        with pytest.raises(ConfigurationError):
            FullBusMemoryNetwork(8, 0, 4)
        with pytest.raises(ConfigurationError):
            FullBusMemoryNetwork(8, 8, 0)

    def test_rejects_more_buses_than_modules(self):
        with pytest.raises(ConfigurationError, match="exceeds M"):
            FullBusMemoryNetwork(8, 4, 5)

    def test_allows_more_buses_than_processors(self):
        # The paper's own Fig. 3 is 3 x 6 x 4.
        KClassPartialBusNetwork(3, 6, 4, class_sizes=[2, 2, 2]).validate()

    def test_processor_bus_matrix_all_true(self):
        net = FullBusMemoryNetwork(5, 6, 3)
        assert net.processor_bus_matrix().all()
        assert net.processor_bus_matrix().shape == (5, 3)

    def test_index_checks(self):
        net = FullBusMemoryNetwork(4, 4, 2)
        with pytest.raises(ConfigurationError):
            net.buses_for_memory(4)
        with pytest.raises(ConfigurationError):
            net.memories_on_bus(-1)

    def test_repr(self):
        assert "n_buses=3" in repr(FullBusMemoryNetwork(4, 4, 3))

    def test_connection_diagram_mentions_dimensions(self):
        text = FullBusMemoryNetwork(4, 4, 2).connection_diagram()
        assert "N=4 M=4 B=2" in text
        assert "bus 0" in text and "bus 1" in text


class TestFullNetwork:
    def test_memory_bus_matrix_all_true(self):
        net = FullBusMemoryNetwork(4, 6, 3)
        assert net.memory_bus_matrix().all()

    def test_connection_count(self):
        net = FullBusMemoryNetwork(8, 8, 4)
        assert net.connection_count() == 4 * (8 + 8)

    def test_bus_loads(self):
        net = FullBusMemoryNetwork(8, 6, 3)
        assert net.bus_loads().tolist() == [14, 14, 14]

    def test_fault_tolerance_degree(self):
        assert FullBusMemoryNetwork(8, 8, 5).degree_of_fault_tolerance() == 4

    def test_accessibility_under_failures(self):
        net = FullBusMemoryNetwork(4, 4, 3)
        assert net.accessible_memories({0, 1}).all()

    def test_validate(self):
        FullBusMemoryNetwork(3, 3, 2).validate()


class TestSingleNetwork:
    def test_default_balanced_assignment(self):
        net = SingleBusMemoryNetwork(8, 8, 4)
        assert net.modules_per_bus() == [2, 2, 2, 2]
        assert net.bus_of_module == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_unbalanced_remainder_spread(self):
        net = SingleBusMemoryNetwork(6, 7, 3)
        assert net.modules_per_bus() == [3, 2, 2]

    def test_explicit_assignment(self):
        net = SingleBusMemoryNetwork(4, 4, 2, bus_of_module=[1, 1, 1, 0])
        assert net.modules_per_bus() == [1, 3]
        assert net.buses_for_memory(0).tolist() == [1]

    def test_each_module_exactly_one_bus(self):
        net = SingleBusMemoryNetwork(8, 8, 4)
        assert (net.memory_bus_matrix().sum(axis=1) == 1).all()

    def test_connection_count(self):
        net = SingleBusMemoryNetwork(8, 8, 4)
        assert net.connection_count() == 4 * 8 + 8

    def test_bus_loads_include_local_modules(self):
        net = SingleBusMemoryNetwork(8, 8, 4)
        assert net.bus_loads().tolist() == [10, 10, 10, 10]

    def test_fault_tolerance_is_zero(self):
        assert SingleBusMemoryNetwork(8, 8, 4).degree_of_fault_tolerance() == 0

    def test_failure_cuts_local_modules(self):
        net = SingleBusMemoryNetwork(8, 8, 4)
        mask = net.accessible_memories({0})
        assert mask.tolist() == [False, False] + [True] * 6

    def test_rejects_wrong_assignment_length(self):
        with pytest.raises(ConfigurationError, match="one bus per module"):
            SingleBusMemoryNetwork(4, 4, 2, bus_of_module=[0, 1])

    def test_rejects_invalid_bus(self):
        with pytest.raises(ConfigurationError, match="nonexistent"):
            SingleBusMemoryNetwork(4, 4, 2, bus_of_module=[0, 1, 2, 0])


class TestPartialNetwork:
    def test_group_structure(self):
        net = PartialBusNetwork(8, 8, 4, n_groups=2)
        assert net.modules_per_group == 4
        assert net.buses_per_group == 2
        assert net.group_of_module(5) == 1
        assert net.group_of_bus(1) == 0

    def test_memory_bus_matrix_block_diagonal(self):
        net = PartialBusNetwork(8, 8, 4, n_groups=2)
        mbm = net.memory_bus_matrix()
        assert mbm[0, :2].all() and not mbm[0, 2:].any()
        assert mbm[4, 2:].all() and not mbm[4, :2].any()

    def test_connection_count(self):
        net = PartialBusNetwork(8, 8, 4, n_groups=2)
        assert net.connection_count() == 4 * (8 + 4)

    def test_fault_tolerance(self):
        assert PartialBusNetwork(8, 8, 4, 2).degree_of_fault_tolerance() == 1
        assert PartialBusNetwork(16, 16, 8, 2).degree_of_fault_tolerance() == 3

    def test_g1_is_full_connection(self):
        net = PartialBusNetwork(8, 8, 4, n_groups=1)
        assert net.memory_bus_matrix().all()

    def test_group_failure_cuts_modules(self):
        net = PartialBusNetwork(8, 8, 4, n_groups=2)
        mask = net.accessible_memories({0, 1})
        assert mask.tolist() == [False] * 4 + [True] * 4

    def test_rejects_nondividing_groups(self):
        with pytest.raises(ConfigurationError, match="divide"):
            PartialBusNetwork(8, 8, 4, n_groups=3)
        with pytest.raises(ConfigurationError, match="divide"):
            PartialBusNetwork(9, 9, 4, n_groups=2)

    def test_rejects_zero_groups(self):
        with pytest.raises(ConfigurationError):
            PartialBusNetwork(8, 8, 4, n_groups=0)


class TestKClassNetwork:
    def test_fig3_structure(self):
        # The paper's 3 x 6 x 4 network with three classes of two modules.
        net = KClassPartialBusNetwork(3, 6, 4, class_sizes=[2, 2, 2])
        assert net.buses_of_class(1) == [0, 1]
        assert net.buses_of_class(2) == [0, 1, 2]
        assert net.buses_of_class(3) == [0, 1, 2, 3]
        assert net.classes_on_bus(0) == [1, 2, 3]
        assert net.classes_on_bus(3) == [3]

    def test_fig3_connection_count(self):
        net = KClassPartialBusNetwork(3, 6, 4, class_sizes=[2, 2, 2])
        # BN + sum M_j (j + B - K) = 12 + 2*2 + 2*3 + 2*4 = 30.
        assert net.connection_count() == 30

    def test_bus_loads_follow_table1(self):
        net = KClassPartialBusNetwork(3, 6, 4, class_sizes=[2, 2, 2])
        # Load of bus i = N + sum of class sizes attached.
        assert net.bus_loads().tolist() == [3 + 6, 3 + 6, 3 + 4, 3 + 2]

    def test_fault_tolerance_b_minus_k(self):
        net = KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2])
        assert net.degree_of_fault_tolerance() == 0
        net = KClassPartialBusNetwork(8, 8, 4, class_sizes=[4, 4])
        assert net.degree_of_fault_tolerance() == 2

    def test_default_contiguous_assignment(self):
        net = KClassPartialBusNetwork(4, 6, 3, class_sizes=[1, 2, 3])
        assert net.class_of_module == [1, 2, 2, 3, 3, 3]

    def test_explicit_assignment(self):
        net = KClassPartialBusNetwork(
            4, 4, 2, class_sizes=[2, 2], class_of_module=[2, 1, 2, 1]
        )
        assert net.modules_of_class(1) == [1, 3]
        assert net.modules_of_class(2) == [0, 2]

    def test_memory_bus_matrix_widths(self):
        net = KClassPartialBusNetwork(4, 6, 3, class_sizes=[1, 2, 3])
        widths = net.memory_bus_matrix().sum(axis=1)
        assert widths.tolist() == [1, 2, 2, 3, 3, 3]

    def test_rejects_size_mismatch(self):
        with pytest.raises(ConfigurationError, match="sum to"):
            KClassPartialBusNetwork(4, 6, 3, class_sizes=[1, 2])

    def test_rejects_k_above_b(self):
        with pytest.raises(ConfigurationError, match="K <= B"):
            KClassPartialBusNetwork(4, 4, 2, class_sizes=[1, 1, 2])

    def test_rejects_assignment_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="disagree"):
            KClassPartialBusNetwork(
                4, 4, 2, class_sizes=[2, 2], class_of_module=[1, 1, 1, 2]
            )

    def test_rejects_invalid_class_index(self):
        with pytest.raises(ConfigurationError, match="invalid class"):
            KClassPartialBusNetwork(
                4, 4, 2, class_sizes=[2, 2], class_of_module=[0, 1, 2, 2]
            )

    def test_class_query_bounds(self):
        net = KClassPartialBusNetwork(4, 4, 2, class_sizes=[2, 2])
        with pytest.raises(ConfigurationError):
            net.buses_of_class(0)
        with pytest.raises(ConfigurationError):
            net.modules_of_class(3)


class TestCrossbarNetwork:
    def test_virtual_buses(self):
        net = CrossbarNetwork(8, 6)
        assert net.n_buses == 6
        assert net.memory_bus_matrix().all()

    def test_crosspoint_cost(self):
        assert CrossbarNetwork(8, 6).connection_count() == 48

    def test_scheme_name(self):
        assert CrossbarNetwork(4, 4).scheme == "crossbar"

    def test_bus_loads(self):
        assert CrossbarNetwork(4, 5).bus_loads().tolist() == [5, 5, 5, 5]


class TestOrphanDetection:
    def test_validate_rejects_orphan_module(self):
        class Orphaned(FullBusMemoryNetwork):
            def memory_bus_matrix(self):
                mbm = super().memory_bus_matrix()
                mbm[2, :] = False
                return mbm

        with pytest.raises(ConfigurationError, match="module 2"):
            Orphaned(4, 4, 2).validate()
