"""Tests for bus fault injection."""

import numpy as np
import pytest

from repro.exceptions import FaultError
from repro.faults.injection import DegradedNetwork, fail_buses
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork


class TestDegradedNetwork:
    def test_failed_columns_zeroed(self):
        degraded = fail_buses(FullBusMemoryNetwork(4, 4, 3), {1})
        mbm = degraded.memory_bus_matrix()
        assert not mbm[:, 1].any()
        assert mbm[:, 0].all() and mbm[:, 2].all()
        pbm = degraded.processor_bus_matrix()
        assert not pbm[:, 1].any()

    def test_base_untouched(self):
        base = FullBusMemoryNetwork(4, 4, 3)
        fail_buses(base, {0})
        assert base.memory_bus_matrix().all()

    def test_alive_and_failed_views(self):
        degraded = fail_buses(FullBusMemoryNetwork(4, 4, 4), {0, 3})
        assert degraded.failed_buses == (0, 3)
        assert degraded.alive_buses == (1, 2)

    def test_accumulating_failures(self):
        base = FullBusMemoryNetwork(4, 4, 4)
        once = fail_buses(base, {0})
        twice = fail_buses(once, {2})
        assert twice.failed_buses == (0, 2)
        assert twice.base is base

    def test_full_stays_accessible(self):
        degraded = fail_buses(FullBusMemoryNetwork(4, 4, 3), {0, 1})
        assert degraded.is_fully_accessible()
        assert degraded.inaccessible_memories().size == 0

    def test_single_loses_local_modules(self):
        degraded = fail_buses(SingleBusMemoryNetwork(8, 8, 4), {0})
        assert not degraded.is_fully_accessible()
        assert degraded.inaccessible_memories().tolist() == [0, 1]

    def test_partial_group_loss(self):
        degraded = fail_buses(PartialBusNetwork(8, 8, 4, 2), {0, 1})
        assert degraded.inaccessible_memories().tolist() == [0, 1, 2, 3]

    def test_remaining_fault_tolerance(self):
        base = FullBusMemoryNetwork(4, 4, 4)
        assert fail_buses(base, {0}).degree_of_fault_tolerance() == 2
        single = SingleBusMemoryNetwork(8, 8, 4)
        assert fail_buses(single, {0}).degree_of_fault_tolerance() == -1

    def test_scheme_label(self):
        assert fail_buses(FullBusMemoryNetwork(4, 4, 2), {0}).scheme == (
            "degraded"
        )

    def test_validate_allows_orphans(self):
        degraded = fail_buses(SingleBusMemoryNetwork(4, 4, 2), {0})
        degraded.validate()  # must not raise despite orphaned modules

    def test_repr(self):
        text = repr(fail_buses(FullBusMemoryNetwork(4, 4, 2), {1}))
        assert "failed_buses=(1,)" in text


class TestFailureValidation:
    def test_rejects_unknown_bus(self):
        with pytest.raises(FaultError, match="cannot fail"):
            fail_buses(FullBusMemoryNetwork(4, 4, 2), {5})

    def test_rejects_all_buses(self):
        with pytest.raises(FaultError, match="no network"):
            fail_buses(FullBusMemoryNetwork(4, 4, 2), {0, 1})

    def test_duplicate_failures_collapse(self):
        degraded = DegradedNetwork(FullBusMemoryNetwork(4, 4, 3), [1, 1])
        assert degraded.failed_buses == (1,)
