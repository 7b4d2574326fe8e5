"""Tests for stage-two bus assignment policies."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbitration.bus_arbiter import (
    CrossbarAssignment,
    GroupedBusAssignment,
    MatchingBusAssignment,
    RandomBusAssignment,
    RoundRobinBusAssignment,
    SingleBusAssignment,
    assignment_for,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.injection import fail_buses
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork


class TestRoundRobin:
    def test_grants_min_of_requests_and_buses(self, rng):
        policy = RoundRobinBusAssignment(8, 3)
        grants = policy.assign([0, 2, 4, 6], rng)
        assert len(grants) == 3

    def test_all_served_when_underloaded(self, rng):
        policy = RoundRobinBusAssignment(8, 4)
        grants = policy.assign([1, 5], rng)
        assert sorted(grants.values()) == [1, 5]

    def test_empty_request_set(self, rng):
        assert RoundRobinBusAssignment(8, 4).assign([], rng) == {}

    def test_pointer_rotates_no_starvation(self, rng):
        # With 3 modules always requesting and 1 bus, each module must be
        # served once every 3 cycles.
        policy = RoundRobinBusAssignment(3, 1)
        served = [next(iter(policy.assign([0, 1, 2], rng).values()))
                  for _ in range(9)]
        assert served == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_reset_restores_pointer(self, rng):
        policy = RoundRobinBusAssignment(4, 1)
        first = policy.assign([0, 1], rng)
        policy.reset()
        assert policy.assign([0, 1], rng) == first

    def test_each_module_at_most_one_bus(self, rng):
        policy = RoundRobinBusAssignment(10, 5)
        grants = policy.assign(list(range(10)), rng)
        assert len(set(grants.values())) == len(grants)

    @given(
        st.sets(st.integers(min_value=0, max_value=9), max_size=10),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50)
    def test_property_grant_count(self, requested, n_buses):
        rng = np.random.default_rng(0)
        policy = RoundRobinBusAssignment(10, n_buses)
        grants = policy.assign(sorted(requested), rng)
        assert len(grants) == min(len(requested), n_buses)
        assert set(grants.values()) <= requested


class TestRandomAssignment:
    def test_grant_count(self, rng):
        policy = RandomBusAssignment(8, 3)
        for _ in range(20):
            grants = policy.assign([0, 1, 2, 3, 4], rng)
            assert len(grants) == 3
            assert set(grants.values()) <= {0, 1, 2, 3, 4}

    def test_under_capacity_serves_all(self, rng):
        policy = RandomBusAssignment(8, 5)
        assert sorted(policy.assign([2, 6], rng).values()) == [2, 6]


class TestGroupedAssignment:
    def test_requests_stay_in_group_buses(self, rng):
        policy = GroupedBusAssignment(8, 4, 2)
        grants = policy.assign([0, 1, 2, 3], rng)  # all group 0
        assert set(grants) <= {0, 1}
        assert len(grants) == 2

    def test_groups_independent(self, rng):
        policy = GroupedBusAssignment(8, 4, 2)
        grants = policy.assign([0, 4], rng)
        assert grants[0] == 0 or grants[1] == 0
        assert grants[2] == 4 or grants[3] == 4

    def test_per_group_capacity(self, rng):
        policy = GroupedBusAssignment(8, 4, 2)
        # 3 requests in group 0, one in group 1: group 0 capped at 2.
        grants = policy.assign([0, 1, 2, 5], rng)
        assert len(grants) == 3

    def test_rejects_bad_groups(self):
        with pytest.raises(ConfigurationError):
            GroupedBusAssignment(8, 4, 3)
        with pytest.raises(ConfigurationError):
            GroupedBusAssignment(8, 4, 0)

    def test_reset(self, rng):
        policy = GroupedBusAssignment(4, 2, 2)
        first = policy.assign([0, 1], rng)
        policy.reset()
        assert policy.assign([0, 1], rng) == first


class TestSingleAssignment:
    def test_one_grant_per_busy_bus(self, rng):
        policy = SingleBusAssignment([0, 0, 1, 1], 2)
        grants = policy.assign([0, 1, 2], rng)
        assert set(grants) == {0, 1}
        assert grants[0] in (0, 1)
        assert grants[1] == 2

    def test_round_robin_within_bus(self, rng):
        policy = SingleBusAssignment([0, 0], 1)
        served = [policy.assign([0, 1], rng)[0] for _ in range(4)]
        assert served == [0, 1, 0, 1]

    def test_rejects_invalid_module(self, rng):
        policy = SingleBusAssignment([0, 1], 2)
        with pytest.raises(SimulationError):
            policy.assign([5], rng)

    def test_rejects_invalid_wiring(self):
        with pytest.raises(ConfigurationError):
            SingleBusAssignment([0, 3], 2)


class TestCrossbarAssignment:
    def test_serves_everything(self, rng):
        policy = CrossbarAssignment(6, 6)
        grants = policy.assign([0, 2, 4], rng)
        assert sorted(grants.values()) == [0, 2, 4]

    def test_rejects_overflow(self, rng):
        policy = CrossbarAssignment(6, 2)
        with pytest.raises(SimulationError, match="exceed"):
            policy.assign([0, 1, 2], rng)


class TestMatchingAssignment:
    def test_full_matrix_serves_up_to_buses(self, rng):
        matrix = np.ones((6, 3), dtype=bool)
        policy = MatchingBusAssignment(matrix)
        grants = policy.assign([0, 1, 2, 3], rng)
        assert len(grants) == 3

    def test_respects_wiring(self, rng):
        matrix = np.array([[True, False], [False, True]])
        policy = MatchingBusAssignment(matrix)
        grants = policy.assign([0, 1], rng)
        assert grants == {0: 0, 1: 1}

    def test_optimal_beats_greedy_conflict(self, rng):
        # Module 0 reaches both buses, module 1 only bus 0: optimal
        # matching serves both by routing module 0 to bus 1.
        matrix = np.array([[True, True], [True, False]])
        policy = MatchingBusAssignment(matrix)
        grants = policy.assign([0, 1], rng)
        assert len(grants) == 2
        assert grants[0] == 1 and grants[1] == 0

    def test_orphan_module_not_served(self, rng):
        matrix = np.array([[True], [False]])
        policy = MatchingBusAssignment(matrix)
        grants = policy.assign([0, 1], rng)
        assert grants == {0: 0}

    def test_empty(self, rng):
        policy = MatchingBusAssignment(np.ones((3, 2), dtype=bool))
        assert policy.assign([], rng) == {}

    def test_matches_brute_force_max_matching_size(self, rng):
        matrix = np.array(
            [
                [True, True, False],
                [True, False, False],
                [False, True, True],
                [False, False, True],
            ]
        )
        policy = MatchingBusAssignment(matrix)
        for size in range(1, 5):
            for requested in itertools.combinations(range(4), size):
                grants = policy.assign(list(requested), rng)
                # Compare against exhaustive search over assignments.
                best = _brute_force_matching(matrix, requested)
                assert len(grants) == best

    def test_rejects_bad_matrix(self):
        with pytest.raises(ConfigurationError):
            MatchingBusAssignment(np.ones(3, dtype=bool))


def _brute_force_matching(matrix, requested):
    """Largest conflict-free (module, bus) assignment, by brute force."""
    n_buses = matrix.shape[1]
    best = 0
    for buses in itertools.permutations(range(n_buses), min(len(requested), n_buses)):
        for modules in itertools.permutations(requested, len(buses)):
            size = sum(
                1 for m, b in zip(modules, buses) if matrix[m, b]
            )
            # Count only a prefix-consistent assignment: permutations
            # already pair each module with exactly one bus.
            best = max(best, size)
    return best


class TestAssignmentFactory:
    def test_dispatch(self):
        cases = (
            (FullBusMemoryNetwork(8, 8, 4), RoundRobinBusAssignment),
            (SingleBusMemoryNetwork(8, 8, 4), SingleBusAssignment),
            (PartialBusNetwork(8, 8, 4, 2), GroupedBusAssignment),
            (
                KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2]),
                __import__(
                    "repro.arbitration.kclass_assignment",
                    fromlist=["KClassBusAssignment"],
                ).KClassBusAssignment,
            ),
            (CrossbarNetwork(8, 8), CrossbarAssignment),
        )
        for network, expected_type in cases:
            assert isinstance(assignment_for(network), expected_type)

    def test_degraded_network_gets_matching(self):
        degraded = fail_buses(FullBusMemoryNetwork(8, 8, 4), {1})
        assert isinstance(assignment_for(degraded), MatchingBusAssignment)

    def test_policy_dimensions(self):
        net = PartialBusNetwork(8, 8, 4, 2)
        policy = assignment_for(net)
        assert policy.n_buses == 4
        assert policy.n_memories == 8
