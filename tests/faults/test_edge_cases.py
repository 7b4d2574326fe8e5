"""Fault-injection edge cases and golden degradation curves.

Covers the corners the basic injection tests skip: failure accumulation
on an already-degraded K-class network, the ``-1`` fault-tolerance
sentinel once a module is cut off, and golden ``degradation_curve``
values at paper scale (``N = M = 16``, ``B = 8``) for every scheme so a
regression in any degraded evaluator shows up as a concrete number.
"""

import pytest

from repro.core.hierarchy import paper_two_level_model
from repro.exceptions import FaultError
from repro.faults.analysis import degradation_curve
from repro.faults.injection import DegradedNetwork, fail_buses
from repro.topology.factory import build_network


class TestFailureAccumulation:
    def test_fail_buses_accumulates_on_degraded_kclass(self):
        base = build_network("kclass", 16, 16, 8)
        once = fail_buses(base, {7})
        twice = fail_buses(once, {5, 6})
        # Accumulated failures, still wrapping the *healthy* base.
        assert twice.failed_buses == (5, 6, 7)
        assert twice.base is base
        assert isinstance(twice, DegradedNetwork)

    def test_accumulated_failure_matrices_match_direct_failure(self):
        base = build_network("kclass", 16, 16, 8)
        stepwise = fail_buses(fail_buses(base, {7}), {6})
        direct = fail_buses(base, {6, 7})
        assert (
            stepwise.memory_bus_matrix() == direct.memory_bus_matrix()
        ).all()
        assert (
            stepwise.processor_bus_matrix() == direct.processor_bus_matrix()
        ).all()

    def test_refailing_a_failed_bus_is_idempotent(self):
        base = build_network("partial", 8, 8, 4)
        degraded = fail_buses(fail_buses(base, {1}), {1})
        assert degraded.failed_buses == (1,)

    def test_accumulating_to_all_buses_raises(self):
        base = build_network("full", 8, 8, 4)
        degraded = fail_buses(base, {0, 1, 2})
        with pytest.raises(FaultError):
            fail_buses(degraded, {3})


class TestFaultToleranceSentinel:
    def test_degree_negative_one_once_module_cut_off(self):
        # Single connection: each module has exactly one bus, so any
        # failure orphans the bus's modules and the degree hits -1.
        base = build_network("single", 8, 8, 4)
        degraded = fail_buses(base, {0})
        assert not degraded.is_fully_accessible()
        assert degraded.degree_of_fault_tolerance() == -1

    def test_sentinel_propagates_through_accumulation(self):
        # K-class: class 1 modules see exactly one bus (bus 0), so
        # failing it orphans them; further failures keep the sentinel.
        base = build_network("kclass", 16, 16, 8)
        assert base.degree_of_fault_tolerance() == 0
        degraded = fail_buses(base, {0})
        assert degraded.degree_of_fault_tolerance() == -1
        deeper = fail_buses(degraded, {1})
        assert deeper.degree_of_fault_tolerance() == -1
        assert len(deeper.inaccessible_memories()) >= len(
            degraded.inaccessible_memories()
        )

    def test_healthy_degrees_match_table_one(self):
        # Table I: full tolerates B-1, partial B/g - 1, single 0.
        assert build_network(
            "full", 16, 16, 8
        ).degree_of_fault_tolerance() == 7
        assert build_network(
            "partial", 16, 16, 8
        ).degree_of_fault_tolerance() == 3
        assert build_network(
            "single", 16, 16, 8
        ).degree_of_fault_tolerance() == 0


# Golden degradation curves at N = M = 16, B = 8, r = 1.0 (hierarchical
# model): (n_failed, mean, worst, accessible_fraction) per point, seeded
# and deterministic.  Analytic for the closed-form schemes, the matching
# arbiter simulation for K-class.
GOLDEN_CURVES = {
    "full": [
        (0, 7.986065, 7.986065, 1.0),
        (1, 6.996900, 6.996900, 1.0),
        (2, 5.999451, 5.999451, 1.0),
        (3, 4.999924, 4.999924, 1.0),
    ],
    "partial": [
        (0, 7.919201, 7.919201, 1.0),
        (1, 6.953376, 6.953376, 1.0),
        (2, 5.969726, 5.959031, 1.0),
        (3, 4.993206, 4.993206, 1.0),
    ],
    "single": [
        (0, 7.443529, 7.443529, 1.0),
        (1, 6.513088, 6.513088, 0.875),
        (2, 5.582647, 5.582647, 0.75),
        (3, 4.652206, 4.652206, 0.625),
    ],
    "kclass": [
        (0, 7.938500, 7.938500, 1.0),
        (1, 6.951000, 6.938500, 0.984375),
        (2, 5.984938, 5.938500, 0.984375),
        (3, 4.978312, 4.952000, 0.953125),
    ],
}


@pytest.mark.parametrize("scheme", sorted(GOLDEN_CURVES))
def test_golden_degradation_curve(scheme):
    network = build_network(scheme, 16, 16, 8)
    model = paper_two_level_model(16, rate=1.0)
    method = "simulate" if scheme == "kclass" else "analytic"
    curve = degradation_curve(
        network,
        model,
        max_failures=3,
        method=method,
        n_cycles=2_000,
        seed=0,
        max_placements=8,
    )
    for point, (n_failed, mean, worst, accessible) in zip(
        curve, GOLDEN_CURVES[scheme]
    ):
        assert point.n_failed == n_failed
        assert point.mean == pytest.approx(mean, abs=1e-6)
        assert point.worst == pytest.approx(worst, abs=1e-6)
        assert point.accessible_fraction == pytest.approx(
            accessible, abs=1e-6
        )
        # Internal consistency at every point.
        assert point.worst <= point.mean <= point.best


def test_degradation_curves_are_monotone_in_failures():
    model = paper_two_level_model(16, rate=1.0)
    for scheme, golden in GOLDEN_CURVES.items():
        means = [mean for _, mean, _, _ in golden]
        assert means == sorted(means, reverse=True), scheme
