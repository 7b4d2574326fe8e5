"""Availability-weighted bandwidth: EBW(p) across the four schemes.

The acceptance anchor: ``EBW(p=0)`` equals the healthy analytic
bandwidth to 1e-9 for every scheme — the zero-weight failure sets are
skipped exactly, so no Monte-Carlo or enumeration noise can leak into
the fault-free point.
"""

import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import UniformRequestModel
from repro.exceptions import FaultError
from repro.faults.availability import (
    availability_curve,
    conditional_degraded_bandwidth,
    expected_bandwidth_under_failures,
    scheme_availability_curves,
)
from repro.obs.metrics import telemetry
from repro.topology.factory import build_network

SCHEMES = ("full", "partial", "single", "kclass")


def _pair(scheme, n=8, b=4):
    return build_network(scheme, n, n, b), paper_two_level_model(n, rate=1.0)


class TestZeroFailureAnchor:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ebw_at_p_zero_equals_healthy_analytic(self, scheme):
        network, model = _pair(scheme)
        point = expected_bandwidth_under_failures(network, model, 0.0)
        assert point.expected_bandwidth == pytest.approx(
            analytic_bandwidth(network, model), abs=1e-9
        )
        assert point.retained_fraction == pytest.approx(1.0, abs=1e-9)
        assert point.n_failure_sets == 1  # only the empty set has weight

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_p_zero_anchor_holds_under_uniform_model(self, scheme):
        network, _ = _pair(scheme)
        model = UniformRequestModel(8, 8, rate=0.5)
        point = expected_bandwidth_under_failures(network, model, 0.0)
        assert point.expected_bandwidth == pytest.approx(
            analytic_bandwidth(network, model), abs=1e-9
        )


class TestExpectedBandwidth:
    @pytest.mark.parametrize("scheme", ("full", "partial", "single"))
    def test_curve_decreases_with_failure_probability(self, scheme):
        network, model = _pair(scheme)
        points = availability_curve(network, model, (0.0, 0.05, 0.2, 0.5))
        values = [pt.expected_bandwidth for pt in points]
        assert values == sorted(values, reverse=True)
        assert all(pt.expected_bandwidth >= 0.0 for pt in points)

    def test_p_one_means_no_bandwidth(self):
        network, model = _pair("full")
        point = expected_bandwidth_under_failures(network, model, 1.0)
        assert point.expected_bandwidth == pytest.approx(0.0, abs=1e-12)

    def test_exact_matches_direct_enumeration(self):
        # B = 2 by hand: EBW = (1-p)^2 BW({}) + p(1-p) [BW({0}) + BW({1})].
        network = build_network("full", 8, 8, 2)
        model = paper_two_level_model(8, rate=1.0)
        p = 0.1
        expected = (1 - p) ** 2 * conditional_degraded_bandwidth(
            network, model, ()
        ) + 2 * p * (1 - p) * conditional_degraded_bandwidth(
            network, model, (0,)
        )
        point = expected_bandwidth_under_failures(network, model, p)
        assert point.method == "exact"
        assert point.expected_bandwidth == pytest.approx(expected, abs=1e-12)

    def test_montecarlo_approximates_exact(self):
        network, model = _pair("full")
        p = 0.15
        exact = expected_bandwidth_under_failures(
            network, model, p, method="exact"
        )
        sampled = expected_bandwidth_under_failures(
            network, model, p, method="montecarlo", n_samples=2_000, seed=1
        )
        assert sampled.method == "montecarlo"
        assert sampled.expected_bandwidth == pytest.approx(
            exact.expected_bandwidth, rel=0.05
        )

    def test_full_scheme_collapses_by_symmetry(self):
        # Full connection: BW(F) depends only on |F|, so the shared table
        # holds at most B + 1 entries even under exact enumeration.
        network, model = _pair("full", n=8, b=4)
        with telemetry() as registry:
            expected_bandwidth_under_failures(network, model, 0.3)
            evaluations = registry.counter_total("availability.failure_sets")
        assert evaluations <= network.n_buses + 1

    def test_curve_shares_conditional_table(self):
        network, model = _pair("partial")
        with telemetry() as registry:
            availability_curve(network, model, (0.1, 0.2, 0.3, 0.4))
            evaluations = registry.counter_total("availability.failure_sets")
        # 2^4 failure sets, evaluated once across the whole grid.
        assert evaluations <= 2**network.n_buses


class TestSchemeCurves:
    def test_records_cover_all_schemes_and_models(self):
        records = scheme_availability_curves(
            8, 4, (0.0, 0.1), n_cycles=500, seed=0
        )
        assert {r["scheme"] for r in records} == set(SCHEMES)
        assert {r["model"] for r in records} == {"hier", "unif"}
        for record in records:
            if record["p"] == 0.0:
                assert record["retained"] == pytest.approx(1.0, abs=1e-4)

    def test_invalid_shapes_skipped_not_raised(self):
        # B = 3 cannot host the default 2-group partial scheme.
        records = scheme_availability_curves(
            8, 3, (0.0,), schemes=("full", "partial"), n_cycles=200
        )
        assert {r["scheme"] for r in records} == {"full"}


class TestValidation:
    def test_probability_out_of_range(self):
        network, model = _pair("full")
        for bad in (-0.1, 1.5):
            with pytest.raises(FaultError):
                expected_bandwidth_under_failures(network, model, bad)

    def test_crossbar_rejected(self):
        crossbar = build_network("crossbar", 8, 8, 8)
        model = paper_two_level_model(8)
        with pytest.raises(FaultError):
            expected_bandwidth_under_failures(crossbar, model, 0.1)

    def test_unknown_method_and_bad_samples(self):
        network, model = _pair("full")
        with pytest.raises(FaultError):
            expected_bandwidth_under_failures(
                network, model, 0.1, method="guess"
            )
        with pytest.raises(FaultError):
            expected_bandwidth_under_failures(
                network, model, 0.1, method="montecarlo", n_samples=0
            )
