"""Tests for capacity-planning utilities."""

import pytest

from repro.analysis.capacity import (
    bus_utilization_profile,
    min_buses_for_bandwidth,
    min_buses_for_crossbar_fraction,
    rate_for_crossbar_fraction,
)
from repro.analysis.evaluate import analytic_bandwidth
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import UniformRequestModel
from repro.exceptions import ConfigurationError
from repro.topology.full import FullBusMemoryNetwork


class TestMinBusesForBandwidth:
    def test_basic(self):
        model = UniformRequestModel(8, 8)
        b = min_buses_for_bandwidth("full", 8, model, 3.5)
        assert b == 4  # Table II: B=3 -> 2.97, B=4 -> 3.87

    def test_returns_minimum(self):
        model = UniformRequestModel(8, 8)
        b = min_buses_for_bandwidth("full", 8, model, 3.5)
        below = analytic_bandwidth(FullBusMemoryNetwork(8, 8, b - 1), model)
        assert below < 3.5

    def test_unreachable_target(self):
        model = UniformRequestModel(8, 8)
        assert min_buses_for_bandwidth("full", 8, model, 7.0) is None

    def test_skips_invalid_counts(self):
        model = UniformRequestModel(8, 8)
        # g=2 partial only exists for even B; target forces B=4.
        b = min_buses_for_bandwidth("partial", 8, model, 3.0, n_groups=2)
        assert b == 4

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            min_buses_for_bandwidth("full", 8, UniformRequestModel(8, 8), 0.0)


class TestMinBusesForCrossbarFraction:
    def test_paper_r1_needs_half_the_buses(self):
        # Section IV: at r = 1 the network needs ~N/2 buses to approach
        # the crossbar.
        model = paper_two_level_model(16, rate=1.0)
        b = min_buses_for_crossbar_fraction("full", 16, model, 0.95)
        assert 8 <= b <= 12

    def test_r_half_needs_fewer(self):
        model_r1 = paper_two_level_model(16, rate=1.0)
        model_r05 = paper_two_level_model(16, rate=0.5)
        b1 = min_buses_for_crossbar_fraction("full", 16, model_r1, 0.95)
        b05 = min_buses_for_crossbar_fraction("full", 16, model_r05, 0.95)
        assert b05 < b1

    def test_full_fraction_needs_all(self):
        model = UniformRequestModel(8, 8)
        b = min_buses_for_crossbar_fraction("full", 8, model, 1.0)
        assert b is not None and b >= 7

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            min_buses_for_crossbar_fraction(
                "full", 8, UniformRequestModel(8, 8), 1.5
            )


class TestRateForCrossbarFraction:
    def test_paper_observation(self):
        # N/2 buses reach >= 95% of the crossbar somewhere below r = 1
        # but above r = 0.4 (Table III shows 6.52/6.87 = 0.95 at r=0.5).
        model = paper_two_level_model(16, rate=1.0)
        rate = rate_for_crossbar_fraction("full", 16, 8, model, 0.95)
        assert rate is not None
        assert 0.4 < rate < 1.0

    def test_full_pool_supports_rate_one(self):
        model = UniformRequestModel(8, 8)
        assert rate_for_crossbar_fraction("full", 8, 8, model, 0.99) == 1.0

    def test_monotone_in_buses(self):
        model = paper_two_level_model(16, rate=1.0)
        r4 = rate_for_crossbar_fraction("full", 16, 4, model, 0.95)
        r8 = rate_for_crossbar_fraction("full", 16, 8, model, 0.95)
        assert r4 < r8

    def test_invalid_bus_count_raises(self):
        model = UniformRequestModel(8, 8)
        with pytest.raises(ConfigurationError, match="cannot be built"):
            rate_for_crossbar_fraction(
                "partial", 8, 3, model, 0.9, n_groups=2
            )


class TestBusUtilizationProfile:
    def test_profile_shape(self):
        model = UniformRequestModel(8, 8)
        profile = bus_utilization_profile("full", 8, model)
        assert [p["B"] for p in profile] == list(range(1, 9))

    def test_bandwidth_recovered(self):
        model = UniformRequestModel(8, 8)
        profile = bus_utilization_profile("full", 8, model)
        assert profile[3]["bandwidth"] == pytest.approx(
            analytic_bandwidth(FullBusMemoryNetwork(8, 8, 4), model)
        )

    def test_marginal_sums_to_total(self):
        model = UniformRequestModel(8, 8)
        profile = bus_utilization_profile("full", 8, model)
        total = sum(p["marginal"] for p in profile)
        assert total == pytest.approx(profile[-1]["bandwidth"])

    def test_diminishing_returns(self):
        model = UniformRequestModel(8, 8)
        profile = bus_utilization_profile("full", 8, model)
        marginals = [p["marginal"] for p in profile]
        assert all(a >= b - 1e-9 for a, b in zip(marginals, marginals[1:]))

    def test_per_bus_yield_decreases(self):
        model = UniformRequestModel(16, 16, rate=0.5)
        profile = bus_utilization_profile("full", 16, model)
        yields = [p["per_bus"] for p in profile]
        assert yields[-1] < yields[0]

    def test_partial_skips_odd_counts(self):
        model = UniformRequestModel(8, 8)
        profile = bus_utilization_profile(
            "partial", 8, model, n_groups=2
        )
        assert [p["B"] for p in profile] == [2, 4, 6, 8]
