"""Tests for exact subset-enumeration bandwidth."""

import numpy as np
import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.exact import (
    _popcounts,
    distinct_request_pmf,
    exact_bandwidth,
    requested_set_distribution,
    served_counts,
)
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import (
    FavoriteMemoryRequestModel,
    MatrixRequestModel,
    UniformRequestModel,
)
from repro.exceptions import ConfigurationError
from repro.simulation.engine import simulate_bandwidth
from repro.topology import (
    CrossbarNetwork,
    FullBusMemoryNetwork,
    KClassPartialBusNetwork,
    PartialBusNetwork,
    SingleBusMemoryNetwork,
)
from repro.topology.factory import build_network


class TestRequestedSetDistribution:
    def test_sums_to_one(self):
        dist = requested_set_distribution(UniformRequestModel(4, 4))
        assert dist.sum() == pytest.approx(1.0)
        assert len(dist) == 16

    def test_rate_zero_is_empty_set(self):
        dist = requested_set_distribution(UniformRequestModel(4, 4, rate=0.0))
        assert dist[0] == pytest.approx(1.0)

    def test_deterministic_pattern(self):
        # Both processors always request module 0: set {0} w.p. 1.
        f = np.zeros((2, 3))
        f[:, 0] = 1.0
        dist = requested_set_distribution(MatrixRequestModel(f, rate=1.0))
        assert dist[0b001] == pytest.approx(1.0)

    def test_two_processor_uniform_by_hand(self):
        # N=2, M=2, r=1: P({0}) = P(both pick 0) = 1/4, P({0,1}) = 1/2.
        dist = requested_set_distribution(UniformRequestModel(2, 2))
        assert dist[0b00] == pytest.approx(0.0)
        assert dist[0b01] == pytest.approx(0.25)
        assert dist[0b10] == pytest.approx(0.25)
        assert dist[0b11] == pytest.approx(0.5)

    def test_independence_model_factorizes(self):
        # Identity pattern at rate x: modules independent Bernoulli(x).
        x = 0.3
        dist = requested_set_distribution(
            MatrixRequestModel(np.eye(3), rate=x)
        )
        for t in range(8):
            bits = bin(t).count("1")
            assert dist[t] == pytest.approx(x**bits * (1 - x) ** (3 - bits))

    def test_rejects_large_machines(self):
        with pytest.raises(ConfigurationError, match="at most 16"):
            requested_set_distribution(UniformRequestModel(4, 20))


class TestDistinctRequestPmf:
    def test_mean_equals_sum_of_x(self):
        model = paper_two_level_model(8)
        pmf = distinct_request_pmf(model)
        mean = float(np.arange(9) @ pmf)
        assert mean == pytest.approx(
            float(model.module_request_probabilities().sum())
        )

    def test_variance_below_binomial(self):
        # Negative correlation: the true count has smaller variance than
        # the paper's Binomial(M, X) approximation.
        model = paper_two_level_model(8)
        pmf = distinct_request_pmf(model)
        i = np.arange(9)
        mean = float(i @ pmf)
        var = float(((i - mean) ** 2) @ pmf)
        x = model.symmetric_module_probability()
        assert var < 8 * x * (1 - x)

    def test_support_bounded_by_processors(self):
        # 2 processors can request at most 2 distinct modules.
        pmf = distinct_request_pmf(UniformRequestModel(2, 6))
        assert pmf[3:].sum() == pytest.approx(0.0, abs=1e-12)


class TestExactBandwidth:
    @pytest.mark.parametrize(
        "network",
        [
            FullBusMemoryNetwork(8, 8, 4),
            SingleBusMemoryNetwork(8, 8, 4),
            PartialBusNetwork(8, 8, 4, 2),
            KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2]),
            CrossbarNetwork(8, 8),
        ],
        ids=lambda n: n.scheme,
    )
    def test_matches_simulation(self, network):
        model = paper_two_level_model(8, rate=1.0)
        exact = exact_bandwidth(network, model)
        sim = simulate_bandwidth(network, model, n_cycles=30_000, seed=11)
        assert sim.agrees_with(exact, slack=0.03), (
            f"{network.scheme}: exact {exact:.4f} vs {sim.summary()}"
        )

    def test_no_contention_matches_approximation(self):
        # B >= M: min(D, B) = D, so only the mean matters and the
        # binomial approximation becomes exact.
        model = paper_two_level_model(8)
        network = FullBusMemoryNetwork(8, 8, 8)
        assert exact_bandwidth(network, model) == pytest.approx(
            analytic_bandwidth(network, model), abs=1e-9
        )

    def test_exact_at_least_approximation(self):
        # Negative correlation only helps a concave serving function.
        model = paper_two_level_model(8)
        for scheme_net in (
            FullBusMemoryNetwork(8, 8, 4),
            SingleBusMemoryNetwork(8, 8, 4),
            PartialBusNetwork(8, 8, 4, 2),
            KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2]),
        ):
            assert exact_bandwidth(scheme_net, model) >= (
                analytic_bandwidth(scheme_net, model) - 1e-9
            )

    def test_independence_model_matches_formulas_exactly(self):
        # Under the independence workload the paper's formulas are exact
        # and so is the enumeration: they must agree to machine epsilon.
        x = 0.65
        model = MatrixRequestModel(np.eye(8), rate=x)
        for network in (
            FullBusMemoryNetwork(8, 8, 4),
            SingleBusMemoryNetwork(8, 8, 4),
            PartialBusNetwork(8, 8, 4, 2),
            KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2]),
        ):
            assert exact_bandwidth(network, model) == pytest.approx(
                analytic_bandwidth(network, model), abs=1e-12
            )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            exact_bandwidth(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(6, 8)
            )
        with pytest.raises(ConfigurationError):
            exact_bandwidth(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(8, 6)
            )


def _oracle_served(network, t: int) -> int:
    """Served count of requested-set bitmask ``t``, one subset at a time."""
    def bits(mask: int) -> int:
        return bin(t & mask).count("1")

    def mask_of(modules) -> int:
        return sum(1 << int(j) for j in modules)

    if isinstance(network, CrossbarNetwork):
        return bits(-1)
    if isinstance(network, KClassPartialBusNetwork):
        k, b = network.n_classes, network.n_buses
        counts = [
            bits(mask_of(network.modules_of_class(j)))
            for j in range(1, k + 1)
        ]
        served = 0
        for bus in range(1, b + 1):
            a = bus + k - b
            served += any(
                counts[j - 1] > j - a for j in range(max(a, 1), k + 1)
            )
        return served
    if isinstance(network, PartialBusNetwork):
        mg, bg = network.modules_per_group, network.buses_per_group
        return sum(
            min(bits(mask_of(range(g * mg, (g + 1) * mg))), bg)
            for g in range(network.n_groups)
        )
    if isinstance(network, SingleBusMemoryNetwork):
        return sum(
            bits(mask_of(network.memories_on_bus(bus))) > 0
            for bus in range(network.n_buses)
        )
    return min(bits(-1), network.n_buses)


#: exact_bandwidth of each scheme under FavoriteMemoryRequestModel(M, M,
#: 0.6, rate=0.9), as float.hex — the values of the subset-by-subset
#: implementation this one replaced, which must not move by one bit.
PINNED_EXACT = {
    ("full", 4): "0x1.f912ab535567ap+0",
    ("full", 12): "0x1.7f2fe9648d938p+2",
    ("full", 16): "0x1.ff86401b4a6c8p+2",
    ("single", 4): "0x1.ddd03fc8edc52p+0",
    ("single", 12): "0x1.5c60306d0ce92p+2",
    ("single", 16): "0x1.cf1de242cb5e0p+2",
    ("partial", 4): "0x1.ddd03fc8edc52p+0",
    ("partial", 12): "0x1.77b21e0f73b95p+2",
    ("partial", 16): "0x1.f8dc73e0bcbcfp+2",
    ("kclass", 4): "0x1.eb71758e21966p+0",
    ("kclass", 12): "0x1.6c57107c54964p+2",
    ("kclass", 16): "0x1.e531846dcbd8ap+2",
    ("crossbar", 4): "0x1.5f7fed4b1c890p+1",
    ("crossbar", 12): "0x1.0580a01df9086p+3",
    ("crossbar", 16): "0x1.5c6731dd8636fp+3",
}


class TestServedCountRule:
    @pytest.mark.parametrize("scheme,m", sorted(PINNED_EXACT), ids=str)
    def test_exact_bandwidth_matches_subset_oracle(self, scheme, m):
        kwargs = {"n_groups": 2} if scheme == "partial" else {}
        network = build_network(
            scheme, m, m, m if scheme == "crossbar" else m // 2, **kwargs
        )
        model = FavoriteMemoryRequestModel(m, m, 0.6, rate=0.9)
        oracle = np.array(
            [float(_oracle_served(network, t)) for t in range(1 << m)]
        )
        exact = exact_bandwidth(network, model)
        assert exact == float(requested_set_distribution(model) @ oracle)
        assert exact.hex() == PINNED_EXACT[(scheme, m)]

    def test_rule_on_rows_beyond_the_enumeration_cap(self):
        rng = np.random.default_rng(3)
        network = KClassPartialBusNetwork(
            24, 24, 6, class_sizes=[6, 6, 6, 6]
        )
        requested = rng.random((200, 24)) < 0.3
        masks = requested @ (1 << np.arange(24))
        expected = [_oracle_served(network, int(t)) for t in masks]
        assert served_counts(network, requested).tolist() == expected

    def test_rule_rejects_wrong_width(self):
        with pytest.raises(ConfigurationError, match="shape"):
            served_counts(
                FullBusMemoryNetwork(8, 8, 4), np.zeros((3, 7), dtype=bool)
            )

    def test_popcounts_match_bit_counting(self):
        counts = _popcounts(1 << 17)
        assert counts.tolist() == [bin(t).count("1") for t in range(1 << 17)]
