"""Cross-cutting property tests tying the estimator stack together.

Hypothesis-driven invariants that hold across randomly generated
machines and workloads:

* exact enumeration is bounded between the paper's approximation and
  the bus/demand ceilings;
* every scheme's bandwidth is monotone in the request rate;
* restricting connectivity never gains bandwidth (full is the envelope);
* the simulator, closed forms and exact enumeration rank schemes the
  same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.exact import exact_bandwidth
from repro.core.hierarchy import HierarchicalRequestModel
from repro.core.request_models import UniformRequestModel
from repro.topology.factory import equal_class_sizes
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork


@st.composite
def small_machine(draw):
    """(N, B, model) with N in {4, 6, 8} and a random two-level model."""
    n = draw(st.sampled_from([4, 6, 8]))
    b = draw(st.integers(min_value=1, max_value=n))
    rate = draw(st.floats(min_value=0.1, max_value=1.0))
    favourite = draw(st.floats(min_value=0.3, max_value=0.9))
    rest = 1.0 - favourite
    inner = draw(st.floats(min_value=0.0, max_value=1.0)) * rest
    model = HierarchicalRequestModel.from_aggregate_fractions(
        (2, n // 2), (favourite, inner, rest - inner), rate=rate
    )
    return n, b, model


class TestExactBounds:
    @given(small_machine())
    @settings(max_examples=30, deadline=None)
    def test_exact_between_approximation_and_ceilings(self, machine):
        n, b, model = machine
        network = FullBusMemoryNetwork(n, n, b)
        approx = analytic_bandwidth(network, model)
        exact = exact_bandwidth(network, model)
        assert exact >= approx - 1e-9
        x_sum = float(model.module_request_probabilities().sum())
        assert exact <= min(b, x_sum) + 1e-9

    @given(small_machine())
    @settings(max_examples=20, deadline=None)
    def test_exact_single_at_least_formula(self, machine):
        n, b, model = machine
        network = SingleBusMemoryNetwork(n, n, b)
        assert exact_bandwidth(network, model) >= (
            analytic_bandwidth(network, model) - 1e-9
        )


class TestMonotonicity:
    @given(
        n=st.sampled_from([4, 8]),
        b=st.integers(min_value=1, max_value=4),
        rates=st.tuples(
            st.floats(min_value=0.05, max_value=0.5),
            st.floats(min_value=0.5, max_value=1.0),
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_bandwidth_monotone_in_rate(self, n, b, rates):
        low, high = rates
        network = FullBusMemoryNetwork(n, n, b)
        low_bw = analytic_bandwidth(
            network, UniformRequestModel(n, n, rate=low)
        )
        high_bw = analytic_bandwidth(
            network, UniformRequestModel(n, n, rate=high)
        )
        assert low_bw <= high_bw + 1e-9

    @given(small_machine())
    @settings(max_examples=25, deadline=None)
    def test_full_is_the_envelope(self, machine):
        n, b, model = machine
        full = analytic_bandwidth(FullBusMemoryNetwork(n, n, b), model)
        single = analytic_bandwidth(SingleBusMemoryNetwork(n, n, b), model)
        assert single <= full + 1e-9
        kclass = analytic_bandwidth(
            KClassPartialBusNetwork(
                n, n, b, class_sizes=equal_class_sizes(n, b)
            ),
            model,
        )
        assert kclass <= full + 1e-9
        if b % 2 == 0 and n % 2 == 0:
            partial = analytic_bandwidth(
                PartialBusNetwork(n, n, b, 2), model
            )
            assert partial <= full + 1e-9


class TestEstimatorConsistency:
    def test_all_estimators_rank_schemes_identically(self):
        n, b = 8, 4
        model = HierarchicalRequestModel.from_aggregate_fractions(
            (2, 4), (0.6, 0.25, 0.15), rate=0.8
        )
        networks = {
            "full": FullBusMemoryNetwork(n, n, b),
            "partial": PartialBusNetwork(n, n, b, 2),
            "kclass": KClassPartialBusNetwork(
                n, n, b, class_sizes=[2, 2, 2, 2]
            ),
            "single": SingleBusMemoryNetwork(n, n, b),
        }
        approx_order = sorted(
            networks, key=lambda s: -analytic_bandwidth(networks[s], model)
        )
        exact_order = sorted(
            networks, key=lambda s: -exact_bandwidth(networks[s], model)
        )
        assert approx_order == exact_order

    def test_exact_linear_in_distribution(self):
        # Mixing two workloads mixes bandwidths (serving is per-set
        # deterministic, expectation is linear).  Checked via rates.
        n, b = 6, 3
        network = FullBusMemoryNetwork(n, n, b)
        lo = UniformRequestModel(n, n, rate=0.2)
        hi = UniformRequestModel(n, n, rate=0.8)
        mid = UniformRequestModel(n, n, rate=0.5)
        # Not exactly linear in rate (the set distribution is not), but
        # it must lie strictly between the endpoints.
        assert (
            exact_bandwidth(network, lo)
            < exact_bandwidth(network, mid)
            < exact_bandwidth(network, hi)
        )


class TestRunnerJson:
    def test_json_output(self, capsys):
        import json

        from repro.experiments.runner import main

        code = main(["table1", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert payload[0]["experiment_id"] == "table1"
        assert payload[0]["reproduces"] is True
        assert payload[0]["paper_cells_compared"] == 8


class TestDeepHierarchy:
    """Three-level hierarchies agree across all three estimators."""

    def test_three_level_exact_vs_analytic_no_contention(self):
        model = HierarchicalRequestModel.from_aggregate_fractions(
            (2, 2, 2), (0.4, 0.3, 0.2, 0.1), rate=0.9
        )
        network = FullBusMemoryNetwork(8, 8, 8)
        assert exact_bandwidth(network, model) == pytest.approx(
            analytic_bandwidth(network, model), abs=1e-9
        )

    def test_three_level_exact_bounds_analytic(self):
        model = HierarchicalRequestModel.from_aggregate_fractions(
            (2, 2, 2), (0.4, 0.3, 0.2, 0.1), rate=1.0
        )
        for b in (2, 4, 6):
            network = FullBusMemoryNetwork(8, 8, b)
            approx = analytic_bandwidth(network, model)
            exact = exact_bandwidth(network, model)
            assert approx - 1e-9 <= exact <= min(b, 8.0) + 1e-9

    def test_three_level_simulation_matches_exact(self):
        from repro.simulation.engine import simulate_bandwidth

        model = HierarchicalRequestModel.from_aggregate_fractions(
            (2, 2, 2), (0.4, 0.3, 0.2, 0.1), rate=1.0
        )
        network = FullBusMemoryNetwork(8, 8, 4)
        exact = exact_bandwidth(network, model)
        sim = simulate_bandwidth(network, model, n_cycles=30_000, seed=21)
        assert sim.agrees_with(exact, slack=0.02)
