"""Tests for the batched analytic engine (analysis.batch).

Locks the whole-grid kernels to the scalar formulas: every cell of a
batch evaluation must equal the per-cell scalar path to 1e-12, across
all five schemes, both paper request models, and the heterogeneous
generalizations — and caching must never change a result.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import (
    bandwidth_full_batch,
    bandwidth_kclass_batch,
    bandwidth_partial_batch,
    bandwidth_single_batch,
    binomial_pmf_grid,
    scheme_bus_profile,
    tail_excess_all_buses,
    valid_bus_counts,
)
from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.sweep import bandwidth_sweep, paper_model_pair
from repro.core.bandwidth import (
    bandwidth_full,
    bandwidth_partial,
    bandwidth_single,
)
from repro.core.binomial import binomial_pmf, tail_excess
from repro.core.cache import pmf_cache
from repro.core.kclasses import bandwidth_kclass
from repro.core.request_models import MatrixRequestModel
from repro.exceptions import ConfigurationError, ModelError
from repro.topology.factory import build_network

SCHEMES = ("full", "single", "partial", "kclass", "crossbar")


def scalar_profile(scheme, n, m, bus_counts, model, **kwargs):
    """The per-cell reference path: build a network per count, no cache."""
    values = {}
    for b in bus_counts:
        try:
            network = build_network(scheme, n, m, b, **kwargs)
        except ConfigurationError:
            continue
        with pmf_cache.disabled():
            values[b] = analytic_bandwidth(network, model)
    return values


class TestTailExcessAllBuses:
    @given(
        n=st.integers(min_value=0, max_value=64),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_cap_tail_excess(self, n, p):
        pmf = binomial_pmf(n, p)
        excess = tail_excess_all_buses(pmf)
        assert excess.shape == pmf.shape
        for cap in range(n + 1):
            assert excess[cap] == pytest.approx(
                tail_excess(pmf, cap), abs=1e-12
            )

    def test_arbitrary_pmf(self):
        rng = np.random.default_rng(7)
        pmf = rng.random(33)
        pmf /= pmf.sum()
        excess = tail_excess_all_buses(pmf)
        for cap in range(33):
            assert excess[cap] == pytest.approx(
                tail_excess(pmf, cap), abs=1e-12
            )

    def test_degenerate_single_point(self):
        assert tail_excess_all_buses(np.array([1.0])).tolist() == [0.0]

    def test_two_dimensional_rows(self):
        grid = binomial_pmf_grid(12, [0.2, 0.7])
        excess = tail_excess_all_buses(grid)
        for row, p in enumerate((0.2, 0.7)):
            expected = tail_excess_all_buses(binomial_pmf(12, p))
            assert np.allclose(excess[row], expected, atol=1e-15)

    def test_last_cap_is_zero(self):
        excess = tail_excess_all_buses(binomial_pmf(9, 0.4))
        assert excess[9] == 0.0


class TestBinomialPmfGrid:
    @given(
        n=st.integers(min_value=0, max_value=48),
        ps=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_match_scalar_pmf(self, n, ps):
        grid = binomial_pmf_grid(n, ps)
        assert grid.shape == (len(ps), n + 1)
        for row, p in enumerate(ps):
            assert np.allclose(grid[row], binomial_pmf(n, p), atol=1e-15)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial_pmf_grid(-1, [0.5])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            binomial_pmf_grid(4, [1.5])


class TestBatchKernelsMatchScalars:
    BUS = list(range(1, 17))

    @pytest.mark.parametrize("x", [0.0, 0.1, 0.65639, 0.9, 1.0])
    def test_full(self, x):
        batch = bandwidth_full_batch(16, self.BUS, x)
        with pmf_cache.disabled():
            scalar = [bandwidth_full(16, b, x) for b in self.BUS]
        assert np.allclose(batch, scalar, atol=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.65639, 1.0])
    def test_partial(self, x):
        bus = [b for b in self.BUS if b % 2 == 0]
        batch = bandwidth_partial_batch(16, bus, 2, x)
        with pmf_cache.disabled():
            scalar = [bandwidth_partial(16, b, 2, x) for b in bus]
        assert np.allclose(batch, scalar, atol=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.65639, 1.0])
    def test_single(self, x):
        batch = bandwidth_single_batch(16, self.BUS, x)
        scalar = []
        for b in self.BUS:
            counts = build_network("single", 16, 16, b).modules_per_bus()
            scalar.append(bandwidth_single(counts, x))
        assert np.allclose(batch, scalar, atol=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.3, 0.65639, 1.0])
    def test_kclass_fixed_classes(self, x):
        sizes = [2, 2, 2, 2]
        bus = list(range(4, 9))
        batch = bandwidth_kclass_batch(sizes, bus, x)
        with pmf_cache.disabled():
            scalar = [bandwidth_kclass(sizes, b, x) for b in bus]
        assert np.allclose(batch, scalar, atol=1e-12)

    def test_kclass_per_class_probabilities(self):
        sizes = [3, 5]
        bus = [2, 4, 8]
        xs = [0.2, 0.7]
        batch = bandwidth_kclass_batch(sizes, bus, xs)
        with pmf_cache.disabled():
            scalar = [bandwidth_kclass(sizes, b, xs) for b in bus]
        assert np.allclose(batch, scalar, atol=1e-12)

    def test_kclass_requires_enough_buses(self):
        with pytest.raises(ConfigurationError):
            bandwidth_kclass_batch([2, 2, 2], [2], 0.5)

    def test_partial_rejects_indivisible_bus_count(self):
        with pytest.raises(ConfigurationError):
            bandwidth_partial_batch(16, [3], 2, 0.5)


class TestSchemeBusProfile:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rate", [1.0, 0.5])
    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_scalar_path_paper_models(self, scheme, rate, n):
        bus = list(range(1, n + 1))
        for model in paper_model_pair(n, rate).values():
            profile = scheme_bus_profile(scheme, n, n, bus, model)
            scalar = scalar_profile(scheme, n, n, bus, model)
            assert set(profile.values) == set(scalar)
            for b, expected in scalar.items():
                assert profile.values[b] == pytest.approx(
                    expected, abs=1e-12
                )
            assert {c.n_buses for c in profile.skipped} == (
                set(bus) - set(scalar)
            )

    @pytest.mark.parametrize(
        "scheme,kwargs",
        [
            ("full", {}),
            ("single", {}),
            ("partial", {"n_groups": 2}),
            ("partial", {"n_groups": 4}),
            ("crossbar", {}),
        ],
    )
    def test_matches_scalar_path_heterogeneous(self, scheme, kwargs):
        rng = np.random.default_rng(3)
        n = 8
        fractions = rng.random((n, n))
        fractions /= fractions.sum(axis=1, keepdims=True)
        model = MatrixRequestModel(fractions, rate=0.85)
        bus = list(range(1, n + 1))
        profile = scheme_bus_profile(scheme, n, n, bus, model, **kwargs)
        scalar = scalar_profile(scheme, n, n, bus, model, **kwargs)
        assert set(profile.values) == set(scalar)
        for b, expected in scalar.items():
            assert profile.values[b] == pytest.approx(expected, abs=1e-12)

    def test_kclass_heterogeneous_class_uniform(self):
        n = 8
        fractions = np.zeros((n, n))
        fractions[:, :4] = 0.15
        fractions[:, 4:] = 0.10
        model = MatrixRequestModel(fractions, rate=1.0)
        bus = list(range(1, n + 1))
        kwargs = {"class_sizes": [4, 4]}
        profile = scheme_bus_profile("kclass", n, n, bus, model, **kwargs)
        scalar = scalar_profile("kclass", n, n, bus, model, **kwargs)
        assert set(profile.values) == set(scalar)
        for b, expected in scalar.items():
            assert profile.values[b] == pytest.approx(expected, abs=1e-12)

    def test_kclass_heterogeneous_non_uniform_raises(self):
        rng = np.random.default_rng(5)
        n = 8
        fractions = rng.random((n, n))
        fractions /= fractions.sum(axis=1, keepdims=True)
        model = MatrixRequestModel(fractions, rate=1.0)
        with pytest.raises(ModelError):
            scheme_bus_profile(
                "kclass", n, n, [4], model, class_sizes=[4, 4]
            )

    def test_exotic_kwargs_fall_back_to_network_path(self):
        from repro.core.request_models import UniformRequestModel

        model = UniformRequestModel(8, 8)
        assignment = [0, 0, 1, 1, 2, 2, 3, 3]
        profile = scheme_bus_profile(
            "single", 8, 8, [4], model, bus_of_module=assignment
        )
        scalar = scalar_profile(
            "single", 8, 8, [4], model, bus_of_module=assignment
        )
        assert profile.values[4] == pytest.approx(scalar[4], abs=1e-12)

    def test_dimension_mismatch_raises(self):
        from repro.core.request_models import UniformRequestModel

        with pytest.raises(ConfigurationError):
            scheme_bus_profile(
                "full", 8, 8, [2], UniformRequestModel(4, 4)
            )

    def test_crossbar_tenure_reads_module_probabilities_once(
        self, monkeypatch
    ):
        from repro.core.hierarchy import paper_two_level_model
        from repro.core.priority import crossbar_tenure_bandwidth

        model = paper_two_level_model(16, rate=0.4)
        xs = model.module_request_probabilities()
        calls = []

        def counted():
            calls.append(None)
            return xs

        monkeypatch.setattr(model, "module_request_probabilities", counted)
        profile = scheme_bus_profile("crossbar", 16, 16, [8], model, tenure=2.5)
        assert len(calls) == 1
        assert profile.values == {
            8: crossbar_tenure_bandwidth([float(v) for v in xs], 2.5)
        }
        assert profile.skipped == []

    def test_skips_carry_reasons(self):
        from repro.core.request_models import UniformRequestModel

        model = UniformRequestModel(8, 8)
        profile = scheme_bus_profile(
            "partial", 8, 8, [2, 3, 9], model, n_groups=2
        )
        reasons = {c.n_buses: c.reason for c in profile.skipped}
        assert set(reasons) == {3, 9}
        assert "divide" in reasons[3]
        assert "exceeds" in reasons[9]


class TestValidBusCounts:
    def test_basic_bounds(self):
        valid, skipped = valid_bus_counts("full", 8, [0, 1, 8, 9])
        assert valid == [1, 8]
        assert {c.n_buses for c in skipped} == {0, 9}

    def test_crossbar_ignores_bus_count(self):
        valid, skipped = valid_bus_counts("crossbar", 8, [0, 5, 99])
        assert valid == [0, 5, 99]
        assert skipped == []

    def test_kclass_explicit_sizes(self):
        valid, skipped = valid_bus_counts(
            "kclass", 8, [2, 3, 4], class_sizes=[2, 3, 3]
        )
        assert valid == [3, 4]
        assert {c.n_buses for c in skipped} == {2}


class TestCachingNeverChangesResults:
    def test_cold_vs_warm_sweep_equality(self):
        grid = dict(
            bus_counts=tuple(range(1, 17)), rates=(1.0, 0.5)
        )
        pmf_cache.clear()
        cold = {
            scheme: bandwidth_sweep(scheme, 16, **grid)
            for scheme in SCHEMES
        }
        warm = {
            scheme: bandwidth_sweep(scheme, 16, **grid)
            for scheme in SCHEMES
        }
        assert pmf_cache.cache_info().hits > 0
        assert warm == cold

    def test_warm_paper_grid_hit_rate_above_90_percent(self):
        # The acceptance criterion: rerunning the paper's grid must serve
        # >90% of pmf lookups from the shared cache.
        def paper_grid():
            for scheme in SCHEMES:
                for n in (8, 12, 16):
                    bandwidth_sweep(
                        scheme, n, bus_counts=range(1, n + 1),
                        rates=(1.0, 0.5),
                    )

        pmf_cache.clear()
        paper_grid()  # cold: populate
        before = pmf_cache.cache_info()
        paper_grid()  # warm: must hit
        after = pmf_cache.cache_info()
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        assert misses == 0 or hits / (hits + misses) > 0.90


class TestSweepEngineEquivalence:
    """The rewired sweep must equal the legacy per-cell loop cell by cell."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bandwidth_sweep_matches_legacy(self, scheme):
        bus_counts = tuple(range(1, 13))
        rates = (1.0, 0.5)
        n = 12
        records = bandwidth_sweep(scheme, n, bus_counts, rates)
        legacy = []
        for rate in rates:
            models = paper_model_pair(n, rate)
            for b in bus_counts:
                try:
                    network = build_network(scheme, n, n, b)
                except ConfigurationError:
                    continue
                for name, model in models.items():
                    with pmf_cache.disabled():
                        legacy.append(
                            {
                                "scheme": scheme, "N": n, "M": n, "B": b,
                                "r": rate, "model": name,
                                "bandwidth": analytic_bandwidth(
                                    network, model
                                ),
                            }
                        )
        assert len(records) == len(legacy)
        for new, old in zip(records, legacy):
            assert {k: v for k, v in new.items() if k != "bandwidth"} == {
                k: v for k, v in old.items() if k != "bandwidth"
            }
            assert new["bandwidth"] == pytest.approx(
                old["bandwidth"], abs=1e-9
            )
