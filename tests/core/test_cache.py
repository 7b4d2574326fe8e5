"""Tests for the shared pmf memoization layer (core.cache)."""

import numpy as np
import pytest

from repro.core.bandwidth import bandwidth_full, request_count_pmf
from repro.core.binomial import binomial_pmf, poisson_binomial_pmf
from repro.core.cache import (
    PmfCache,
    cached_binomial_pmf,
    cached_poisson_binomial_pmf,
    pmf_cache,
)
from repro.core.kclasses import bandwidth_kclass


class TestPmfCacheBasics:
    def test_binomial_matches_uncached(self):
        cache = PmfCache()
        assert np.array_equal(cache.binomial(9, 0.37), binomial_pmf(9, 0.37))

    def test_poisson_binomial_matches_uncached(self):
        cache = PmfCache()
        ps = [0.1, 0.5, 0.9]
        assert np.array_equal(
            cache.poisson_binomial(ps), poisson_binomial_pmf(ps)
        )

    def test_second_lookup_is_a_hit_and_same_object(self):
        cache = PmfCache()
        first = cache.binomial(6, 0.5)
        second = cache.binomial(6, 0.5)
        assert first is second
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_poisson_binomial_content_keyed(self):
        cache = PmfCache()
        cache.poisson_binomial([0.2, 0.4])
        cache.poisson_binomial(np.array([0.2, 0.4]))  # equal content: hit
        cache.poisson_binomial((0.2, 0.5))  # different content: miss
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_clamped_probabilities_share_an_entry(self):
        cache = PmfCache()
        cache.binomial(4, 0.0)
        cache.binomial(4, -1e-12)  # clamps to 0.0: same key
        assert cache.cache_info().hits == 1

    def test_returned_arrays_are_read_only(self):
        cache = PmfCache()
        pmf = cache.binomial(5, 0.3)
        with pytest.raises(ValueError):
            pmf[0] = 1.0

    def test_lru_eviction(self):
        cache = PmfCache(maxsize=2)
        cache.binomial(2, 0.1)
        cache.binomial(2, 0.2)
        cache.binomial(2, 0.1)  # refresh the first entry
        cache.binomial(2, 0.3)  # evicts the 0.2 entry
        assert cache.cache_info().currsize == 2
        cache.binomial(2, 0.1)
        assert cache.cache_info().hits == 2  # 0.1 survived
        cache.binomial(2, 0.2)
        assert cache.cache_info().misses == 4  # 0.2 was evicted

    def test_clear_resets_counters_and_entries(self):
        cache = PmfCache()
        cache.binomial(3, 0.5)
        cache.binomial(3, 0.5)
        cache.clear()
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_hit_rate(self):
        cache = PmfCache()
        assert cache.cache_info().hit_rate == 0.0
        cache.binomial(3, 0.5)
        cache.binomial(3, 0.5)
        cache.binomial(3, 0.5)
        assert cache.cache_info().hit_rate == pytest.approx(2 / 3)

    def test_disabled_bypasses_counters_and_storage(self):
        cache = PmfCache()
        with cache.disabled():
            a = cache.binomial(7, 0.25)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert np.array_equal(a, binomial_pmf(7, 0.25))

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            PmfCache(maxsize=0)


class TestSharedCacheWiring:
    def test_request_count_pmf_served_from_shared_cache(self):
        pmf_cache.clear()
        request_count_pmf(11, 0.42)
        before = pmf_cache.cache_info().hits
        request_count_pmf(11, 0.42)
        assert pmf_cache.cache_info().hits == before + 1

    def test_module_helpers_delegate_to_shared_cache(self):
        pmf_cache.clear()
        a = cached_binomial_pmf(5, 0.6)
        b = cached_binomial_pmf(5, 0.6)
        assert a is b
        c = cached_poisson_binomial_pmf([0.2, 0.3])
        d = cached_poisson_binomial_pmf([0.2, 0.3])
        assert c is d

    def test_schemes_share_pmf_entries(self):
        # Eq. (4) at (M, X) and eq. (10)'s class pmf at the same (M_j, X)
        # must reuse one cache entry; equal classes look it up once.
        pmf_cache.clear()
        bandwidth_full(4, 2, 0.37)
        before = pmf_cache.cache_info()
        bandwidth_kclass([4, 4], 4, 0.37)  # class pmfs: Binomial(4, 0.37) x2
        after = pmf_cache.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_cold_vs_warm_results_identical(self):
        pmf_cache.clear()
        with pmf_cache.disabled():
            cold_full = bandwidth_full(16, 8, 0.65639)
            cold_kclass = bandwidth_kclass([4, 4, 4, 4], 8, 0.65639)
        warm_full = [bandwidth_full(16, 8, 0.65639) for _ in range(2)]
        warm_kclass = [
            bandwidth_kclass([4, 4, 4, 4], 8, 0.65639) for _ in range(2)
        ]
        assert warm_full == [cold_full, cold_full]
        assert warm_kclass == [cold_kclass, cold_kclass]
        assert pmf_cache.cache_info().hits > 0
