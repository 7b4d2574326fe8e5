"""Sweep executors: serial vs fabric invariance, caching, seeds."""

from __future__ import annotations

import json

import pytest

from repro.analysis.parallel import (
    ResultCache,
    parallel_map,
    seed_fingerprint,
    simulated_bandwidth_sweep,
    spawn_seeds,
)
from repro.exceptions import ConfigurationError
from repro.experiments import resubmission, validation
from repro.fabric import fabric_simulated_sweep

CYCLES = 800


def _square(x):
    return x * x


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_items(self):
        assert parallel_map(_square, []) == []

    def test_cache_requires_params_function(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cache_params"):
            parallel_map(_square, [1], cache=tmp_path / "unused")
        assert not (tmp_path / "unused").exists()

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        params = lambda x: {"x": x}  # noqa: E731
        first = parallel_map(_square, [2, 3], cache=cache, cache_params=params)
        assert first == [4, 9]
        assert len(cache) == 2
        # Second pass is served from disk — even for a different callable.
        second = parallel_map(
            lambda x: -1, [2, 3], cache=cache, cache_params=params
        )
        assert second == [4, 9]
        # A new key computes fresh.
        third = parallel_map(
            _square, [2, 4], cache=cache, cache_params=params
        )
        assert third == [4, 16]
        assert len(cache) == 3

    def test_cache_accepts_directory_path(self, tmp_path):
        out = parallel_map(
            _square,
            [5],
            cache=tmp_path / "sub",
            cache_params=lambda x: {"x": x},
        )
        assert out == [25]
        assert len(ResultCache(tmp_path / "sub")) == 1


class TestResultCache:
    def test_key_is_order_insensitive(self):
        assert ResultCache.key({"a": 1, "b": 2}) == ResultCache.key(
            {"b": 2, "a": 1}
        )
        assert ResultCache.key({"a": 1}) != ResultCache.key({"a": 2})

    def test_get_put_contains(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key({"cell": 1})
        assert key not in cache
        assert cache.get(key) is None
        cache.put(key, {"bandwidth": 3.5})
        assert key in cache
        assert cache.get(key) == {"bandwidth": 3.5}

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key({"cell": 1})
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.get(key, "fallback") == "fallback"


class TestSeeds:
    def test_spawn_is_deterministic_prefix_stable(self):
        a = spawn_seeds(42, 4)
        b = spawn_seeds(42, 6)
        assert [seed_fingerprint(s) for s in a] == [
            seed_fingerprint(s) for s in b[:4]
        ]
        assert seed_fingerprint(a[0]) != seed_fingerprint(a[1])

    def test_fingerprint_is_json_safe(self):
        (seed,) = spawn_seeds(1, 1)
        assert json.dumps(seed_fingerprint(seed))


class TestSimulatedSweep:
    def test_worker_count_invariance(self):
        kwargs = dict(n_cycles=CYCLES, seed=11)
        serial = simulated_bandwidth_sweep("full", 8, [2, 4], [1.0], **kwargs)
        fabric = fabric_simulated_sweep(
            "full", 8, [2, 4], [1.0], n_workers=2, **kwargs
        )
        assert serial == fabric
        assert len(serial) == 4  # 2 bus counts x {hier, unif}

    def test_unknown_network_kwarg_raises(self):
        # A misspelled (or removed) keyword must not read as a grid of
        # infeasible cells and come back as an empty sweep.
        with pytest.raises(ConfigurationError, match="n_workers"):
            simulated_bandwidth_sweep(
                "full", 8, [2, 4], [1.0], n_cycles=CYCLES, n_workers=4
            )

    def test_invalid_cells_skipped(self):
        # g=2 partial networks need even B: B=3 must be skipped like the
        # blank cells of the paper's tables.
        records = simulated_bandwidth_sweep(
            "partial", 8, [2, 3], [1.0], n_cycles=CYCLES, seed=1, n_groups=2
        )
        assert {r["B"] for r in records} == {2}

    def test_records_carry_analytic_and_ci(self):
        (record,) = simulated_bandwidth_sweep(
            "crossbar",
            4,
            [4],
            [1.0],
            n_cycles=CYCLES,
            seed=2,
            model_factory=lambda n, r: {
                "unif": __import__(
                    "repro.core.request_models", fromlist=["UniformRequestModel"]
                ).UniformRequestModel(n, n, rate=r)
            },
        )
        assert record["model"] == "unif"
        assert abs(record["bandwidth"] - record["analytic"]) <= 3 * max(
            record["ci95"], 1e-3
        )

    def test_cache_returns_identical_records(self, tmp_path):
        kwargs = dict(n_cycles=CYCLES, seed=5, cache=tmp_path)
        fresh = simulated_bandwidth_sweep("single", 8, [2], [0.5], **kwargs)
        cached = simulated_bandwidth_sweep("single", 8, [2], [0.5], **kwargs)
        assert fresh == cached
        # Changing the seed misses the cache (records differ).
        other = simulated_bandwidth_sweep(
            "single", 8, [2], [0.5], n_cycles=CYCLES, seed=6, cache=tmp_path
        )
        assert other != fresh


class TestExperimentParallelism:
    """``n_workers > 1`` runs E9/E12 on the fabric; records stay ``==``."""

    def test_validation_worker_invariance(self):
        serial = validation.run(n_cycles=CYCLES)
        fabric = validation.run(n_cycles=CYCLES, n_workers=3)
        assert serial.records == fabric.records

    def test_resubmission_worker_invariance(self):
        serial = resubmission.run(n_cycles=CYCLES)
        fabric = resubmission.run(n_cycles=CYCLES, n_workers=2)
        assert serial.records == fabric.records
        assert [r["r"] for r in fabric.records] == list(resubmission._RATES)
