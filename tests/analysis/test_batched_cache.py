"""ResultCache batched checkpointing: buffer, flush triggers, crash
consistency of the published envelopes."""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.parallel import (
    ResultCache,
    _simulated_cell,
    _simulated_cell_params,
    parallel_map,
    sweep_cell_specs,
)
from repro.exceptions import ConfigurationError
from repro.obs.metrics import telemetry


def _entries_on_disk(cache: ResultCache) -> int:
    return len(list(cache.directory.glob("*.json")))


class TestValidation:
    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="flush_every"):
            ResultCache(tmp_path, flush_every=0)

    def test_flush_seconds_must_be_non_negative(self, tmp_path):
        with pytest.raises(ConfigurationError, match="flush_seconds"):
            ResultCache(tmp_path, flush_seconds=-1.0)


class TestUnbatchedDefault:
    def test_put_writes_through_immediately(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"v": 1})
        assert cache.pending == 0
        assert _entries_on_disk(cache) == 1


class TestBuffering:
    def test_put_buffers_until_flush_every(self, tmp_path):
        cache = ResultCache(tmp_path, flush_every=3)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        assert cache.pending == 2
        assert _entries_on_disk(cache) == 0
        cache.put("k3", {"v": 3})  # K-th put triggers the flush
        assert cache.pending == 0
        assert _entries_on_disk(cache) == 3

    def test_reads_see_buffered_entries(self, tmp_path):
        cache = ResultCache(tmp_path, flush_every=10)
        cache.put("k1", {"v": 1})
        assert "k1" in cache
        assert cache.get("k1") == {"v": 1}
        assert _entries_on_disk(cache) == 0

    def test_timed_flush_fires_on_the_next_put(self, tmp_path):
        cache = ResultCache(tmp_path, flush_every=100, flush_seconds=0.05)
        cache.put("k1", {"v": 1})
        assert cache.pending == 1
        time.sleep(0.08)
        cache.put("k2", {"v": 2})  # oldest pending entry is now too old
        assert cache.pending == 0
        assert _entries_on_disk(cache) == 2

    def test_explicit_flush_drains_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path, flush_every=100)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        with telemetry() as registry:
            assert cache.flush() == 2
            assert cache.flush() == 0  # idempotent when empty
        assert registry.counter_total("parallel.disk_cache.flushes") == 1
        assert (
            registry.counter_total("parallel.disk_cache.flushed_entries") == 2
        )
        assert cache.pending == 0
        assert _entries_on_disk(cache) == 2


class TestCrashConsistency:
    def test_flushed_entries_use_the_checksummed_envelope(self, tmp_path):
        batched = ResultCache(tmp_path, flush_every=4)
        for i in range(4):
            batched.put(f"k{i}", {"v": i})
        # A fresh, unbatched instance must verify and read every entry.
        fresh = ResultCache(tmp_path)
        for i in range(4):
            assert fresh.get(f"k{i}") == {"v": i}
        raw = json.loads((tmp_path / "k0.json").read_text())
        assert raw[ResultCache._FORMAT_KEY] == ResultCache._FORMAT
        assert raw["sha256"] == ResultCache.value_digest({"v": 0})

    def test_unflushed_entries_are_the_only_loss(self, tmp_path):
        # Simulate a crash by dropping the instance without flush():
        # published entries survive, the buffered tail is simply absent.
        cache = ResultCache(tmp_path, flush_every=3)
        for i in range(5):  # one flush at 3, two left buffered
            cache.put(f"k{i}", {"v": i})
        del cache
        survivor = ResultCache(tmp_path)
        for i in range(3):
            assert survivor.get(f"k{i}") == {"v": i}
        assert survivor.get("k3") is None
        assert survivor.get("k4") is None


class TestParallelMapIntegration:
    def test_sweep_flushes_at_the_barrier(self, tmp_path):
        specs = sweep_cell_specs(
            "full", 8, bus_counts=[2, 4], rates=[0.5, 1.0], n_cycles=100,
            seed=3,
        )
        cache = ResultCache(tmp_path, flush_every=1000)
        records = parallel_map(
            _simulated_cell, specs, cache=cache,
            cache_params=_simulated_cell_params,
        )
        # parallel_map flushes on the way out even though flush_every
        # was never reached, so a second run is served from disk.
        assert cache.pending == 0
        assert _entries_on_disk(cache) == len(records)

        rerun_specs = sweep_cell_specs(
            "full", 8, bus_counts=[2, 4], rates=[0.5, 1.0], n_cycles=100,
            seed=3,
        )
        with telemetry() as registry:
            rerun = parallel_map(
                _simulated_cell,
                rerun_specs,
                cache=ResultCache(tmp_path),
                cache_params=_simulated_cell_params,
            )
        assert rerun == records
        assert registry.counter_total("parallel.disk_cache.hits") == len(
            records
        )
