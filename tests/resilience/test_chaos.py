"""Chaos tests: killed workers, corrupt cache entries, checkpoint/resume.

The acceptance scenario: a fabric sweep that loses a worker to SIGKILL
mid-run *and* starts against a cache containing one corrupt entry must
finish with records bit-identical to an undisturbed serial run, with the
worker death, the re-shard and the quarantine visible in the
observability manifest.  Determinism makes this checkable exactly:
per-cell seeds are spawned by cell index before dispatch, so no
crash/retry interleaving can change a record.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.parallel import (
    ResultCache,
    _simulated_cell,
    _simulated_cell_params,
    parallel_map,
    sweep_cell_specs,
)
from repro.fabric.coordinator import FabricConfig, FabricCoordinator
from repro.fabric.jobs import FabricJob
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
from repro.resilience.retry import RetryPolicy

SWEEP = dict(scheme="full", N=8, bus_counts=[2, 4], rates=[0.5, 1.0])


def _specs(n_cycles=300):
    return sweep_cell_specs(
        SWEEP["scheme"], SWEEP["N"], bus_counts=SWEEP["bus_counts"],
        rates=SWEEP["rates"], n_cycles=n_cycles, seed=11,
    )


def _flaky_marker_cell(item):
    """Serial-path worker: fails while its marker file exists."""
    marker = Path(item["marker"])
    if marker.exists():
        marker.unlink()
        raise OSError("transient unit failure")
    return item["value"] * 2


class TestChaosSweep:
    def test_killed_worker_and_corrupt_cache_still_bit_identical(
        self, tmp_path
    ):
        reference = parallel_map(_simulated_cell, _specs())

        cache = ResultCache(tmp_path / "cache")
        # Pre-corrupt the cache entry of the first cell (grid index 0).
        corrupt_key = cache.key(_simulated_cell_params(_specs()[0]))
        (cache.directory / f"{corrupt_key}.json").write_text("{not json")
        # Arm the kill switch: the first worker to claim it dies.
        marker = tmp_path / "kill-once"
        marker.write_text("armed")
        job = FabricJob(
            kind="sweep",
            params=dict(
                SWEEP, n_cycles=300, seed=11, kill_marker=str(marker)
            ),
        )

        with telemetry() as registry:
            report = FabricCoordinator(
                job,
                FabricConfig(
                    n_workers=2,
                    retry_policy=RetryPolicy(
                        max_attempts=3, backoff_seconds=0.01
                    ),
                ),
                cache=cache,
            ).run()
            manifest = build_manifest(registry)

        assert report.records == reference
        assert not marker.exists()

        fabric = manifest["fabric"]
        assert len(fabric["worker_deaths"]) >= 1
        assert sum(fabric["retries"].values()) >= 1
        assert manifest["resilience"]["total_retries"] == sum(
            fabric["retries"].values()
        )
        assert any(shard["attempt"] > 1 for shard in fabric["shards"])
        assert manifest["resilience"]["quarantined_cache_files"] == 1
        assert len(cache.quarantined_files()) == 1
        # The corrupt entry was recomputed and recached, verified this time.
        assert cache.get(corrupt_key) == reference[0]

    def test_serial_retry_path_recovers_transient_failures(self, tmp_path):
        markers = []
        items = []
        for i in range(3):
            marker = tmp_path / f"flake-{i}"
            marker.write_text("armed")
            markers.append(marker)
            items.append({"marker": str(marker), "value": i})

        with telemetry() as registry:
            results = parallel_map(
                _flaky_marker_cell,
                items,
                retry_policy=RetryPolicy(
                    max_attempts=2, backoff_seconds=0.0
                ),
            )
            retries = registry.counter_total("parallel.retries")
        assert results == [0, 2, 4]
        assert retries == 3

    def test_without_policy_errors_propagate_unchanged(self):
        def boom(_item):
            raise KeyError("original")

        with pytest.raises(KeyError):
            parallel_map(boom, [1])


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        cells = _specs(n_cycles=200)
        cache = ResultCache(tmp_path / "cache")

        # "Interrupted" run: only the first half completed and was cached.
        first_half = parallel_map(
            _simulated_cell,
            cells[:2],
            cache=cache,
            cache_params=_simulated_cell_params,
        )
        assert len(cache) == 2

        # Resume over the full grid: cached cells load, the rest compute.
        with telemetry() as registry:
            full = parallel_map(
                _simulated_cell,
                cells,
                cache=cache,
                cache_params=_simulated_cell_params,
            )
            hits = registry.counter_total("parallel.disk_cache.hits")
            computed = registry.counter_total("parallel.tasks")
        assert full[:2] == first_half
        assert hits == 2
        assert computed == len(cells) - 2
        assert len(cache) == len(cells)

        # A third run is served entirely from disk.
        with telemetry() as registry:
            again = parallel_map(
                _simulated_cell,
                cells,
                cache=cache,
                cache_params=_simulated_cell_params,
            )
            assert registry.counter_total("parallel.tasks") == 0
        assert again == full


class TestChecksummedCache:
    def test_roundtrip_is_enveloped_and_verified(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"bw": 3.5})
        raw = json.loads((tmp_path / "k.json").read_text())
        assert raw["__cache_format__"] == 1
        assert raw["sha256"] == ResultCache.value_digest({"bw": 3.5})
        assert cache.get("k") == {"bw": 3.5}
        assert cache.quarantined_files() == []

    def test_checksum_mismatch_quarantined_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"bw": 3.5})
        path = tmp_path / "k.json"
        tampered = json.loads(path.read_text())
        tampered["value"] = {"bw": 9.9}  # bit-rot / manual edit
        path.write_text(json.dumps(tampered))

        with telemetry() as registry:
            assert cache.get("k", "fallback") == "fallback"
            assert (
                registry.counter_total("parallel.disk_cache.quarantined") == 1
            )
        assert "k" not in cache
        assert cache.quarantined_files() == ["k.json"]
        # The quarantined file is preserved verbatim for post-mortem.
        kept = json.loads(
            (cache.quarantine_directory / "k.json").read_text()
        )
        assert kept["value"] == {"bw": 9.9}

    def test_unparseable_entry_quarantined_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad", 7) == 7
        assert cache.quarantined_files() == ["bad.json"]
        assert len(cache) == 0  # quarantine subdir not counted

    def test_legacy_bare_values_still_readable(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "old.json").write_text(json.dumps({"bw": 1.25}))
        assert cache.get("old") == {"bw": 1.25}
        assert cache.quarantined_files() == []
