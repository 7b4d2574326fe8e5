"""Chaos tests: killed workers, corrupt cache entries, checkpoint/resume.

The acceptance scenario: a fabric sweep that loses a worker to SIGKILL
mid-run *and* starts against a cache containing one corrupt entry must
finish with records bit-identical to the undisturbed job run in process,
with the worker death, the re-shard and the quarantine visible in the
observability manifest.  A sweep stopped by an exhausted retry budget
keeps its completed cells in the cache and resumes from them.
Determinism makes this checkable exactly: per-cell seeds are spawned by
cell index before dispatch, so no crash/retry interleaving can change a
record.
"""

import json

import pytest

from repro.analysis.parallel import ResultCache, _simulated_cell_params
from repro.exceptions import RetryExhaustedError
from repro.fabric.coordinator import FabricConfig, FabricCoordinator
from repro.fabric.gridslice import Grid
from repro.fabric.jobs import FabricJob, JobPlan, build_job
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
from repro.resilience.retry import RetryPolicy

SWEEP = dict(scheme="full", N=8, bus_counts=[2, 4], rates=[0.5, 1.0])


def _job(n_cycles=300, **chaos) -> FabricJob:
    return FabricJob(
        kind="sweep", params=dict(SWEEP, n_cycles=n_cycles, seed=11, **chaos)
    )


class TestChaosSweep:
    def test_killed_worker_and_corrupt_cache_still_bit_identical(
        self, tmp_path
    ):
        plan = build_job(_job())
        reference = plan.run_in_process()

        cache = ResultCache(tmp_path / "cache")
        # Pre-corrupt the cache entry of the first cell (grid index 0).
        corrupt_key = cache.key(_simulated_cell_params(plan.cells[0]))
        (cache.directory / f"{corrupt_key}.json").write_text("{not json")
        # Arm the kill switch: the first worker to claim it dies.
        marker = tmp_path / "kill-once"
        marker.write_text("armed")
        job = _job(kill_marker=str(marker))

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

    def test_without_policy_errors_propagate_unchanged(self):
        # The in-process run has no retry policy: the first failure
        # propagates as raised.
        def boom(_spec):
            raise KeyError("original")

        plan = JobPlan(grid=Grid((("x", (0,)),)), cells={0: {}}, evaluate=boom)
        with pytest.raises(KeyError):
            plan.run_in_process()


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        reference = build_job(_job(n_cycles=200)).run_in_process()
        cache = ResultCache(tmp_path / "cache")

        # "Interrupted" run: one cell fails on its only attempt, so the
        # retry budget is spent; every other cell completed and was
        # written to the cache as it arrived.
        marker = tmp_path / "poison-once"
        marker.touch()
        with pytest.raises(RetryExhaustedError):
            FabricCoordinator(
                _job(n_cycles=200, poison_marker=str(marker)),
                FabricConfig(
                    n_workers=1,
                    retry_policy=RetryPolicy(
                        max_attempts=1, backoff_seconds=0.0
                    ),
                ),
                cache=cache,
            ).run()
        completed = len(cache)
        assert completed == len(reference) - 1

        # Resume over the full grid: cached cells load, the rest compute.
        with telemetry() as registry:
            report = FabricCoordinator(
                _job(n_cycles=200), FabricConfig(n_workers=1), cache=cache
            ).run()
            hits = registry.counter_total("fabric.cache_hits")
            computed = registry.counter_total("fabric.results")
        assert report.records == reference
        assert hits == report.cache_hits == completed
        assert computed == len(reference) - completed
        assert len(cache) == len(reference)

        # A third run is served entirely from disk, with no worker.
        again = FabricCoordinator(
            _job(n_cycles=200), FabricConfig(n_workers=1), cache=cache
        ).run()
        assert again.records == reference
        assert again.n_workers == 0


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

    def test_non_envelope_entry_quarantined_never_served(self, tmp_path):
        # A bare value (no checksummed envelope) is never served: keys
        # are SHA-256 of the params, so a stale file is recomputed.
        cache = ResultCache(tmp_path)
        (tmp_path / "old.json").write_text(json.dumps({"bw": 1.25}))
        with telemetry() as registry:
            assert cache.get("old", "fallback") == "fallback"
            assert registry.counter_value(
                "parallel.disk_cache.quarantined", reason="not-an-envelope"
            ) == 1
        assert "old" not in cache
        assert cache.quarantined_files() == ["old.json"]
