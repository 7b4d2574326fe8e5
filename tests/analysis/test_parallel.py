"""Simulated sweeps: in-process vs fabric invariance, caching, seeds."""

from __future__ import annotations

import json

import pytest

from repro.analysis.parallel import (
    ResultCache,
    seed_fingerprint,
    sweep_cell_specs,
)
from repro.exceptions import ConfigurationError
from repro.experiments import resubmission, validation
from repro.fabric.coordinator import FabricConfig, FabricCoordinator
from repro.fabric.jobs import FabricJob, build_job
from repro.simulation.seeds import spawn_seeds

CYCLES = 800


def _sweep(scheme, n, bus_counts, rates, **params) -> FabricJob:
    return FabricJob(
        kind="sweep",
        params={
            "scheme": scheme, "N": n, "bus_counts": bus_counts,
            "rates": rates, "n_cycles": CYCLES, **params,
        },
    )


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
        job = _sweep("full", 8, [2, 4], [1.0], seed=11)
        in_process = build_job(job).run_in_process()
        fabric = FabricCoordinator(job, FabricConfig(n_workers=2)).run()
        assert in_process == fabric.records
        assert len(in_process) == 4  # 2 bus counts x {hier, unif}

    def test_unknown_network_kwarg_raises(self):
        # A misspelled (or removed) keyword must not read as a grid of
        # infeasible cells and come back as an empty sweep.
        with pytest.raises(ConfigurationError, match="n_workers"):
            sweep_cell_specs(
                "full", 8, [2, 4], [1.0], n_cycles=CYCLES, n_workers=4
            )

    def test_invalid_cells_skipped(self):
        # g=2 partial networks need even B: B=3 must be skipped like the
        # blank cells of the paper's tables.
        records = build_job(
            _sweep("partial", 8, [2, 3], [1.0], seed=1,
                   network_kwargs={"n_groups": 2})
        ).run_in_process()
        assert {r["B"] for r in records} == {2}

    def test_records_carry_analytic_and_ci(self):
        records = build_job(
            _sweep("crossbar", 8, [8], [1.0], seed=2)
        ).run_in_process()
        assert [r["model"] for r in records] == ["hier", "unif"]
        for record in records:
            assert record["M"] == record["N"] == 8
            assert abs(record["bandwidth"] - record["analytic"]) <= 3 * max(
                record["ci95"], 1e-3
            )

    def test_cache_returns_identical_records(self, tmp_path):
        def run(seed):
            return FabricCoordinator(
                _sweep("single", 8, [2], [0.5], seed=seed),
                FabricConfig(n_workers=1),
                cache=tmp_path,
            ).run()

        fresh, cached = run(5), run(5)
        assert fresh.records == cached.records
        assert cached.cache_hits == len(fresh.records)
        # Changing the seed misses the cache (records differ).
        other = run(6)
        assert other.cache_hits == 0
        assert other.records != fresh.records


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
