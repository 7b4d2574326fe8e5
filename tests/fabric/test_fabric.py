"""End-to-end fabric tests: parity with the serial executor at several
worker counts, crash re-sharding, retries and cache integration.

The load-bearing property everywhere: per-cell seeds are spawned by
grid index when the job is built, so records must be ``==``-identical
to the single-process executor for any worker count, shard boundary,
or crash/retry interleaving.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.parallel import (
    _simulated_cell,
    parallel_map,
    sweep_cell_specs,
)
from repro.exceptions import ConfigurationError, RetryExhaustedError
from repro.fabric.coordinator import (
    FabricConfig,
    FabricCoordinator,
    FabricLimits,
    fabric_simulated_sweep,
)
from repro.fabric.jobs import FabricJob, build_job
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
from repro.resilience.retry import RetryPolicy

SWEEP_KW = dict(
    scheme="full",
    N=8,
    bus_counts=[2, 4],
    rates=[0.5, 1.0],
    n_cycles=250,
    seed=11,
    backend="auto",
)


def _sweep_job(**extra) -> FabricJob:
    return FabricJob(kind="sweep", params={**SWEEP_KW, **extra})


@pytest.fixture(scope="module")
def serial_records():
    """The single-process ground truth for SWEEP_KW."""
    specs = sweep_cell_specs(
        SWEEP_KW["scheme"],
        SWEEP_KW["N"],
        bus_counts=SWEEP_KW["bus_counts"],
        rates=SWEEP_KW["rates"],
        n_cycles=SWEEP_KW["n_cycles"],
        seed=SWEEP_KW["seed"],
        backend=SWEEP_KW["backend"],
    )
    return parallel_map(_simulated_cell, specs)


class TestTopology:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FabricConfig(n_workers=0)


class TestJobs:
    def test_sweep_plan_matches_serial_enumeration(self, serial_records):
        plan = build_job(_sweep_job())
        assert sorted(plan.cells) == list(range(plan.grid.size))
        # Grid order == the serial executor's record order.
        for position, index in enumerate(sorted(plan.cells)):
            spec = plan.cells[index]
            record = serial_records[position]
            assert (spec["r"], spec["B"], spec["model_name"]) == (
                record["r"],
                record["B"],
                record["model"],
            )

    def test_cells_survive_reevaluation(self):
        # Evaluating a cell leaves its spec unchanged, so evaluating the
        # same cell twice (a retry) yields the identical record.
        plan = build_job(_sweep_job())
        assert plan.run_cell(0) == plan.run_cell(0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fabric job"):
            build_job(FabricJob(kind="nope", params={}))

    def test_unknown_model_factory_rejected(self):
        with pytest.raises(ConfigurationError, match="model factory"):
            build_job(_sweep_job(model_factory="evil.import"))


class TestFabricParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_two_workers_bit_identical(self, serial_records, n_workers):
        report = FabricCoordinator(
            _sweep_job(), FabricConfig(n_workers=n_workers)
        ).run()
        assert report.records == serial_records
        assert report.n_workers == n_workers
        nodes = set(range(1, n_workers + 1))
        assert {entry["node"] for entry in report.shard_map} == nodes
        assert set(report.worker_timings) == nodes
        assert sum(t["cells"] for t in report.worker_timings.values()) == len(
            serial_records
        )


class TestChaos:
    def test_sigkilled_worker_is_reshard_and_bit_identical(
        self, serial_records, tmp_path
    ):
        # Exactly one worker claims the marker and SIGKILLs itself
        # before its first cell; the coordinator must re-shard only the
        # lost cells and still produce identical records.
        marker = tmp_path / "kill-once"
        marker.touch()
        with telemetry() as registry:
            report = FabricCoordinator(
                _sweep_job(kill_marker=str(marker)),
                FabricConfig(
                    n_workers=2, limits=FabricLimits(heartbeat_timeout=15.0)
                ),
            ).run()
        assert report.records == serial_records
        assert len(report.worker_deaths) == 1
        assert report.retries >= 1
        retried = [s for s in report.shard_map if s["attempt"] > 1]
        assert retried, "the lost slice must be re-dispatched"

        fabric = build_manifest(registry)["fabric"]
        assert fabric["workers_spawned"] == 2
        assert len(fabric["worker_deaths"]) == 1
        assert any(shard["attempt"] > 1 for shard in fabric["shards"])
        assert fabric["results"] == len(serial_records)

    def test_soft_cell_failure_retries_elsewhere(
        self, serial_records, tmp_path
    ):
        # One cell raises once (whoever claims the marker); the worker
        # survives, reports the error, and the cell retries.
        marker = tmp_path / "poison-once"
        marker.touch()
        report = FabricCoordinator(
            _sweep_job(poison_marker=str(marker)),
            FabricConfig(n_workers=2),
        ).run()
        assert report.records == serial_records
        assert report.worker_deaths == []
        assert report.retries >= 1

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        marker = tmp_path / "poison"
        marker.touch()
        with pytest.raises(RetryExhaustedError):
            FabricCoordinator(
                _sweep_job(poison_marker=str(marker)),
                FabricConfig(
                    n_workers=1,
                    retry_policy=RetryPolicy(
                        max_attempts=1, backoff_seconds=0.0
                    ),
                ),
            ).run()


class TestCacheIntegration:
    def test_second_run_is_served_from_cache_without_workers(
        self, serial_records, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        first = fabric_simulated_sweep(
            scheme=SWEEP_KW["scheme"],
            n_processors=SWEEP_KW["N"],
            bus_counts=SWEEP_KW["bus_counts"],
            rates=SWEEP_KW["rates"],
            n_cycles=SWEEP_KW["n_cycles"],
            seed=SWEEP_KW["seed"],
            backend=SWEEP_KW["backend"],
            n_workers=2,
            cache=cache_dir,
        )
        assert first == serial_records
        coordinator = FabricCoordinator(
            _sweep_job(), FabricConfig(n_workers=2), cache=cache_dir
        )
        report = coordinator.run()
        assert report.records == serial_records
        assert report.cache_hits == len(serial_records)
        assert report.shard_map == []  # nothing left to dispatch
        assert coordinator.pids == {}  # no worker was ever spawned
        assert report.n_workers == 0

    def test_fabric_shares_cache_identity_with_parallel_map(
        self, serial_records, tmp_path
    ):
        # Records checkpointed by the in-process executor satisfy the
        # fabric (same ResultCache key function), and vice versa.
        cache_dir = tmp_path / "cache"
        from repro.analysis.parallel import _simulated_cell_params

        specs = sweep_cell_specs(
            SWEEP_KW["scheme"],
            SWEEP_KW["N"],
            bus_counts=SWEEP_KW["bus_counts"],
            rates=SWEEP_KW["rates"],
            n_cycles=SWEEP_KW["n_cycles"],
            seed=SWEEP_KW["seed"],
            backend=SWEEP_KW["backend"],
        )
        parallel_map(
            _simulated_cell,
            specs,
            cache=cache_dir,
            cache_params=_simulated_cell_params,
        )
        report = FabricCoordinator(
            _sweep_job(), FabricConfig(n_workers=2), cache=cache_dir
        ).run()
        assert report.records == serial_records
        assert report.cache_hits == len(serial_records)


class TestValidationExperiment:
    def test_fabric_records_match_in_process(self):
        from repro.experiments import validation

        baseline = validation.run(n_cycles=150, seed=5)
        fabricated = validation.run(n_cycles=150, seed=5, n_workers=2)
        assert fabricated.records == baseline.records


class TestRecordsAreJsonSafe:
    def test_fabric_records_survive_json(self, serial_records):
        # The wire is JSON; serial records must round-trip exactly for
        # the == parity contract to be meaningful.
        assert json.loads(json.dumps(serial_records)) == serial_records
