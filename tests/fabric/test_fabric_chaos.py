"""Chaos-plan fabric runs: injected crashes, corrupt frames, deadlines.

The acceptance property inherited from the fabric suite: per-cell seeds
are spawned by grid index at job build, so *any* injected failure the
re-shard path absorbs must leave the records ``==``-identical to the
single-process executor.  The chaos plans here are fully derandomized
(``calls`` triggers), so every run replays the same injection sequence,
the same worker deaths, and the same breaker transitions.
"""

import pytest

from repro import build_manifest, telemetry
from repro.analysis.parallel import (
    _simulated_cell,
    parallel_map,
    sweep_cell_specs,
)
from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricJob,
    FabricLimits,
    build_job,
    fabric_simulated_sweep,
)
from repro.fabric.gridslice import GridSlice
from repro.resilience import chaos
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan
from repro.resilience.deadline import Deadline

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


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    chaos.uninstall_plan()


class FakeClock:
    def __init__(self, start=50.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestFabricLimits:
    def test_limits_validation(self):
        with pytest.raises(ConfigurationError):
            FabricLimits(heartbeat_interval=0.0)
        with pytest.raises(ConfigurationError):
            FabricLimits(heartbeat_interval=1.0, heartbeat_timeout=1.0)


class TestChaosPlans:
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_injected_worker_kill_is_bit_identical(
        self, serial_records, n_workers
    ):
        # Dispatch #1 goes to node 1; the rule kills node 2's process
        # right before dispatch #2 writes its WORK frame.  The lost
        # slice re-shards onto the survivors and the records must not
        # change by a single bit.
        plan = FaultPlan(rules=(
            FaultRule(site="fabric.dispatch", kind="kill_worker",
                      calls=(2,)),
        ))
        with telemetry() as registry:
            with chaos_plan(plan):
                report = FabricCoordinator(
                    _sweep_job(),
                    FabricConfig(
                        n_workers=n_workers,
                        limits=FabricLimits(heartbeat_timeout=15.0),
                    ),
                ).run()
        assert report.records == serial_records
        assert [d["node"] for d in report.worker_deaths] == [2]
        # Node 2 died before its first cell, so exactly its first-attempt
        # cells are re-sharded, each once.
        grid = build_job(_sweep_job()).grid

        def cells(shards):
            indices = [
                i
                for shard in shards
                for i in GridSlice.parse(grid, shard["slice"]).indices
            ]
            assert len(indices) == len(set(indices))
            return set(indices)

        lost = cells(
            s for s in report.shard_map if s["node"] == 2 and s["attempt"] == 1
        )
        assert lost
        assert cells(s for s in report.shard_map if s["attempt"] > 1) == lost
        manifest = build_manifest(registry)
        assert manifest["chaos"]["by_kind"] == {"kill_worker": 1}
        assert manifest["chaos"]["by_site"] == {"fabric.dispatch": 1}
        # The dead worker's dispatch breaker tripped open (the fabric
        # policy opens on the first recorded failure).
        assert manifest["breaker"]["transition_totals"] == {
            "fabric.worker.2": 1
        }
        (transition,) = manifest["breaker"]["transitions"]
        assert transition["breaker"] == "fabric.worker.2"
        assert transition["to"] == "open"

    def test_corrupt_wire_frame_is_bit_identical(self, serial_records):
        # With two direct children, encode calls 1-2 are the HELLO
        # frames; call 3 is the first WORK frame (to node 1).  The
        # corrupted payload decodes to a FrameError in the worker, which
        # exits; the coordinator sees pipe EOF and re-shards.
        plan = FaultPlan(rules=(
            FaultRule(site="fabric.wire.encode", kind="corrupt_frame",
                      calls=(3,)),
        ))
        with telemetry() as registry:
            with chaos_plan(plan):
                report = FabricCoordinator(
                    _sweep_job(),
                    FabricConfig(
                        n_workers=2,
                        limits=FabricLimits(heartbeat_timeout=15.0),
                    ),
                ).run()
        assert report.records == serial_records
        assert {d["node"] for d in report.worker_deaths} == {1}
        assert report.retries >= 1
        manifest = build_manifest(registry)
        assert manifest["chaos"]["by_kind"] == {"corrupt_frame": 1}
        assert manifest["breaker"]["transition_totals"] == {
            "fabric.worker.1": 1
        }

    def test_chaos_run_replays_identical_injection_logs(self):
        plan = FaultPlan(rules=(
            FaultRule(site="fabric.dispatch", kind="kill_worker",
                      calls=(2,)),
        ))
        logs = []
        for _ in range(2):
            with chaos_plan(plan):
                FabricCoordinator(
                    _sweep_job(),
                    FabricConfig(
                        n_workers=2,
                        limits=FabricLimits(heartbeat_timeout=15.0),
                    ),
                ).run()
                logs.append(chaos.active_injections())
        assert logs[0] == logs[1]
        assert logs[0] == [
            {"site": "fabric.dispatch", "kind": "kill_worker", "call": 2}
        ]


class TestDeadlines:
    def test_generous_deadline_changes_nothing(self, serial_records):
        records = fabric_simulated_sweep(
            SWEEP_KW["scheme"],
            SWEEP_KW["N"],
            bus_counts=SWEEP_KW["bus_counts"],
            rates=SWEEP_KW["rates"],
            n_cycles=SWEEP_KW["n_cycles"],
            seed=SWEEP_KW["seed"],
            backend=SWEEP_KW["backend"],
            n_workers=2,
            deadline=Deadline(60_000),
        )
        assert records == serial_records

    def test_expired_deadline_raises_structured_504(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        clock.advance(1.0)
        with telemetry() as registry:
            coordinator = FabricCoordinator(
                _sweep_job(), FabricConfig(n_workers=1)
            )
            with pytest.raises(DeadlineExceededError) as excinfo:
                coordinator.run(deadline=deadline)
        assert excinfo.value.site == "fabric.coordinator"
        assert excinfo.value.budget_ms == 100.0
        manifest = build_manifest(registry)
        assert manifest["resilience"]["deadline_exceeded"] == {
            "fabric.coordinator": 1
        }

    def test_reshard_honors_the_deadline(self):
        # Satellite: a re-shard after a worker death must not start a
        # backoff-and-redispatch cycle once the budget is spent.
        clock = FakeClock()
        coordinator = FabricCoordinator(
            _sweep_job(), FabricConfig(n_workers=2)
        )
        coordinator._deadline = Deadline(100.0, clock=clock)
        clock.advance(1.0)
        plan = build_job(_sweep_job())
        lost = GridSlice.from_indices(plan.grid, set(plan.cells))
        with pytest.raises(DeadlineExceededError) as excinfo:
            coordinator._retry_slice(lost, attempt=1, reason="test")
        assert excinfo.value.site == "fabric.coordinator"
        assert coordinator._assignments == {}
        assert coordinator._retries == 0

    def test_reader_threads_are_joined_at_teardown(self, serial_records):
        coordinator = FabricCoordinator(
            _sweep_job(), FabricConfig(n_workers=2)
        )
        report = coordinator.run()
        assert report.records == serial_records
        assert coordinator._readers == []
