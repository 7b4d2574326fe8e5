"""Fabric worker process lifecycle.

Workers are forked from the coordinator, so each must start as bare as
a freshly launched interpreter would: no inherited chaos plan or
telemetry, and no pipe end but its own stdin and stdout.  The
coordinator spawns only as many workers as there are outstanding
cells, reaps every one of them, and none outlives a coordinator that
was killed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.parallel import (
    _simulated_cell,
    parallel_map,
    sweep_cell_specs,
)
from repro.fabric import FabricConfig, FabricCoordinator, FabricJob
from repro.resilience import chaos
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan

SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: 16 cells: each of two workers streams at least READY, eight RESULTs
#: and a DONE, so every worker encodes more frames than the coordinator.
SWEEP_KW = dict(
    scheme="full",
    N=8,
    bus_counts=[2, 4],
    rates=[0.25, 0.5, 0.75, 1.0],
    n_cycles=250,
    seed=3,
    backend="auto",
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    return env


def _fabric_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.fabric.cli", *args]


class TestSpawnCount:
    def test_spawns_only_the_workers_the_cells_need(self, tmp_path):
        # One bus count and one rate: two cells (hier and uniform).
        args = ("--N", "8", "--buses", "2", "--rates", "0.5",
                "--cycles", "300", "--json", "--quiet")
        four = subprocess.run(
            _fabric_command(*args, "--workers", "4",
                            "--telemetry", str(tmp_path)),
            capture_output=True, text=True, env=_env(), timeout=120,
            check=True,
        )
        one = subprocess.run(
            _fabric_command(*args, "--workers", "1"),
            capture_output=True, text=True, env=_env(), timeout=120,
            check=True,
        )
        records = json.loads(four.stdout)
        assert len(records) == 2
        assert records == json.loads(one.stdout)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fabric"]["workers_spawned"] == 2
        # The summary line reports the workers spawned, not requested.
        assert "2 cells on 2 workers" in four.stderr

    def test_summary_counts_spawned_workers_on_a_cached_rerun(self, tmp_path):
        args = ("--N", "8", "--buses", "2", "--rates", "0.5",
                "--cycles", "300", "--workers", "4", "--quiet",
                "--cache", str(tmp_path / "cache"))
        lines = [
            subprocess.run(
                _fabric_command(*args), capture_output=True, text=True,
                env=_env(), timeout=120, check=True,
            ).stderr
            for _ in range(2)
        ]
        assert "2 cells on 2 workers" in lines[0]
        assert "2 cells on 0 workers" in lines[1]
        assert "2 cache hits" in lines[1]


class TestForkedWorkersStartBare:
    def test_workers_inherit_no_chaos_plan_and_are_reaped(self):
        specs = sweep_cell_specs(
            SWEEP_KW["scheme"],
            SWEEP_KW["N"],
            bus_counts=SWEEP_KW["bus_counts"],
            rates=SWEEP_KW["rates"],
            n_cycles=SWEEP_KW["n_cycles"],
            seed=SWEEP_KW["seed"],
            backend=SWEEP_KW["backend"],
        )
        serial = parallel_map(_simulated_cell, specs)
        # On a clean two-worker run the coordinator encodes exactly six
        # frames (two HELLO, two WORK, two shutdown), so calls 7 and up
        # of ``fabric.wire.encode`` can only be a worker's frames.  A
        # worker that kept the coordinator's plan would corrupt one of
        # its RESULT frames and be declared dead.
        plan = FaultPlan(rules=(
            FaultRule(site="fabric.wire.encode", kind="corrupt_frame",
                      calls=tuple(range(7, 64))),
        ))
        coordinator = FabricCoordinator(
            FabricJob(kind="sweep", params=dict(SWEEP_KW)),
            FabricConfig(n_workers=2),
        )
        with chaos_plan(plan):
            report = coordinator.run()
            assert chaos.active_injections() == []
        assert report.worker_deaths == []
        assert report.retries == 0
        assert report.records == serial
        pids = coordinator.pids
        assert len(pids) == 2
        for pid in pids.values():
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


def _children(pid: int) -> list[int]:
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs Linux /proc/<pid>/task/<pid>/children",
)
class TestDeadCoordinator:
    def test_no_worker_outlives_a_killed_coordinator(self):
        heartbeat_timeout = 10.0
        coordinator = subprocess.Popen(
            _fabric_command(
                "--N", "16", "--buses", "2-16/1", "--rates", "0.05-1.0/0.05",
                "--cycles", "20000", "--workers", "2",
                "--heartbeat-timeout", str(heartbeat_timeout),
                "--json", "--quiet",
            ),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_env(),
        )
        try:
            workers: list[int] = []
            give_up = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < give_up:
                assert coordinator.poll() is None, "sweep ended too early"
                workers = _children(coordinator.pid)
                time.sleep(0.05)
            assert len(workers) == 2, workers
            time.sleep(0.5)  # let both workers get into their cells
            assert coordinator.poll() is None, "sweep ended too early"
        finally:
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(timeout=30)
        bound = time.monotonic() + heartbeat_timeout
        left = workers
        while left and time.monotonic() < bound:
            time.sleep(0.05)
            left = [pid for pid in left if not _gone_or_zombie(pid)]
        for pid in left:  # a failing run leaves no stray workers behind
            os.kill(pid, signal.SIGKILL)
        assert left == []
