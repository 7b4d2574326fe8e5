"""Fabric scaling harness: sharded workers vs the in-process executor.

Runs one CPU-heavy simulated sweep (E9-style grid: ``full`` scheme,
four bus counts x four request rates x both request models) through

* the single-process executor (``parallel_map``, the ground truth), and
* the fabric at 1, 2 and 4 workers,

and writes ``BENCH_fabric.json`` with wall-clock, speedup and
per-worker efficiency for each width, plus the bit-identity verdict.

Two properties are asserted unconditionally:

* every fabric run returns records ``==`` the serial ones (the
  deterministic-sharding contract), and
* the report carries one shard per worker with no retries or deaths.

The >= 2.5x speedup floor at 4 workers is CPU-bound and therefore only
asserted when the machine actually exposes >= 4 usable cores; on
smaller boxes the numbers are still recorded (with
``floor_asserted: false``) so the artifact always documents what this
host could show.

Run directly (``python -m pytest benchmarks/bench_fabric.py -s``); the
CI job uploads the JSON report as an artifact.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis.parallel import (
    _simulated_cell,
    parallel_map,
    sweep_cell_specs,
)
from repro.fabric.coordinator import FabricConfig, FabricCoordinator
from repro.fabric.jobs import FabricJob

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fabric.json"

SPEEDUP_FLOOR = 2.5
FLOOR_WORKERS = 4

WORKLOAD = dict(
    scheme="full",
    N=24,
    bus_counts=[2, 4, 6, 8],
    rates=[0.25, 0.5, 0.75, 1.0],
    n_cycles=120_000,
    seed=7,
    backend="auto",
)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_fabric_scaling():
    specs = sweep_cell_specs(
        WORKLOAD["scheme"],
        WORKLOAD["N"],
        bus_counts=WORKLOAD["bus_counts"],
        rates=WORKLOAD["rates"],
        n_cycles=WORKLOAD["n_cycles"],
        seed=WORKLOAD["seed"],
        backend=WORKLOAD["backend"],
    )
    t0 = time.perf_counter()
    serial = parallel_map(_simulated_cell, specs)
    serial_seconds = time.perf_counter() - t0

    job = FabricJob(kind="sweep", params=dict(WORKLOAD))
    widths = {}
    bit_identical = True
    for n_workers in (1, 2, 4):
        t0 = time.perf_counter()
        report = FabricCoordinator(
            job, FabricConfig(n_workers=n_workers)
        ).run()
        elapsed = time.perf_counter() - t0
        identical = report.records == serial
        bit_identical = bit_identical and identical
        assert identical, f"{n_workers}-worker fabric diverged from serial"
        assert report.retries == 0 and report.worker_deaths == []
        assert len(report.shard_map) == n_workers
        speedup = serial_seconds / elapsed
        widths[str(n_workers)] = {
            "seconds": round(elapsed, 4),
            "speedup": round(speedup, 3),
            "efficiency": round(speedup / n_workers, 3),
        }

    cores = _usable_cores()
    floor_asserted = cores >= FLOOR_WORKERS
    section = {
        "workload": {
            "scheme": WORKLOAD["scheme"],
            "N": WORKLOAD["N"],
            "cells": len(serial),
            "n_cycles": WORKLOAD["n_cycles"],
            "seed": WORKLOAD["seed"],
        },
        "serial_seconds": round(serial_seconds, 4),
        "workers": widths,
        "bit_identical": bit_identical,
        "cores": cores,
        "floor": SPEEDUP_FLOOR,
        "floor_asserted": floor_asserted,
    }
    RESULT_PATH.write_text(
        json.dumps(section, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nfabric scaling: {json.dumps(section)}")

    if floor_asserted:
        achieved = widths[str(FLOOR_WORKERS)]["speedup"]
        assert achieved >= SPEEDUP_FLOOR, (
            f"{FLOOR_WORKERS}-worker fabric only {achieved:.2f}x over the "
            f"single-process executor (floor {SPEEDUP_FLOOR}x; see "
            f"{RESULT_PATH.name})"
        )
