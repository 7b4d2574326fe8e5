"""Distributed sweep fabric: sharded coordinator/worker execution.

The paper's tables and figures are grids over (scheme, N, M, B, r,
hierarchy) — embarrassingly shardable work.  This package is the only
multi-process executor; :func:`repro.analysis.parallel.parallel_map` is
its serial reference:

* :mod:`repro.fabric.gridslice` — :class:`Grid` / :class:`GridSlice`,
  RangeSet-style compact cell sets (balanced ``split(n)``, canonical
  strings like ``B=2-16/2,r=0.25-1.0``) used for shard addressing in
  WORK frames, the run manifest and retry bookkeeping.
* :mod:`repro.fabric.wire` — the length-prefixed JSON frame protocol
  workers stream results and heartbeats over.
* :mod:`repro.fabric.jobs` — :class:`FabricJob`, the JSON-safe job
  descriptions the coordinator builds into a plan once (per-cell seeds
  are spawned by grid position, so shard boundaries can never change a
  record).
* :mod:`repro.fabric.worker` — the worker process, forked from the
  coordinator by :func:`~repro.fabric.worker.spawn_child` (POSIX
  ``os.fork``): evaluates the slices sent to it against the plan it
  inherits and streams results back.
* :mod:`repro.fabric.coordinator` — :class:`FabricCoordinator`: shards
  a job into GridSlices, forks every worker and reads each one's pipe,
  tracks health via heartbeats, and re-shards only the lost slices of
  a dead worker through :mod:`repro.resilience.retry`.

Results are bit-identical to the single-process executor for any worker
count or crash/retry interleaving.
"""

from repro.fabric.coordinator import (
    FabricConfig,
    FabricCoordinator,
    FabricLimits,
    FabricReport,
    fabric_simulated_sweep,
)
from repro.fabric.gridslice import Grid, GridSlice
from repro.fabric.jobs import FabricJob, build_job

__all__ = [
    "Grid",
    "GridSlice",
    "FabricJob",
    "build_job",
    "FabricConfig",
    "FabricCoordinator",
    "FabricLimits",
    "FabricReport",
    "fabric_simulated_sweep",
]
