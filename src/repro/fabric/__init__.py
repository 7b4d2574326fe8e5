"""Distributed sweep fabric: sharded coordinator/worker execution.

The paper's tables and figures are grids over (scheme, N, M, B, r,
hierarchy) — embarrassingly shardable work.  A
:class:`~repro.fabric.jobs.FabricJob` is the one description of a
simulated grid: its built :class:`~repro.fabric.jobs.JobPlan` runs in
process (:meth:`~repro.fabric.jobs.JobPlan.run_in_process`, the
reference) or across worker processes:

* :mod:`repro.fabric.gridslice` — :class:`~repro.fabric.gridslice.Grid` /
  :class:`~repro.fabric.gridslice.GridSlice`, RangeSet-style compact
  cell sets (balanced ``split(n)``, canonical strings like
  ``B=2-16/2,r=0.25-1.0``) used for shard addressing in WORK frames,
  the run manifest and retry bookkeeping.
* :mod:`repro.fabric.wire` — the length-prefixed JSON frame protocol
  workers stream results and heartbeats over.
* :mod:`repro.fabric.jobs` — :class:`~repro.fabric.jobs.FabricJob`, the
  JSON-safe job descriptions (``sweep``, ``validation``,
  ``resubmission``), built into a plan once (per-cell seeds are spawned
  by grid position, so shard boundaries can never change a record).
* :mod:`repro.fabric.worker` — the worker process, forked from the
  coordinator by :func:`~repro.fabric.worker.spawn_child` (POSIX
  ``os.fork``): evaluates the slices sent to it against the plan it
  inherits and streams results back.
* :mod:`repro.fabric.coordinator` —
  :class:`~repro.fabric.coordinator.FabricCoordinator`: shards a job
  into GridSlices, forks every worker and reads each one's pipe, tracks
  health via heartbeats, and re-shards only the lost slices of a dead
  worker through :mod:`repro.resilience.retry`.

Results are bit-identical to the in-process run for any worker count
or crash/retry interleaving.
"""
