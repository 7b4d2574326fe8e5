"""The fabric coordinator: shard, fan out, watch, re-shard, gather.

:class:`FabricCoordinator` turns one :class:`~repro.fabric.jobs.FabricJob`
into records bit-identical to the built plan's in-process run
(:meth:`~repro.fabric.jobs.JobPlan.run_in_process`):

1. **Build** the job locally (grid + cell map) when the coordinator is
   constructed, so a bad parameter raises there, and optionally satisfy
   cells from a :class:`~repro.analysis.parallel.ResultCache` before any
   process spawns.
2. **Shard** the remaining cells into balanced
   :class:`~repro.fabric.gridslice.GridSlice` shards — one per worker —
   and send each as a canonical string down that worker's stdin.  The
   coordinator forks every worker itself, never more than there are
   outstanding cells, and reads each one's stdout pipe on its own
   reader thread.
3. **Watch** worker heartbeats.  A worker that dies (pipe EOF, a
   broken stdin pipe, or heartbeat silence past
   ``limits.heartbeat_timeout``) loses only the cells of its shards it
   had not yet streamed back — assigned minus received — and those are
   re-sharded across the survivors, with attempt accounting and
   deterministic backoff from :class:`~repro.resilience.retry.RetryPolicy`.
   Soft per-cell failures (an ERROR frame) retry the same way without
   costing a worker.  If every worker dies, the coordinator finishes
   the outstanding cells in-process rather than failing the run.
4. **Gather** RESULT frames (streamed per cell) into grid order, write
   each fresh record to the cache as it arrives (so a run stopped
   midway keeps its completed cells), and report shard map, per-worker
   timings, retries and deaths — the ``"fabric"`` manifest section is
   digested from the metrics this emits.

Because per-cell seeds are spawned by grid index when the job is
*built* (once, by the coordinator, before it forks), records cannot
depend on shard boundaries, worker count, or crash/retry
interleaving — the property the chaos suite pins down.
"""

from __future__ import annotations

import dataclasses
import queue
import subprocess
import threading
import time
from pathlib import Path

from repro.analysis.parallel import ResultCache
from repro.exceptions import ConfigurationError, RetryExhaustedError
from repro.fabric import wire
from repro.fabric.gridslice import GridSlice
from repro.fabric.jobs import FabricJob, build_job
from repro.fabric.worker import WorkerProcess, spawn_child
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.resilience import chaos
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.deadline import ENV_DEADLINE_MS, Deadline
from repro.resilience.retry import RetryPolicy

__all__ = [
    "FabricLimits",
    "FabricConfig",
    "FabricCoordinator",
    "FabricReport",
]


#: Seconds to wait for worker processes to exit at teardown before
#: killing them.
_TEARDOWN_TIMEOUT = 10.0
#: Bound on joining the per-worker reader threads at teardown.
_READER_JOIN_TIMEOUT = 2.0
#: Per-worker dispatch breaker: open on the first recorded failure, so
#: a worker that died stays suspect until a probe delay elapses.
_BREAKER_POLICY = BreakerPolicy(
    failure_threshold=1, window_size=4, probe_delay_seconds=1.0
)


def _default_retry_policy() -> RetryPolicy:
    return RetryPolicy(max_attempts=3, backoff_seconds=0.05)


@dataclasses.dataclass(frozen=True)
class FabricLimits:
    """Timing limits of one fabric run, validated like ``ServiceLimits``.

    Parameters
    ----------
    heartbeat_interval:
        How often each worker emits a heartbeat frame.
    heartbeat_timeout:
        Silence (no frame of any kind) after which a worker is declared
        dead and its lost cells re-sharded.  Must exceed the interval.
    """

    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive, got "
                f"{self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "heartbeat_timeout must exceed heartbeat_interval, got "
                f"{self.heartbeat_timeout} <= {self.heartbeat_interval}"
            )


@dataclasses.dataclass(frozen=True)
class FabricConfig:
    """Tuning knobs of one fabric run.

    Parameters
    ----------
    n_workers:
        Worker *processes* (nodes 1..n; fewer when fewer cells are
        outstanding); the coordinator itself computes nothing unless
        every worker dies.
    retry_policy:
        Attempt budget and deterministic backoff for lost/failed
        slices; re-shards beyond ``max_attempts`` raise
        :class:`~repro.exceptions.RetryExhaustedError`.
    limits:
        The :class:`FabricLimits` set (heartbeat interval and timeout).
    """

    n_workers: int = 4
    retry_policy: RetryPolicy = dataclasses.field(
        default_factory=_default_retry_policy
    )
    limits: FabricLimits = dataclasses.field(default_factory=FabricLimits)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )


@dataclasses.dataclass
class FabricReport:
    """What one fabric run did, in grid order.

    ``records`` is ordered by flat grid index — exactly the order of
    :meth:`~repro.fabric.jobs.JobPlan.run_in_process` — so callers can
    compare the two with ``==``.  ``shard_map`` is one entry per WORK
    dispatch (re-shards included), keyed by canonical slice strings; it
    is what lands in the ``"fabric"`` manifest section's ``shards``
    list.  ``n_workers`` counts the workers spawned: no more than the
    cells outstanding, and zero when the cache served every cell.
    """

    records: list[dict]
    grid_axes: tuple[tuple[str, tuple], ...]
    cells: int
    n_workers: int
    shard_map: list[dict]
    worker_timings: dict[int, dict]
    retries: int
    worker_deaths: list[dict]
    cache_hits: int
    local_cells: int


@dataclasses.dataclass
class _Assignment:
    """One dispatched WORK frame and its completion bookkeeping."""

    work: int
    node: int
    grid_slice: GridSlice
    attempt: int
    completed: set[int] = dataclasses.field(default_factory=set)
    failed: set[int] = dataclasses.field(default_factory=set)
    done: bool = False


class FabricCoordinator:
    """Run one job across a set of worker processes; see module docs.

    The constructor builds the job once: a bad parameter raises its
    :class:`~repro.exceptions.ConfigurationError` or
    :class:`~repro.exceptions.ModelError` here, before any worker exists.
    """

    def __init__(
        self,
        job: FabricJob,
        config: FabricConfig | None = None,
        cache: "ResultCache | str | Path | None" = None,
    ):
        self.job = job
        self.config = config or FabricConfig()
        self._plan = build_job(job)
        self._cache = (
            ResultCache(cache)
            if cache is not None and not isinstance(cache, ResultCache)
            else cache
        )
        self._frames: queue.Queue = queue.Queue()
        self._children: dict[int, WorkerProcess] = {}
        self._alive: set[int] = set()
        self._last_seen: dict[int, float] = {}
        self._pids: dict[int, int] = {}
        self._assignments: dict[int, _Assignment] = {}
        self._work_counter = 0
        self._worker_timings: dict[int, dict] = {}
        self._shard_map: list[dict] = []
        self._worker_deaths: list[dict] = []
        self._retries = 0
        self._local_cells = 0
        self._readers: list[threading.Thread] = []
        self._breakers: dict[int, CircuitBreaker] = {}
        self._deadline: Deadline | None = None

    @property
    def _registry(self):
        # Resolved per use, not captured at construction: callers (the
        # CLI in particular) enable telemetry after building the
        # coordinator, and metrics must land in the live registry.
        return get_registry()

    @property
    def pids(self) -> dict[int, int]:
        """Worker node -> OS pid, as reported by READY frames."""
        return dict(self._pids)

    def _breaker(self, node: int) -> CircuitBreaker:
        """The per-worker dispatch breaker for ``node`` (lazily built)."""
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = self._breakers[node] = CircuitBreaker(
                f"fabric.worker.{node}", policy=_BREAKER_POLICY
            )
        return breaker

    # -- plumbing -----------------------------------------------------

    def _reader_loop(self, node: int, proc: WorkerProcess) -> None:
        # The reader is the pipe's only user, so it closes it.
        with proc.stdout as stream:
            while True:
                try:
                    frame = wire.read_frame(stream)
                except wire.FrameError:
                    frame = None
                if frame is None:
                    break
                self._frames.put(("frame", frame))
        self._frames.put(("eof", node))

    def _send_down(self, target: int, frame: dict) -> bool:
        """Write one frame to worker ``target``; False if unroutable."""
        proc = self._children.get(target)
        if proc is None:
            return False
        try:
            wire.write_frame(proc.stdin, frame)
        except (BrokenPipeError, ValueError, OSError):
            return False
        return True

    def _spawn_workers(self, n_workers: int) -> None:
        hello = {
            "type": "hello",
            "heartbeat_interval": self.config.limits.heartbeat_interval,
        }
        extra_env = None
        if self._deadline is not None:
            # The remaining budget travels both as a HELLO field and as
            # the worker env var, for tooling spawned off the worker.
            hello["deadline_ms"] = int(self._deadline.header_value())
            extra_env = {ENV_DEADLINE_MS: self._deadline.header_value()}
        now = time.monotonic()
        # Every fork precedes every reader thread: a child forked while
        # a reader runs would copy whatever lock that thread held.
        for node in range(1, n_workers + 1):
            self._alive.add(node)
            self._last_seen[node] = now
            self._children[node] = spawn_child(
                dict(hello, node=node), self._plan, extra_env=extra_env
            )
        for node, proc in self._children.items():
            reader = threading.Thread(
                target=self._reader_loop,
                args=(node, proc),
                daemon=True,
                name=f"fabric-reader-{node}",
            )
            self._readers.append(reader)
            reader.start()
        self._registry.increment("fabric.workers_spawned", value=n_workers)

    def _teardown(self) -> None:
        shutdown = {"type": "shutdown"}
        for proc in self._children.values():
            try:
                wire.write_frame(proc.stdin, shutdown)
                proc.stdin.close()
            except (BrokenPipeError, ValueError, OSError):
                pass
        deadline = time.monotonic() + _TEARDOWN_TIMEOUT
        for proc in self._children.values():
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # With every child reaped the reader threads are at (or one
        # read from) EOF; join them within a bound instead of
        # daemon-abandoning, so no reader outlives its run and races a
        # later coordinator's frame queue.
        join_by = time.monotonic() + _READER_JOIN_TIMEOUT
        for reader in self._readers:
            reader.join(timeout=max(0.0, join_by - time.monotonic()))
        leaked = sum(1 for reader in self._readers if reader.is_alive())
        if leaked:
            self._registry.increment("fabric.reader_leaks", value=leaked)
        self._readers.clear()

    # -- scheduling ---------------------------------------------------

    def _dispatch(self, grid_slice: GridSlice, node: int, attempt: int) -> None:
        # Chaos site ``fabric.dispatch``: a ``kill_worker`` rule kills
        # the target worker's process right before the WORK frame is
        # sent — the mid-slice crash the re-shard path must absorb
        # without changing a single record.
        if chaos.inject("fabric.dispatch") == "kill_worker":
            proc = self._children.get(node)
            if proc is not None:
                proc.kill()
        self._work_counter += 1
        work = self._work_counter
        assignment = _Assignment(
            work=work, node=node, grid_slice=grid_slice, attempt=attempt
        )
        self._assignments[work] = assignment
        canonical = grid_slice.canonical()
        self._shard_map.append(
            {
                "work": work,
                "node": node,
                "slice": canonical,
                "cells": len(grid_slice),
                "attempt": attempt,
            }
        )
        self._registry.increment("fabric.slices", status="dispatched")
        self._registry.record_event(
            "fabric.shard",
            node=node,
            slice=canonical,
            cells=len(grid_slice),
            attempt=attempt,
        )
        if not self._send_down(
            node, {"type": "work", "to": node, "work": work, "slice": canonical}
        ):
            # The pipe collapsed under us; treat it like a dead worker.
            self._handle_death(node, "unroutable")

    def _alive_ring(self) -> list[int]:
        return sorted(self._alive)

    def _shard_across(
        self, grid_slice: GridSlice, attempt: int
    ) -> None:
        """Split ``grid_slice`` over the surviving workers and dispatch.

        Workers whose dispatch breaker is open are skipped while any
        breaker-clear worker survives; when every surviving breaker is
        open (or probing) the plain alive ring is used — a fully tripped
        fleet still makes progress rather than deadlocking.
        """
        alive = self._alive_ring()
        if not alive:
            self._run_locally(grid_slice)
            return
        preferred = [n for n in alive if self._breaker(n).allow()]
        ring = preferred or alive
        for shard, node in zip(grid_slice.split(len(ring)), ring):
            self._dispatch(shard, node, attempt)

    def _retry_slice(
        self, grid_slice: GridSlice, attempt: int, reason: str
    ) -> None:
        """Re-shard a lost/failed slice after policy-checked backoff.

        Honors the run's :class:`~repro.resilience.deadline.Deadline`:
        the backoff sleep never extends past the remaining budget, and
        an already-expired budget raises before any re-dispatch.
        """
        if self._deadline is not None:
            self._deadline.check("fabric.coordinator")
        if not self.config.retry_policy.should_retry(attempt):
            raise RetryExhaustedError(
                f"fabric slice {grid_slice.canonical()!r} failed after "
                f"{attempt} attempt(s) ({reason})",
                attempts=attempt,
            )
        self._retries += 1
        self._registry.increment("fabric.retries", reason=reason)
        self._registry.record_event(
            "fabric.reshard",
            slice=grid_slice.canonical(),
            attempt=attempt + 1,
            reason=reason,
        )
        backoff = self.config.retry_policy.delay(
            attempt, token=grid_slice.canonical()
        )
        if self._deadline is not None:
            backoff = self._deadline.bounded(backoff)
        time.sleep(backoff)
        self._shard_across(grid_slice, attempt + 1)

    def _handle_death(self, node: int, reason: str) -> None:
        """Mark ``node`` dead and re-shard its lost cells."""
        if node not in self._alive:
            return
        self._alive.discard(node)
        self._breaker(node).record_failure()
        self._worker_deaths.append({"node": node, "reason": reason})
        self._registry.increment("fabric.worker_deaths", reason=reason)
        self._registry.record_event(
            "fabric.worker_dead", node=node, reason=reason
        )
        proc = self._children.pop(node, None)
        if proc is not None:
            try:
                proc.stdin.close()
            except (OSError, ValueError):
                pass
            proc.kill()
            proc.wait()
        for assignment in list(self._assignments.values()):
            if assignment.done or assignment.node != node:
                continue
            assignment.done = True
            self._registry.increment("fabric.slices", status="lost")
            remaining = assignment.grid_slice.indices - assignment.completed
            if not remaining:
                continue
            lost_slice = GridSlice.from_indices(
                assignment.grid_slice.grid, remaining
            )
            self._retry_slice(lost_slice, assignment.attempt, reason)

    def _run_locally(self, grid_slice: GridSlice) -> None:
        """Last resort with no surviving workers: evaluate in-process."""
        for index in grid_slice:
            if index in self._results:
                continue
            if self._deadline is not None:
                self._deadline.check("fabric.coordinator")
            self._results[index] = self._plan.run_cell(index)
            self._local_cells += 1
            self._registry.increment("fabric.local_cells")
            if self._cache is not None and self._cache_keys.get(index):
                self._cache.put(self._cache_keys[index], self._results[index])

    # -- the run ------------------------------------------------------

    def run(self, deadline: Deadline | None = None) -> FabricReport:
        """Execute the job; return records in grid order.

        ``deadline`` bounds the dispatch+gather phase: frame waits and
        re-shard backoffs are clipped to the remaining budget, and
        expiry raises a structured
        :class:`~repro.exceptions.DeadlineExceededError` within one
        heartbeat interval.  Without one, the run is bounded only by
        heartbeats and retries.
        """
        self._deadline = deadline
        plan = self._plan
        all_indices = sorted(plan.cells)
        self._results: dict[int, dict] = {}
        self._cache_keys: dict[int, str] = {}

        cache_hits = 0
        if self._cache is not None and plan.cache_params is not None:
            for index in all_indices:
                key = ResultCache.key(plan.cache_params(plan.cells[index]))
                self._cache_keys[index] = key
                hit = self._cache.get(key, ResultCache._MISSING)
                if hit is not ResultCache._MISSING:
                    self._results[index] = hit
                    cache_hits += 1
        if cache_hits:
            self._registry.increment("fabric.cache_hits", value=cache_hits)

        outstanding = set(all_indices) - set(self._results)
        # A worker with no cell to evaluate would only idle.
        n_workers = min(self.config.n_workers, len(outstanding))
        with span(
            "fabric.run",
            job=self.job.kind,
            cells=len(all_indices),
            workers=n_workers,
        ):
            if outstanding:
                self._spawn_workers(n_workers)
                try:
                    self._gather(plan, outstanding)
                finally:
                    self._teardown()

        records = [self._results[index] for index in all_indices]
        return FabricReport(
            records=records,
            grid_axes=plan.grid.axes,
            cells=len(all_indices),
            n_workers=n_workers,
            shard_map=self._shard_map,
            worker_timings=self._worker_timings,
            retries=self._retries,
            worker_deaths=self._worker_deaths,
            cache_hits=cache_hits,
            local_cells=self._local_cells,
        )

    def _gather(self, plan, outstanding: set[int]) -> None:
        self._shard_across(
            GridSlice.from_indices(plan.grid, outstanding), attempt=1
        )
        while outstanding - set(self._results):
            if not self._alive:
                # Everyone is gone; anything not yet streamed runs here.
                self._run_locally(
                    GridSlice.from_indices(
                        plan.grid, outstanding - set(self._results)
                    )
                )
                return
            wait = self.config.limits.heartbeat_interval
            if self._deadline is not None:
                self._deadline.check("fabric.coordinator")
                wait = max(1e-3, self._deadline.bounded(wait))
            try:
                kind, payload = self._frames.get(timeout=wait)
            except queue.Empty:
                self._check_heartbeats()
                continue
            if kind == "eof":
                self._handle_death(payload, "pipe-eof")
                continue
            self._handle_frame(payload)
            self._check_heartbeats()
        self._drain_done_frames()

    def _drain_done_frames(self) -> None:
        """Collect trailing DONE frames after the last result arrived.

        RESULT frames stream per cell, so the loop above can satisfy
        every outstanding index while a worker's slice-summary DONE
        (cells, busy_seconds) is still in the pipe; without this grace
        pass the last-finishing worker would be missing from
        ``worker_timings``.
        """
        deadline = time.monotonic() + self.config.limits.heartbeat_interval
        while (
            any(not a.done for a in self._assignments.values())
            and time.monotonic() < deadline
        ):
            try:
                kind, payload = self._frames.get(timeout=0.05)
            except queue.Empty:
                continue
            if kind == "eof":
                self._handle_death(payload, "pipe-eof")
            else:
                self._handle_frame(payload)

    def _handle_frame(self, frame: dict) -> None:
        node = int(frame.get("node", -1))
        if node in self._alive:
            self._last_seen[node] = time.monotonic()
        kind = frame.get("type")
        if kind == "ready":
            self._pids[node] = int(frame.get("pid", 0))
        elif kind == "heartbeat":
            self._registry.increment("fabric.heartbeats")
        elif kind == "result":
            self._handle_result(frame)
        elif kind == "done":
            self._handle_done(frame)
        elif kind == "error":
            self._handle_error(frame)

    def _handle_result(self, frame: dict) -> None:
        assignment = self._assignments.get(int(frame.get("work", -1)))
        index = int(frame["index"])
        if assignment is not None:
            assignment.completed.add(index)
        if index in self._results:
            return  # duplicate from a raced retry; first write wins
        self._results[index] = frame["record"]
        self._registry.increment("fabric.results")
        if self._cache is not None and self._cache_keys.get(index):
            self._cache.put(self._cache_keys[index], frame["record"])

    def _handle_done(self, frame: dict) -> None:
        work = int(frame.get("work", -1))
        assignment = self._assignments.get(work)
        if assignment is None or assignment.done:
            return
        assignment.done = True
        self._registry.increment("fabric.slices", status="done")
        node = assignment.node
        self._breaker(node).record_success()
        timing = self._worker_timings.setdefault(
            node, {"cells": 0, "busy_seconds": 0.0, "slices": 0}
        )
        timing["cells"] += int(frame.get("cells", 0))
        timing["busy_seconds"] = round(
            timing["busy_seconds"] + float(frame.get("busy_seconds", 0.0)), 6
        )
        timing["slices"] += 1
        self._registry.record_event(
            "fabric.worker_done",
            node=node,
            work=work,
            cells=int(frame.get("cells", 0)),
        )
        # Cells that soft-failed on this worker retry elsewhere.
        if assignment.failed:
            failed = GridSlice.from_indices(
                assignment.grid_slice.grid,
                assignment.failed - set(self._results),
            )
            if failed:
                self._retry_slice(failed, assignment.attempt, "cell-error")

    def _handle_error(self, frame: dict) -> None:
        assignment = self._assignments.get(int(frame.get("work", -1)))
        if assignment is None:
            return
        index = frame.get("index")
        if index is not None:
            assignment.failed.add(int(index))
        self._registry.increment(
            "fabric.cell_errors", node=str(frame.get("node"))
        )
        self._registry.record_event(
            "fabric.cell_error",
            node=frame.get("node"),
            index=index,
            error=str(frame.get("error", ""))[:200],
        )

    def _check_heartbeats(self) -> None:
        now = time.monotonic()
        timeout = self.config.limits.heartbeat_timeout
        for node in self._alive_ring():
            if now - self._last_seen[node] > timeout:
                self._handle_death(node, "heartbeat-timeout")
