"""Sweep execution: per-cell seeds, the serial executor, result cache.

The paper's evaluation is a grid of (scheme, N, B, r, model) cells, and
the Monte-Carlo validation of eqs. (4), (6), (9), (12) repeats the grid
with tens of thousands of simulated cycles per cell.  This module makes
those grids reproducible under any executor:

* **Deterministic per-cell seeds** — every sweep spawns one
  :class:`numpy.random.SeedSequence` child per grid cell *by cell index*
  (:func:`~repro.simulation.seeds.spawn_seeds`), before any work is
  dispatched.  Spawning is a pure function of the root seed, so a
  serial run, a 4-worker fabric run (:mod:`repro.fabric`) or a rerun on
  a different machine produce bit-identical records no matter how cells
  are scheduled.
* **Serial executor** — :func:`parallel_map` runs a worker over the
  cells in-process, preserving input order.  It is the reference the
  multi-process fabric is checked against; grids that need more than
  one process go through
  :func:`repro.fabric.coordinator.fabric_simulated_sweep` or a
  :class:`~repro.fabric.coordinator.FabricCoordinator` job.
* **Keyed on-disk cache** — :class:`ResultCache` stores each cell's
  JSON record under a SHA-256 key of its full parameterization, so
  repeated table builds skip completed cells and only compute what
  changed.  Entries are checksummed; files that fail to parse or to
  verify are *quarantined* (moved aside and recomputed), never raised.
  The fabric coordinator shares the same cache identity.
* **Retries and resume** — with a
  :class:`~repro.resilience.retry.RetryPolicy`, :func:`parallel_map`
  retries failing cells with deterministic backoff, and — since every
  completed cell is written to the cache the moment it finishes — an
  interrupted sweep restarted with the same cache resumes from the
  completed cells (checkpoint/resume for free).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

import numpy as np

from repro.analysis.evaluate import reference_bandwidth
from repro.analysis.sweep import paper_model_pair
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, RetryExhaustedError
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.resilience.retry import RetryPolicy
from repro.simulation.engine import simulate_bandwidth
from repro.simulation.seeds import spawn_seeds
from repro.topology.factory import build_network, check_scheme_kwargs
from repro.workloads.generator import ModelRequestGenerator

__all__ = [
    "seed_fingerprint",
    "ResultCache",
    "parallel_map",
    "sweep_cell_specs",
    "simulated_bandwidth_sweep",
]


def seed_fingerprint(seed: np.random.SeedSequence) -> dict[str, object]:
    """JSON-safe identity of a :class:`~numpy.random.SeedSequence`.

    Two sequences with equal fingerprints generate identical streams;
    used to key cached Monte-Carlo records by their exact randomness.
    """
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = [int(e) for e in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return {
        "entropy": entropy,
        "spawn_key": [int(k) for k in seed.spawn_key],
    }


class ResultCache:
    """On-disk JSON store keyed by a SHA-256 digest of cell parameters.

    Each entry is one file ``<key>.json`` under ``directory`` (created
    on demand).  Writes go through a temp file + :func:`os.replace`, so
    concurrent workers of the same sweep can share a cache directory
    without torn entries.  Values must be JSON-serializable — sweep
    records (dicts of numbers, strings and booleans) are.

    Entries are stored in a checksummed envelope (format version +
    SHA-256 of the canonical value).  A file that fails to parse or to
    verify is *quarantined*: moved to the ``quarantine/`` subdirectory
    (for post-mortem inspection) and treated as a miss, so a corrupted
    disk never turns into a raised ``JSONDecodeError`` mid-sweep.
    Pre-envelope entries (bare values) are still readable.

    Same-key writers are safe both across processes *and* across
    threads: every :meth:`put` writes a private temp file (unique per
    process, thread and call) and publishes it with one atomic
    :func:`os.replace`, so readers only ever observe a complete
    envelope — last writer wins — and :meth:`get` re-hashes the content
    against the stored checksum on every read.

    **Batched checkpointing** — with ``flush_every`` and/or
    ``flush_seconds`` set, :meth:`put` buffers entries in memory and
    writes them in batches: a flush triggers once ``flush_every``
    entries are pending or the oldest pending entry is
    ``flush_seconds`` old (checked on each :meth:`put` — there is no
    background thread, so a long gap between puts defers the timed
    flush to the next one; call :meth:`flush` at natural barriers).
    Reads see buffered entries immediately.  Crash consistency is
    unchanged: every flushed entry still goes through its own temp
    file + atomic :func:`os.replace` with the checksummed envelope, so
    a crash mid-flush can only lose *unflushed* entries — never corrupt
    published ones.  Grid sweeps writing thousands of small records cut
    their syscall traffic by ~``flush_every`` at the cost of an
    at-most-``flush_every``-cell replay after a crash.
    """

    _MISSING = object()
    _FORMAT = 1
    _FORMAT_KEY = "__cache_format__"

    #: Process-wide counter making concurrent same-pid temp names unique.
    _tmp_counter = itertools.count()

    def __init__(
        self,
        directory: str | Path,
        flush_every: int | None = None,
        flush_seconds: float | None = None,
    ):
        if flush_every is not None and flush_every < 1:
            raise ConfigurationError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        if flush_seconds is not None and flush_seconds < 0:
            raise ConfigurationError(
                f"flush_seconds must be >= 0, got {flush_seconds}"
            )
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._flush_every = flush_every
        self._flush_seconds = flush_seconds
        self._buffer: dict[str, object] = {}
        self._buffer_lock = threading.Lock()
        self._oldest_pending: float | None = None

    @property
    def directory(self) -> Path:
        """The backing directory."""
        return self._dir

    @property
    def quarantine_directory(self) -> Path:
        """Where corrupt entries are moved (may not exist yet)."""
        return self._dir / "quarantine"

    @staticmethod
    def key(params: dict[str, object]) -> str:
        """Stable digest of a parameter dict (order-insensitive)."""
        canonical = json.dumps(params, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    @staticmethod
    def value_digest(value: object) -> str:
        """Content checksum stored alongside (and verified against) a value."""
        canonical = json.dumps(value, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside; losing the race to another worker is fine."""
        registry = get_registry()
        target = self.quarantine_directory / path.name
        try:
            self.quarantine_directory.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except FileNotFoundError:
            return
        registry.increment("parallel.disk_cache.quarantined", reason=reason)
        registry.record_event(
            "cache.quarantined", file=path.name, reason=reason
        )

    def get(self, key: str, default: object = None) -> object:
        """Return the verified cached value for ``key``, or ``default``.

        Unparseable or checksum-mismatched entries are quarantined and
        reported as misses instead of raising.
        """
        with self._buffer_lock:
            if key in self._buffer:
                return self._buffer[key]
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return default
        except json.JSONDecodeError:
            self._quarantine(path, "unparseable")
            return default
        if isinstance(entry, dict) and self._FORMAT_KEY in entry:
            value = entry.get("value")
            if entry.get("sha256") != self.value_digest(value):
                self._quarantine(path, "checksum-mismatch")
                return default
            return value
        return entry  # legacy bare value

    def __contains__(self, key: str) -> bool:
        with self._buffer_lock:
            if key in self._buffer:
                return True
        return self._path(key).exists()

    @property
    def pending(self) -> int:
        """Buffered entries not yet flushed to disk."""
        with self._buffer_lock:
            return len(self._buffer)

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` — directly, or via the batch buffer.

        Without batching (the default) this writes the checksummed
        envelope atomically right away.  With ``flush_every`` /
        ``flush_seconds`` set, the entry is buffered and the whole
        buffer is written once either threshold trips.
        """
        if self._flush_every is None and self._flush_seconds is None:
            self._write_entry(key, value)
            return
        with self._buffer_lock:
            self._buffer[key] = value
            if self._oldest_pending is None:
                self._oldest_pending = time.monotonic()
            due = (
                self._flush_every is not None
                and len(self._buffer) >= self._flush_every
            ) or (
                self._flush_seconds is not None
                and time.monotonic() - self._oldest_pending
                >= self._flush_seconds
            )
        if due:
            self.flush()

    def flush(self) -> int:
        """Write every buffered entry to disk; return how many were written.

        Entries are snapshotted out of the buffer first, so concurrent
        :meth:`put` calls during the flush buffer for the *next* batch
        instead of blocking.  Each entry keeps the atomic
        temp-file + replace + checksum path of a direct :meth:`put`.
        """
        with self._buffer_lock:
            batch = self._buffer
            self._buffer = {}
            self._oldest_pending = None
        for key, value in batch.items():
            self._write_entry(key, value)
        if batch:
            get_registry().increment("parallel.disk_cache.flushes")
            get_registry().increment(
                "parallel.disk_cache.flushed_entries", value=len(batch)
            )
        return len(batch)

    def _write_entry(self, key: str, value: object) -> None:
        """Atomically publish one checksummed envelope.

        The temp name is unique per (process, thread, call): a pid-only
        suffix lets two threads of one process open the *same* temp
        file, where the loser of the ``os.replace`` race keeps writing
        into the winner's published inode and corrupts the entry.
        """
        path = self._path(key)
        tmp = path.with_suffix(
            ".tmp."
            f"{os.getpid()}.{threading.get_ident()}."
            f"{next(self._tmp_counter)}"
        )
        envelope = {
            self._FORMAT_KEY: self._FORMAT,
            "sha256": self.value_digest(value),
            "value": value,
        }
        try:
            with open(tmp, "w") as handle:
                json.dump(envelope, handle)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                if tmp.exists():
                    tmp.unlink()

    def quarantined_files(self) -> list[str]:
        """Names of quarantined entries, sorted."""
        if not self.quarantine_directory.is_dir():
            return []
        return sorted(
            p.name for p in self.quarantine_directory.glob("*.json")
        )

    def __len__(self) -> int:
        return sum(1 for _ in self._dir.glob("*.json"))


def _as_cache(cache: "ResultCache | str | Path | None") -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def parallel_map(
    func: Callable,
    items: Iterable,
    cache: "ResultCache | str | Path | None" = None,
    cache_params: Callable[[object], dict] | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list:
    """Apply ``func`` over ``items`` in-process, preserving input order.

    Parameters
    ----------
    func:
        Callable evaluating one item.
    items:
        Work descriptions, one per output slot.
    cache:
        Optional :class:`ResultCache` (or a directory path for one).
        Items whose key is present are returned from disk without
        calling ``func``; fresh results are stored the moment they are
        computed, which doubles as a checkpoint: an interrupted sweep
        restarted against the same cache resumes from completed cells.
    cache_params:
        Maps an item to its JSON-safe parameter dict for
        :meth:`ResultCache.key`; required when ``cache`` is given.
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy`: failing
        cells are retried with deterministic backoff, and a cell that
        exhausts its budget raises
        :class:`~repro.exceptions.RetryExhaustedError`.  With ``None``
        (default) the first failure propagates unchanged.
    """
    items = list(items)
    if cache is not None and cache_params is None:
        raise ConfigurationError("cache requires a cache_params function")
    cache = _as_cache(cache)
    registry = get_registry()
    policy = (
        retry_policy
        if retry_policy is not None
        else RetryPolicy(max_attempts=1, backoff_seconds=0.0)
    )

    results: list = [None] * len(items)
    pending: list[tuple[int, object, str | None]] = []
    for index, item in enumerate(items):
        key = None
        if cache is not None:
            key = cache.key(cache_params(item))
            hit = cache.get(key, ResultCache._MISSING)
            if hit is not ResultCache._MISSING:
                results[index] = hit
                registry.increment("parallel.disk_cache.hits")
                continue
            registry.increment("parallel.disk_cache.misses")
        pending.append((index, item, key))

    try:
        with span("parallel.map", mode="serial", tasks=len(pending)):
            for index, item, key in pending:
                attempt = 1
                while True:
                    start = time.perf_counter()
                    try:
                        results[index] = func(item)
                        break
                    except Exception as exc:
                        if not policy.should_retry(attempt):
                            if retry_policy is None:
                                raise
                            raise RetryExhaustedError(
                                f"cell {index} failed after {attempt} "
                                f"attempt(s): {exc!r}",
                                attempts=attempt,
                                last_error=exc,
                            ) from exc
                        reason = type(exc).__name__
                        registry.increment("parallel.retries", reason=reason)
                        registry.record_event(
                            "parallel.retry",
                            index=index,
                            attempt=attempt,
                            reason=reason,
                        )
                        time.sleep(policy.delay(attempt, token=str(index)))
                        attempt += 1
                seconds = time.perf_counter() - start
                registry.increment("parallel.tasks", mode="serial")
                registry.observe(
                    "parallel.task_seconds", seconds, mode="serial"
                )
                registry.record_event(
                    "parallel.task",
                    mode="serial",
                    worker=os.getpid(),
                    seconds=round(seconds, 6),
                )
                if cache is not None:
                    cache.put(key, results[index])
    finally:
        # Batched caches checkpoint at the barrier (and on the way out
        # of a failing sweep, so completed cells survive the error).
        if cache is not None:
            cache.flush()
    return results


# ---------------------------------------------------------------------------
# The Monte-Carlo counterpart of analysis.sweep.bandwidth_sweep
# ---------------------------------------------------------------------------


def _simulated_cell(spec: dict) -> dict[str, object]:
    """Worker: simulate one sweep cell (module-level, picklable).

    The ``analytic`` reference value comes from
    :func:`~repro.analysis.evaluate.reference_bandwidth`: the closed
    forms for paper schemes, exact enumeration (small M) or ``None``
    for custom structures.  The record reads only the bandwidth and its
    interval, so the simulation runs with ``views=False`` and skips
    arbitration.  It draws requests from the spec's ``generator``, which
    cells of one request model share.
    """
    network = build_network(
        spec["scheme"],
        spec["N"],
        spec["M"],
        spec["B"],
        **spec["network_kwargs"],
    )
    model: RequestModel = spec["model"]
    result = simulate_bandwidth(
        network,
        spec["generator"],
        n_cycles=spec["n_cycles"],
        seed=spec["seed"],
        backend=spec["backend"],
        views=False,
    )
    return {
        "scheme": spec["scheme"],
        "N": spec["N"],
        "M": spec["M"],
        "B": spec["B"],
        "r": spec["r"],
        "model": spec["model_name"],
        "analytic": reference_bandwidth(network, model),
        "bandwidth": result.bandwidth,
        "ci95": result.bandwidth_ci95,
    }


def _simulated_cell_params(spec: dict) -> dict[str, object]:
    """Cache identity of one simulated sweep cell."""
    return {
        "kind": "simulated_cell",
        "scheme": spec["scheme"],
        "N": spec["N"],
        "M": spec["M"],
        "B": spec["B"],
        "r": spec["r"],
        "model": spec["model_name"],
        "model_factory": spec["model_factory_name"],
        "network_kwargs": spec["network_kwargs"],
        "n_cycles": spec["n_cycles"],
        "backend": spec["backend"],
        "seed": seed_fingerprint(spec["seed"]),
    }


def sweep_cell_specs(
    scheme: str,
    n_processors: int,
    bus_counts: Sequence[int],
    rates: Sequence[float],
    model_factory: Callable[[int, float], dict[str, RequestModel]] = paper_model_pair,
    n_memories: int | None = None,
    n_cycles: int = 20_000,
    seed: int | np.random.SeedSequence | None = 0,
    backend: str = "auto",
    **network_kwargs,
) -> list[dict]:
    """Build the per-cell work specs of a simulated sweep, seeds attached.

    The cell list (and each cell's spawned
    :class:`~numpy.random.SeedSequence`) is a pure function of the
    arguments, so any executor — serial, the fabric, or a chaos-testing
    harness wrapping :func:`_simulated_cell` — computes identical
    records from the same specs.  Invalid ``(scheme, B)`` combinations
    are skipped like the blank cells of the paper's tables.

    Cells of one ``(rate, model)`` pair share one model object and one
    :class:`~repro.workloads.generator.ModelRequestGenerator` (its
    destination tables are built once, not once per bus count); both
    are read-only, so evaluating a spec never changes it.
    """
    check_scheme_kwargs(scheme, network_kwargs)
    if n_memories is None:
        n_memories = n_processors
    cells: list[dict] = []
    for rate in rates:
        models = model_factory(n_processors, rate)
        generators: dict[str, ModelRequestGenerator] = {}
        for n_buses in bus_counts:
            try:
                build_network(
                    scheme, n_processors, n_memories, n_buses, **network_kwargs
                )
            except ConfigurationError:
                continue
            for name, model in models.items():
                if name not in generators:
                    generators[name] = ModelRequestGenerator(model)
                cells.append(
                    {
                        "scheme": scheme,
                        "N": n_processors,
                        "M": n_memories,
                        "B": n_buses,
                        "r": rate,
                        "model": model,
                        "generator": generators[name],
                        "model_name": name,
                        "model_factory_name": getattr(
                            model_factory, "__qualname__", str(model_factory)
                        ),
                        "network_kwargs": dict(network_kwargs),
                        "n_cycles": n_cycles,
                        "backend": backend,
                    }
                )
    for cell, cell_seed in zip(cells, spawn_seeds(seed, len(cells))):
        cell["seed"] = cell_seed
    return cells


def simulated_bandwidth_sweep(
    scheme: str,
    n_processors: int,
    bus_counts: Sequence[int],
    rates: Sequence[float],
    model_factory: Callable[[int, float], dict[str, RequestModel]] = paper_model_pair,
    n_memories: int | None = None,
    n_cycles: int = 20_000,
    seed: int | np.random.SeedSequence | None = 0,
    backend: str = "auto",
    cache: "ResultCache | str | Path | None" = None,
    retry_policy: RetryPolicy | None = None,
    **network_kwargs,
) -> list[dict[str, object]]:
    """Monte-Carlo bandwidth over a (B, r, model) grid, in-process.

    The simulated counterpart of
    :func:`repro.analysis.sweep.bandwidth_sweep`: one record per valid
    grid cell with both the closed-form (``analytic``) and simulated
    (``bandwidth`` ± ``ci95``) values.  Every cell simulates under its
    own :class:`~numpy.random.SeedSequence` child spawned by cell index
    from ``seed`` — records are identical for cache hits vs
    recomputation, across retries when a ``retry_policy`` is set, and
    to :func:`repro.fabric.coordinator.fabric_simulated_sweep` on any
    number of worker processes.
    """
    cells = sweep_cell_specs(
        scheme,
        n_processors,
        bus_counts,
        rates,
        model_factory=model_factory,
        n_memories=n_memories,
        n_cycles=n_cycles,
        seed=seed,
        backend=backend,
        **network_kwargs,
    )
    with span("sweep.simulated", scheme=scheme, cells=len(cells)):
        return parallel_map(
            _simulated_cell,
            cells,
            cache=cache,
            cache_params=_simulated_cell_params,
            retry_policy=retry_policy,
        )
