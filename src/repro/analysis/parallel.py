"""Sweep cells: per-cell seeds, the simulated cell, the result cache.

The paper's evaluation is a grid of (scheme, N, B, r, model) cells, and
the Monte-Carlo validation of eqs. (4), (6), (9), (12) repeats the grid
with tens of thousands of simulated cycles per cell.  This module makes
those grids reproducible however they are run:

* **Deterministic per-cell seeds** — every sweep spawns one
  :class:`numpy.random.SeedSequence` child per grid cell *by cell index*
  (:func:`~repro.simulation.seeds.spawn_seeds`), before any work is
  dispatched.  Spawning is a pure function of the root seed, so an
  in-process run, a 4-worker fabric run (:mod:`repro.fabric`) or a
  rerun on a different machine produce bit-identical records no matter
  how cells are scheduled.
* **Cell specs** — :func:`sweep_cell_specs` builds the specs of a
  simulated sweep; the fabric's ``sweep`` job
  (:func:`repro.fabric.jobs.build_job`) maps them onto its grid and
  evaluates them, in process with
  :meth:`~repro.fabric.jobs.JobPlan.run_in_process` or on workers with
  :class:`~repro.fabric.coordinator.FabricCoordinator`.
* **Keyed on-disk cache** — :class:`ResultCache` stores each cell's
  JSON record under a SHA-256 key of its full parameterization, so a
  rerun skips completed cells and only computes what changed.  Entries
  are checksummed; files that fail to parse or to verify are
  *quarantined* (moved aside and recomputed), never raised.  The
  coordinator writes each record the moment it arrives, so an
  interrupted sweep restarted with the same cache resumes from the
  completed cells.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.analysis.evaluate import reference_bandwidth
from repro.analysis.sweep import paper_model_pair
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_registry
from repro.simulation.engine import simulate_bandwidth
from repro.simulation.seeds import spawn_seeds
from repro.topology.factory import build_network, check_scheme_kwargs
from repro.workloads.generator import ModelRequestGenerator

__all__ = ["seed_fingerprint", "ResultCache", "sweep_cell_specs"]


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
    on demand).  Values must be JSON-serializable — sweep records
    (dicts of numbers, strings and booleans) are.

    Entries are stored in a checksummed envelope (format version +
    SHA-256 of the canonical value), and only an envelope is ever
    served.  A file that fails to parse, is not an envelope, or fails
    to verify is *quarantined*: moved to the ``quarantine/``
    subdirectory (for post-mortem inspection) and treated as a miss, so
    a corrupted disk never turns into a raised ``JSONDecodeError``
    mid-sweep, and a stale file is recomputed, never misread.

    Same-key writers are safe both across processes *and* across
    threads: every :meth:`put` writes a private temp file (unique per
    process, thread and call) and publishes it with one atomic
    :func:`os.replace`, so readers only ever observe a complete
    envelope — last writer wins — and :meth:`get` re-hashes the content
    against the stored checksum on every read.
    """

    _MISSING = object()
    _FORMAT = 1
    _FORMAT_KEY = "__cache_format__"

    #: Process-wide counter making concurrent same-pid temp names unique.
    _tmp_counter = itertools.count()

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)

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

        Unparseable, non-envelope or checksum-mismatched entries are
        quarantined and reported as misses instead of raising.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return default
        except json.JSONDecodeError:
            self._quarantine(path, "unparseable")
            return default
        if not isinstance(entry, dict) or self._FORMAT_KEY not in entry:
            self._quarantine(path, "not-an-envelope")
            return default
        value = entry.get("value")
        if entry.get("sha256") != self.value_digest(value):
            self._quarantine(path, "checksum-mismatch")
            return default
        return value

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def put(self, key: str, value: object) -> None:
        """Atomically publish ``value`` under ``key`` in its envelope.

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


# ---------------------------------------------------------------------------
# The Monte-Carlo counterpart of analysis.sweep.bandwidth_sweep
# ---------------------------------------------------------------------------


def _simulated_cell(spec: dict) -> dict[str, object]:
    """Evaluate one simulated sweep cell.

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
        "B": spec["B"],
        "r": spec["r"],
        "model": spec["model_name"],
        "network_kwargs": spec["network_kwargs"],
        "n_cycles": spec["n_cycles"],
        "seed": seed_fingerprint(spec["seed"]),
    }


def sweep_cell_specs(
    scheme: str,
    n_processors: int,
    bus_counts: Sequence[int],
    rates: Sequence[float],
    n_cycles: int = 20_000,
    seed: int | np.random.SeedSequence | None = 0,
    **network_kwargs,
) -> list[dict]:
    """Build the per-cell work specs of a simulated sweep, seeds attached.

    Each rate contributes the :func:`~repro.analysis.sweep.paper_model_pair`
    models on an N x N network.  The cell list (and each cell's spawned
    :class:`~numpy.random.SeedSequence`) is a pure function of the
    arguments, so any process evaluating a spec with
    :func:`_simulated_cell` computes the identical record.  Invalid
    ``(scheme, B)`` combinations are skipped like the blank cells of
    the paper's tables.

    Cells of one ``(rate, model)`` pair share one model object and one
    :class:`~repro.workloads.generator.ModelRequestGenerator` (its
    destination tables are built once, not once per bus count); both
    are read-only, so evaluating a spec never changes it.
    """
    check_scheme_kwargs(scheme, network_kwargs)
    cells: list[dict] = []
    for rate in rates:
        models = paper_model_pair(n_processors, rate)
        generators: dict[str, ModelRequestGenerator] = {}
        for n_buses in bus_counts:
            try:
                build_network(
                    scheme, n_processors, n_processors, n_buses,
                    **network_kwargs,
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
                        "M": n_processors,
                        "B": n_buses,
                        "r": rate,
                        "model": model,
                        "generator": generators[name],
                        "model_name": name,
                        "network_kwargs": dict(network_kwargs),
                        "n_cycles": n_cycles,
                    }
                )
    for cell, cell_seed in zip(cells, spawn_seeds(seed, len(cells))):
        cell["seed"] = cell_seed
    return cells
