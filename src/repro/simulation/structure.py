"""Monte-Carlo bandwidth for arbitrary incidence structures.

The loop engine already evaluates :class:`StructureNetwork` via the
matching arbiter, but it pays a Python-level price per cycle.  This
backend exploits the fact that bandwidth only depends on the *requested
set* per cycle (stage-1 processor arbitration picks winners but never
changes which modules are requested): request generation is vectorized
over all cycles at once, and the served count per cycle is a memoized
maximum-matching lookup keyed by the requested-set bitmask.

Semantics match :func:`repro.core.exact.exact_bandwidth` for
:class:`StructureNetwork` exactly (same served-count rule, sampled
instead of enumerated), which is what the structure-blind differential
tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, SimulationError
from repro.topology.structure import ConnectionStructure, MatchingOracle
from repro.workloads.generator import DestinationSampler

__all__ = ["StructureSimResult", "simulate_structure_bandwidth", "structure_seed"]


@dataclass(frozen=True)
class StructureSimResult:
    """Outcome of a structure simulation run."""

    bandwidth: float
    stderr: float
    n_cycles: int

    @property
    def ci95_halfwidth(self) -> float:
        return 1.96 * self.stderr


def structure_seed(structure: ConnectionStructure, n_buses: int, n_cycles: int) -> np.random.SeedSequence:
    """Deterministic seed derived from the structure digest.

    Ties the fallback simulation stream to the structure content so
    repeated evaluations (across processes, cache rebuilds, fabric
    workers) reproduce bit-identical estimates.
    """
    return np.random.SeedSequence(
        [int.from_bytes(structure.digest()[:8], "big"), int(n_buses), int(n_cycles)]
    )


def simulate_structure_bandwidth(
    structure: ConnectionStructure,
    model: RequestModel,
    n_cycles: int = 20_000,
    seed=None,
) -> StructureSimResult:
    """Estimate bandwidth of a structure under a request model.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts; when
    omitted it is derived from the structure digest via
    :func:`structure_seed`.
    """
    if n_cycles < 1:
        raise SimulationError(f"n_cycles must be >= 1, got {n_cycles}")
    if model.n_processors != structure.n_processors:
        raise ConfigurationError(
            f"model has {model.n_processors} processors, structure "
            f"{structure.n_processors}"
        )
    if model.n_memories != structure.n_memories:
        raise ConfigurationError(
            f"model addresses {model.n_memories} modules, structure has "
            f"{structure.n_memories}"
        )
    model.validate()
    if seed is None:
        seed = structure_seed(structure, structure.n_buses, n_cycles)
    rng = np.random.default_rng(seed)

    q = model.request_matrix()  # N x M per-cycle request probabilities
    row_totals = q.sum(axis=1)
    m = structure.n_memories

    # One uniform draw per (cycle, processor): below the row total the
    # processor requests, and the same draw selects the module by inverse
    # transform over the row's cumulative probabilities.  The last
    # column is not forced to 1.0: the sampler clips a draw past it to
    # module ``m - 1``.
    draws = rng.random((int(n_cycles), structure.n_processors))
    modules = DestinationSampler(np.cumsum(q, axis=1)).sample(draws)
    cycles, processors = np.nonzero(draws < row_totals)
    requested = np.zeros((int(n_cycles), m), dtype=bool)
    requested[cycles, modules[cycles, processors]] = True

    oracle = MatchingOracle(structure.memory_bus)
    weights = 1 << np.arange(m, dtype=object)
    masks = requested @ weights  # Python ints, safe for any M
    served = np.fromiter(
        (oracle.served(int(mask)) for mask in masks),
        dtype=float,
        count=int(n_cycles),
    )
    bandwidth = float(served.mean())
    if n_cycles > 1:
        stderr = float(served.std(ddof=1) / np.sqrt(n_cycles))
    else:
        stderr = 0.0
    return StructureSimResult(bandwidth=bandwidth, stderr=stderr, n_cycles=int(n_cycles))
