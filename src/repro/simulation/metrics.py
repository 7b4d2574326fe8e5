"""Bandwidth statistics collected by the Monte-Carlo simulator.

The headline statistic is the *effective memory bandwidth*: the mean
number of successful requests per cycle, directly comparable to the
closed forms of :mod:`repro.core.bandwidth`.  Batch-means confidence
intervals let the validation experiment (E9) state agreement or
disagreement with the analytics rather than eyeballing noise.

Two producers build :class:`SimulationResult`: the per-cycle
:class:`MetricsCollector` used by the loop backend, and
:func:`result_from_arrays` used by the vectorized batch backend
(:mod:`repro.simulation.vectorized`).  Both reduce with the same
:func:`batch_means_ci95`, so identical per-cycle grant counts yield
bit-identical headline statistics regardless of the backend.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "MetricsCollector",
    "SimulationResult",
    "batch_means_ci95",
    "result_from_arrays",
]


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Summary statistics of one simulation run.

    Attributes
    ----------
    n_cycles:
        Measured cycles (after warm-up).
    bandwidth:
        Mean successful requests per cycle — the effective memory
        bandwidth.
    bandwidth_ci95:
        Half-width of the 95% confidence interval on :attr:`bandwidth`
        (batch means, 20 batches).
    requests_per_cycle:
        Mean requests issued per cycle (≈ ``N * r``).
    acceptance_probability:
        Fraction of issued requests that succeeded — the paper's
        "probability of acceptance" view of the same data.
    bus_utilization:
        Per-bus fraction of cycles carrying a transfer (length ``B``).
    module_service_rates:
        Per-module successful requests per cycle (length ``M``).
    processor_success_rates:
        Per-processor successful requests per cycle (length ``N``) — the
        fairness view; under symmetric models all entries should agree.
        These three views are ``None`` for a run made with
        ``views=False``, which skips the arbitration that fills them.
    grant_counts:
        Successful requests in each measured cycle (length
        :attr:`n_cycles`).  Because the grant *count* per cycle is a
        deterministic function of the requested-module set for every
        work-conserving arbiter, this sequence is the backend-agnostic
        fingerprint of a run — the vectorized/loop equivalence tests
        compare it element-wise.
    """

    n_cycles: int
    bandwidth: float
    bandwidth_ci95: float
    requests_per_cycle: float
    acceptance_probability: float
    bus_utilization: tuple[float, ...] | None
    module_service_rates: tuple[float, ...] | None
    processor_success_rates: tuple[float, ...] | None
    grant_counts: tuple[int, ...] | None = None

    def agrees_with(self, analytic: float, slack: float = 0.0) -> bool:
        """True when ``analytic`` lies inside the 95% CI (plus ``slack``)."""
        return abs(self.bandwidth - analytic) <= self.bandwidth_ci95 + slack

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"MBW = {self.bandwidth:.4f} ± {self.bandwidth_ci95:.4f} "
            f"(95% CI, {self.n_cycles} cycles), "
            f"acceptance = {self.acceptance_probability:.4f}"
        )


def batch_means_ci95(grants: np.ndarray, n_batches: int = 20) -> float:
    """95% CI half-width of the mean of ``grants`` via batch means.

    Falls back to the plain iid standard error when there are too few
    cycles to form ``2 * n_batches`` batches, and to ``inf`` below two
    cycles.  Shared by both simulation backends so equal grant sequences
    produce bit-identical intervals.
    """
    grants = np.asarray(grants, dtype=float)
    n = len(grants)
    if n < 2 * n_batches:
        if n < 2:
            return float("inf")
        return 1.96 * float(grants.std(ddof=1)) / math.sqrt(n)
    batch_size = n // n_batches
    usable = batch_size * n_batches
    batches = grants[:usable].reshape(n_batches, batch_size).mean(axis=1)
    stderr = float(batches.std(ddof=1)) / math.sqrt(n_batches)
    return 1.96 * stderr


def result_from_arrays(
    grant_counts: np.ndarray,
    requests_issued: int,
    bus_busy: np.ndarray | None,
    module_served: np.ndarray | None,
    processor_served: np.ndarray | None,
) -> SimulationResult:
    """Build a :class:`SimulationResult` from whole-run count arrays.

    ``grant_counts`` holds the per-measured-cycle successful request
    counts; the remaining arguments are total counts per bus / module /
    processor, or ``None`` when the run skipped arbitration (the views
    are then ``None`` too).  Used by the vectorized backend, which
    accumulates these arrays in bulk instead of cycle by cycle.
    """
    n = len(grant_counts)
    if n == 0:
        raise SimulationError("no cycles recorded")
    grants = np.asarray(grant_counts, dtype=float)
    bandwidth = float(grants.mean())
    acceptance = (
        float(grants.sum() / requests_issued) if requests_issued else 0.0
    )
    return SimulationResult(
        n_cycles=n,
        bandwidth=bandwidth,
        bandwidth_ci95=batch_means_ci95(grants),
        requests_per_cycle=requests_issued / n,
        acceptance_probability=acceptance,
        bus_utilization=_rates(bus_busy, n),
        module_service_rates=_rates(module_served, n),
        processor_success_rates=_rates(processor_served, n),
        grant_counts=tuple(np.asarray(grant_counts).tolist()),
    )


def _rates(totals: np.ndarray | None, n: int) -> tuple[float, ...] | None:
    return None if totals is None else tuple(np.asarray(totals) / n)


class MetricsCollector:
    """Accumulates per-cycle observations into a :class:`SimulationResult`."""

    _N_BATCHES = 20

    def __init__(self, n_processors: int, n_memories: int, n_buses: int):
        self._n_processors = n_processors
        self._n_memories = n_memories
        self._n_buses = n_buses
        self._grants_per_cycle: list[int] = []
        self._requests_issued = 0
        self._bus_busy = np.zeros(n_buses, dtype=np.int64)
        self._module_served = np.zeros(n_memories, dtype=np.int64)
        self._processor_served = np.zeros(n_processors, dtype=np.int64)

    def record(
        self,
        requests: list[tuple[int, int]],
        winners: dict[int, int],
        grants: dict[int, int],
    ) -> None:
        """Record one measured cycle.

        Parameters
        ----------
        requests:
            All ``(processor, module)`` requests issued this cycle.
        winners:
            Stage-one output: ``{module: winning processor}``.
        grants:
            Stage-two output: ``{bus: module}``.
        """
        self._requests_issued += len(requests)
        self._grants_per_cycle.append(len(grants))
        for bus, module in grants.items():
            self._bus_busy[bus] += 1
            self._module_served[module] += 1
            self._processor_served[winners[module]] += 1

    @property
    def cycles_recorded(self) -> int:
        """Number of cycles recorded so far."""
        return len(self._grants_per_cycle)

    def result(self) -> SimulationResult:
        """Finalize into a :class:`SimulationResult`.

        Raises :class:`~repro.exceptions.SimulationError` when no cycle
        was recorded.
        """
        if not self._grants_per_cycle:
            raise SimulationError("no cycles recorded")
        return result_from_arrays(
            np.asarray(self._grants_per_cycle, dtype=np.int64),
            self._requests_issued,
            self._bus_busy,
            self._module_served,
            self._processor_served,
        )
