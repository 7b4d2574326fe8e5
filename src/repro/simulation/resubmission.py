"""Event-level simulation of blocked-request resubmission.

Unlike the drop-model engine (:mod:`repro.simulation.engine`), processors
here *hold* a blocked request and resubmit the same module every cycle
until served — the behaviour assumption 5 of the paper abstracts away.
Used to validate the rate-adjustment approximation of
:mod:`repro.core.resubmission` and to quantify how optimistic the paper's
drop model is at moderate request rates.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.arbitration.base import BusAssignmentPolicy
from repro.arbitration.bus_arbiter import assignment_for
from repro.arbitration.memory_arbiter import resolve_memory_contention
from repro.core.request_models import RequestModel
from repro.exceptions import SimulationError
from repro.topology.network import MultipleBusNetwork
from repro.workloads.generator import DestinationSampler

__all__ = ["ResubmissionResult", "ResubmissionSimulator"]


@dataclasses.dataclass(frozen=True)
class ResubmissionResult:
    """Statistics of one resubmission-mode run.

    Attributes
    ----------
    n_cycles:
        Measured cycles (after warm-up).
    bandwidth:
        Served requests per cycle.
    effective_rate:
        Observed per-processor submission probability (new + retried) —
        comparable to the fixed point ``alpha`` of the analytic model.
    acceptance_probability:
        Served / submitted.
    mean_wait_cycles:
        Average cycles between a request's first submission and service,
        excluding the service cycle itself (0 = accepted immediately).
    p50_wait_cycles / p95_wait_cycles:
        Median and 95th-percentile waits — the tail the drop model hides.
    max_wait_cycles:
        Worst wait observed.
    """

    n_cycles: int
    bandwidth: float
    effective_rate: float
    acceptance_probability: float
    mean_wait_cycles: float
    p50_wait_cycles: float
    p95_wait_cycles: float
    max_wait_cycles: int


class ResubmissionSimulator:
    """Cycle-level simulator with blocked requests held and retried."""

    def __init__(
        self,
        network: MultipleBusNetwork,
        model: RequestModel,
        policy: BusAssignmentPolicy | None = None,
        seed: int | None = None,
    ):
        model.validate()
        if model.n_processors != network.n_processors:
            raise SimulationError(
                f"model has {model.n_processors} processors, network "
                f"{network.n_processors}"
            )
        if model.n_memories != network.n_memories:
            raise SimulationError(
                f"model addresses {model.n_memories} modules, network "
                f"has {network.n_memories}"
            )
        network.validate()
        self._network = network
        self._model = model
        self._policy = policy if policy is not None else assignment_for(network)
        if self._policy.n_buses != network.n_buses:
            raise SimulationError(
                f"policy arbitrates {self._policy.n_buses} buses, network "
                f"has {network.n_buses}"
            )
        self._seed = seed
        self._sampler = DestinationSampler.from_fractions(
            model.fraction_matrix()
        )

    def run(self, n_cycles: int, warmup: int = 200) -> ResubmissionResult:
        """Simulate ``warmup + n_cycles`` cycles and return statistics.

        Resubmission couples cycles, so unlike the drop model a warm-up
        period matters: it lets the blocked-processor population reach
        steady state before measurement (default 200 cycles).
        """
        if n_cycles < 1:
            raise SimulationError(f"need at least one cycle, got {n_cycles}")
        if warmup < 0:
            raise SimulationError(f"warmup must be >= 0, got {warmup}")
        rng = np.random.default_rng(self._seed)
        self._policy.reset()
        n = self._network.n_processors
        rate = self._model.rate

        pending_module = np.full(n, -1, dtype=np.int64)  # -1: no request
        pending_age = np.zeros(n, dtype=np.int64)

        served = 0
        submitted = 0
        waits: list[int] = []
        measured = 0
        for cycle in range(warmup + n_cycles):
            measuring = cycle >= warmup
            # Free processors draw new requests; blocked ones retry.
            free = pending_module < 0
            issues = rng.random(n) < rate
            fresh = free & issues
            pending_module[fresh] = self._sampler.sample(rng.random(n))[fresh]
            pending_age[fresh] = 0

            requesters = np.flatnonzero(pending_module >= 0)
            if measuring:
                measured += 1
                submitted += len(requesters)
            if len(requesters) == 0:
                continue
            requests = [(int(p), int(pending_module[p])) for p in requesters]
            winners = resolve_memory_contention(
                requests, self._network.n_memories, rng
            )
            grants = self._policy.assign(sorted(winners), rng)
            granted_processors = {winners[module] for module in grants.values()}
            for p in requesters:
                if int(p) in granted_processors:
                    if measuring:
                        served += 1
                        waits.append(int(pending_age[p]))
                    pending_module[p] = -1
                    pending_age[p] = 0
                else:
                    pending_age[p] += 1

        if measured == 0:
            raise SimulationError("no cycles measured")
        return ResubmissionResult(
            n_cycles=measured,
            bandwidth=served / measured,
            effective_rate=submitted / (measured * n),
            acceptance_probability=(served / submitted) if submitted else 0.0,
            mean_wait_cycles=float(np.mean(waits)) if waits else 0.0,
            p50_wait_cycles=float(np.percentile(waits, 50)) if waits else 0.0,
            p95_wait_cycles=float(np.percentile(waits, 95)) if waits else 0.0,
            max_wait_cycles=int(np.max(waits)) if waits else 0,
        )
