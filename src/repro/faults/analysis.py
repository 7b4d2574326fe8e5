"""Degraded-mode bandwidth and fault-tolerance verification.

Table I states each scheme's *degree of fault tolerance* — the number of
bus failures any placement of which leaves every module reachable.  This
module verifies those claims exhaustively and quantifies what the paper
only discusses qualitatively: how much bandwidth each scheme retains as
buses fail.

Closed forms exist for the degraded full / single / partial schemes
(failures just shrink the bus pool of each independent piece); for
K-class networks arbitrary failures break the nested-connectivity
assumption behind eq. (11), so degraded K-class bandwidth is measured by
simulation with the optimal matching arbiter.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.core.bandwidth import bandwidth_full, bandwidth_single
from repro.core.request_models import RequestModel
from repro.exceptions import FaultError
from repro.faults.injection import DegradedNetwork, fail_buses
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.network import MultipleBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork

__all__ = [
    "verify_fault_tolerance_degree",
    "analytic_degraded_bandwidth",
    "simulated_degraded_bandwidth",
    "DegradationPoint",
    "degradation_curve",
]


def verify_fault_tolerance_degree(network: MultipleBusNetwork) -> int:
    """Exhaustively confirm the network's degree of fault tolerance.

    Checks that every failure set of size ``<= degree`` keeps all modules
    reachable and that some set of size ``degree + 1`` (when one fits
    below ``B``) cuts a module off.  Returns the verified degree.

    Exponential in ``B`` — intended for the paper-scale configurations
    (``B <= 16``); raises for larger networks.
    """
    b = network.n_buses
    if b > 20:
        raise FaultError(
            f"exhaustive verification over B={b} buses is intractable"
        )
    claimed = network.degree_of_fault_tolerance()
    for size in range(1, claimed + 1):
        for failure_set in itertools.combinations(range(b), size):
            if not network.accessible_memories(set(failure_set)).all():
                raise FaultError(
                    f"claimed degree {claimed}, but failing buses "
                    f"{failure_set} cuts off a module"
                )
    if claimed + 1 < b:
        breaking = any(
            not network.accessible_memories(set(fs)).all()
            for fs in itertools.combinations(range(b), claimed + 1)
        )
        if not breaking:
            raise FaultError(
                f"claimed degree {claimed} is pessimistic: all "
                f"{claimed + 1}-failure sets survive"
            )
    return claimed


def analytic_degraded_bandwidth(
    network: MultipleBusNetwork,
    model: RequestModel,
    failed_buses: set[int],
) -> float:
    """Closed-form bandwidth after failing specific buses.

    Supported for full, single and partial schemes, whose degraded forms
    stay within the paper's formula families:

    * full: ``MBW_f(M, B - f, X)``;
    * single: surviving buses keep their ``Y_i`` terms;
    * partial: each group keeps ``B/g - f_q`` buses (a group with no
      surviving bus contributes nothing).

    Raises
    ------
    FaultError
        For schemes without a degraded closed form (K classes, crossbar,
        already-degraded networks) — use
        :func:`simulated_degraded_bandwidth`.
    """
    failed = {int(bus) for bus in failed_buses}
    for bus in failed:
        if not 0 <= bus < network.n_buses:
            raise FaultError(f"bus {bus} out of range [0, {network.n_buses})")
    if len(failed) >= network.n_buses:
        raise FaultError("at least one bus must survive")
    x = model.symmetric_module_probability()
    if isinstance(network, PartialBusNetwork):
        total = 0.0
        per_group_buses = network.buses_per_group
        modules_per_group = network.modules_per_group
        for group in range(network.n_groups):
            group_buses = range(
                group * per_group_buses, (group + 1) * per_group_buses
            )
            alive = sum(1 for bus in group_buses if bus not in failed)
            if alive:
                total += bandwidth_full(modules_per_group, alive, x)
        return total
    if isinstance(network, SingleBusMemoryNetwork):
        counts = network.modules_per_bus()
        alive_counts = [
            counts[bus] for bus in range(network.n_buses) if bus not in failed
        ]
        return bandwidth_single(alive_counts, x) if alive_counts else 0.0
    if isinstance(network, FullBusMemoryNetwork):
        # Includes the crossbar subclass: its "buses" are virtual, so a
        # physical-bus failure model does not apply there.
        if network.scheme == "crossbar":
            raise FaultError("crossbars fail by crosspoint, not by bus")
        return bandwidth_full(
            network.n_memories, network.n_buses - len(failed), x
        )
    raise FaultError(
        f"no degraded closed form for scheme {network.scheme!r}; "
        "use simulated_degraded_bandwidth"
    )


def simulated_degraded_bandwidth(
    network: MultipleBusNetwork,
    model: RequestModel,
    failed_buses: set[int],
    n_cycles: int = 20_000,
    seed: int | None = 0,
) -> float:
    """Monte-Carlo bandwidth after failing specific buses.

    The degraded topology is arbitrated by the optimal matching policy
    (see :class:`repro.arbitration.bus_arbiter.MatchingBusAssignment`),
    so the result upper-bounds what any hardware arbiter could retain.
    """
    degraded = fail_buses(network, failed_buses)
    simulator = MultiprocessorSimulator(degraded, model, seed=seed)
    return simulator.run(n_cycles).bandwidth


@dataclasses.dataclass(frozen=True)
class DegradationPoint:
    """Bandwidth statistics for one count of failed buses.

    ``mean``/``worst``/``best`` aggregate over failure placements of the
    same size; ``accessible_fraction`` averages the share of modules still
    reachable.
    """

    n_failed: int
    mean: float
    worst: float
    best: float
    accessible_fraction: float


def degradation_curve(
    network: MultipleBusNetwork,
    model: RequestModel,
    max_failures: int | None = None,
    method: str = "analytic",
    n_cycles: int = 5_000,
    seed: int | None = 0,
    max_placements: int = 32,
) -> list[DegradationPoint]:
    """Bandwidth vs number of failed buses, aggregated over placements.

    Parameters
    ----------
    method:
        ``"analytic"`` (closed forms; full/single/partial only) or
        ``"simulate"`` (any scheme, matching arbiter).
    max_placements:
        Placement sets per failure count are enumerated exhaustively up to
        this many, then sampled deterministically.
    """
    if method not in ("analytic", "simulate"):
        raise FaultError(f"method must be 'analytic' or 'simulate': {method!r}")
    b = network.n_buses
    if max_failures is None:
        max_failures = b - 1
    if not 0 <= max_failures < b:
        raise FaultError(
            f"max_failures must be in [0, {b - 1}], got {max_failures}"
        )
    rng = np.random.default_rng(seed)
    curve: list[DegradationPoint] = []
    for f in range(max_failures + 1):
        placements = list(itertools.islice(
            itertools.combinations(range(b), f), max_placements + 1
        ))
        if len(placements) > max_placements:
            # Too many to enumerate: sample distinct random placements.
            placements = [
                tuple(sorted(rng.choice(b, size=f, replace=False)))
                for _ in range(max_placements)
            ]
        values = []
        accessible = []
        for placement in placements:
            failed = set(placement)
            if method == "analytic":
                values.append(
                    analytic_degraded_bandwidth(network, model, failed)
                )
            else:
                values.append(
                    simulated_degraded_bandwidth(
                        network, model, failed, n_cycles=n_cycles, seed=seed
                    )
                )
            accessible.append(
                float(network.accessible_memories(failed).mean())
            )
        curve.append(
            DegradationPoint(
                n_failed=f,
                mean=float(np.mean(values)),
                worst=float(np.min(values)),
                best=float(np.max(values)),
                accessible_fraction=float(np.mean(accessible)),
            )
        )
    return curve
