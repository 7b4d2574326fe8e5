"""Single entry point for closed-form bandwidth of any topology.

:func:`analytic_bandwidth` dispatches a ``(network, request model)`` pair
to the matching formula of Section III — the function users reach for
first, and the hinge that keeps analytics, simulation and experiments
consistent (all three accept the same two objects).
"""

from __future__ import annotations

import numpy as np

from repro.core.bandwidth import (
    bandwidth_crossbar_heterogeneous,
    bandwidth_full,
    bandwidth_full_heterogeneous,
    bandwidth_partial_heterogeneous,
    bandwidth_single,
    bandwidth_single_heterogeneous,
)
from repro.core.kclasses import bandwidth_kclass
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, ModelError
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.network import MultipleBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork
from repro.topology.structure import StructureNetwork

__all__ = ["analytic_bandwidth", "reference_bandwidth"]


def _check_dimensions(network: MultipleBusNetwork, model: RequestModel) -> None:
    if model.n_processors != network.n_processors:
        raise ConfigurationError(
            f"model has {model.n_processors} processors, network has "
            f"{network.n_processors}"
        )
    if model.n_memories != network.n_memories:
        raise ConfigurationError(
            f"model addresses {model.n_memories} modules, network has "
            f"{network.n_memories}"
        )


def analytic_bandwidth(
    network: MultipleBusNetwork, model: RequestModel
) -> float:
    """Closed-form effective memory bandwidth of ``network`` under ``model``.

    Uses the homogeneous formulas (eqs. 4, 6, 9, 12) when the request
    model is module-symmetric, and falls back to the Poisson-binomial
    heterogeneous generalizations otherwise (not available for K classes,
    whose heterogeneous form is per-class — pass class-uniform patterns).

    >>> from repro.topology.full import FullBusMemoryNetwork
    >>> from repro.core.request_models import UniformRequestModel
    >>> round(analytic_bandwidth(FullBusMemoryNetwork(8, 8, 4),
    ...                          UniformRequestModel(8, 8)), 2)
    3.87
    """
    _check_dimensions(network, model)
    try:
        x = model.symmetric_module_probability()
        symmetric = True
    except ModelError:
        symmetric = False

    if isinstance(network, StructureNetwork):
        recognition = network.recognition()
        if recognition is not None and (recognition.module_safe or symmetric):
            from repro.topology.factory import build_network

            equivalent = build_network(
                recognition.scheme,
                network.n_processors,
                network.n_memories,
                network.n_buses,
                **recognition.kwargs(),
            )
            return analytic_bandwidth(equivalent, model)
        raise ConfigurationError(
            f"custom structure {network.structure.short()} does not reduce to "
            "a closed-form scheme; use exact_bandwidth (M <= 16) or the "
            "simulator"
        )
    if isinstance(network, CrossbarNetwork):
        return bandwidth_crossbar_heterogeneous(
            model.module_request_probabilities()
        )
    if isinstance(network, KClassPartialBusNetwork):
        if symmetric:
            return bandwidth_kclass(network.class_sizes, network.n_buses, x)
        # Per-class heterogeneity: legal iff X is uniform inside classes.
        xs = model.module_request_probabilities()
        class_xs = []
        for j in range(1, network.n_classes + 1):
            members = network.modules_of_class(j)
            if not members:
                class_xs.append(0.0)
                continue
            values = xs[members]
            if float(values.max() - values.min()) > 1e-9:
                raise ModelError(
                    f"modules of class C_{j} have differing request "
                    "probabilities; eq. (11) requires class-uniform X"
                )
            class_xs.append(float(values.mean()))
        return bandwidth_kclass(network.class_sizes, network.n_buses, class_xs)
    if isinstance(network, PartialBusNetwork):
        if symmetric:
            # Equivalent to eq. (9) but phrased per group.
            per_group = bandwidth_full(
                network.modules_per_group, network.buses_per_group, x
            )
            return network.n_groups * per_group
        xs = model.module_request_probabilities()
        mg = network.modules_per_group
        groups = [
            xs[group * mg : (group + 1) * mg]
            for group in range(network.n_groups)
        ]
        return bandwidth_partial_heterogeneous(groups, network.buses_per_group)
    if isinstance(network, SingleBusMemoryNetwork):
        if symmetric:
            return bandwidth_single(network.modules_per_bus(), x)
        xs = model.module_request_probabilities()
        per_bus = [
            xs[np.asarray(network.memories_on_bus(bus), dtype=int)]
            for bus in range(network.n_buses)
        ]
        return bandwidth_single_heterogeneous(per_bus)
    if isinstance(network, FullBusMemoryNetwork):
        if symmetric:
            return bandwidth_full(network.n_memories, network.n_buses, x)
        return bandwidth_full_heterogeneous(
            model.module_request_probabilities(), network.n_buses
        )
    raise ConfigurationError(
        f"no closed form for scheme {network.scheme!r}; use the simulator"
    )


def reference_bandwidth(
    network: MultipleBusNetwork, model: RequestModel
) -> float | None:
    """Best available reference value for a (network, model) pair.

    Identical to :func:`analytic_bandwidth` for the paper's schemes.  For
    custom structures without a recognized closed form it falls back to
    exact enumeration when small enough (``M <= 16``) and otherwise
    returns ``None`` -- callers that record an analytic baseline next to
    simulation output (e.g. sweep cells) use this so custom topologies
    stay evaluable end-to-end.
    """
    if not isinstance(network, StructureNetwork):
        return analytic_bandwidth(network, model)
    try:
        return analytic_bandwidth(network, model)
    except ConfigurationError:
        if network.n_memories <= 16:
            from repro.core.exact import exact_bandwidth

            return exact_bandwidth(network, model)
        return None
