"""Exact processor-driven bandwidth by subset enumeration.

The paper's eqs. (3)-(12) approximate the number of requested modules as
``Binomial(M, X)``, treating module request events as independent.  The
*true* processor-driven events are negatively correlated (a processor
issues at most one request).  For machines up to ``M = 16`` modules this
module computes the exact distribution of the *requested set* and hence
the exact bandwidth of every connection scheme — no Monte-Carlo noise:

1. For every module subset ``T``, the probability that all requests land
   inside ``T`` is ``Q(T) = prod_p (1 - sum_{j not in T} r f_pj)``
   (processors are independent).
2. A Möbius transform over the subset lattice turns containment
   probabilities into exact-set probabilities:
   ``P(requested set = T) = sum_{S <= T} (-1)^{|T - S|} Q(S)``,
   computed in ``O(M 2^M)``.
3. Each scheme's served-count is a deterministic function of the
   requested set (e.g. ``min(|T|, B)`` for full connection, the eq.-(11)
   busy-bus criterion for K classes); the exact bandwidth is its
   expectation under the exact-set distribution.  :func:`served_counts`
   states that rule once, over rows of requested sets; the vectorized
   simulator applies the same function to its cycles.

Used by the approximation experiment (E13) to bound the paper's
independence-approximation error analytically, and by tests as ground
truth for the Monte-Carlo engine.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.network import MultipleBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork
from repro.topology.structure import StructureNetwork

__all__ = [
    "requested_set_distribution",
    "distinct_request_pmf",
    "exact_bandwidth",
    "served_counts",
]

#: Hard cap on exact enumeration (2^16 subsets, ~65k doubles).
_MAX_MODULES = 16


def _check_size(n_memories: int) -> None:
    if n_memories > _MAX_MODULES:
        raise ConfigurationError(
            f"exact enumeration supports at most {_MAX_MODULES} modules, "
            f"got {n_memories}; use the Monte-Carlo simulator instead"
        )


#: Set bits of every byte value.
_BYTE_POPCOUNTS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).sum(axis=1)


@functools.lru_cache(maxsize=None)
def _popcounts(n_subsets: int) -> np.ndarray:
    """Set bits of every bitmask ``0 .. n_subsets - 1``, byte by byte.

    Read-only and cached: enumeration asks for the same ``2**M`` table
    on every call.
    """
    value = np.arange(n_subsets)
    counts = np.zeros(n_subsets, dtype=np.int64)
    while value.any():
        counts += _BYTE_POPCOUNTS[value & 0xFF]
        value >>= 8
    counts.setflags(write=False)
    return counts


def _moebius_in_place(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Möbius transform over the subset lattice, in place.

    Turns containment sums ``g(T) = sum_{S <= T} f(S)`` back into
    ``f``.  Viewed as ``(-1, 2, 2**j)``, the middle axis of ``values``
    is bit ``j`` of the subset, so step ``j`` subtracts every
    ``T - {j}`` from its ``T``.
    """
    for j in range(n_bits):
        v = values.reshape(-1, 2, 1 << j)
        v[:, 1, :] -= v[:, 0, :]
    return values


def requested_set_distribution(model: RequestModel) -> np.ndarray:
    """Return ``P(requested set = T)`` for every subset bitmask ``T``.

    Index ``T`` encodes the subset: bit ``j`` set means module ``j`` has
    at least one request.  The result has length ``2**M`` and sums to 1.
    """
    _check_size(model.n_memories)
    model.validate()
    m = model.n_memories
    n_subsets = 1 << m
    q = model.request_matrix()  # per-cycle request probabilities, N x M

    # subset_mass[p, T] = sum of q[p, j] over j in T, built by the
    # lowest-bit DP mass(T) = mass(T - low(T)) + q[low(T)].  Walking the
    # lowest bit j from high to low, the sets with lowest bit j are
    # T' + 2**j for every already-built T' (a multiple of 2**(j+1)), so
    # each step is one in-place add between two strided column views.
    subset_mass = np.zeros((model.n_processors, n_subsets))
    for j in reversed(range(m)):
        step = 2 << j
        np.add(
            subset_mass[:, ::step],
            q[:, j : j + 1],
            out=subset_mass[:, 1 << j :: step],
        )

    # Q(T) = prod_p P(processor p requests nothing outside T)
    #      = prod_p (1 - (row_total_p - mass_p(T))).
    row_totals = q.sum(axis=1)[:, None]
    inside = 1.0 - (row_totals - subset_mass)
    np.clip(inside, 0.0, 1.0, out=inside)
    containment = np.prod(inside, axis=0)

    # Moebius transform over the subset lattice: containment -> exact.
    exact = _moebius_in_place(containment, m)

    # Rounding can leave tiny negatives on impossible sets.
    np.clip(exact, 0.0, 1.0, out=exact)
    total = exact.sum()
    if not 0.999 <= total <= 1.001:
        raise ConfigurationError(
            f"exact-set distribution lost mass (sum={total:.6f}); "
            "the model's probabilities are inconsistent"
        )
    return exact / total


def distinct_request_pmf(model: RequestModel) -> np.ndarray:
    """Exact pmf of the number of distinct requested modules.

    The processor-driven counterpart of eq. (3)'s ``Binomial(M, X)``;
    comparing the two exhibits the negative correlation the paper's
    approximation ignores (same mean, smaller variance).
    """
    dist = requested_set_distribution(model)
    counts = _popcounts(len(dist))
    pmf = np.zeros(model.n_memories + 1)
    np.add.at(pmf, counts, dist)
    return pmf


def served_counts(
    network: MultipleBusNetwork, requested: np.ndarray
) -> np.ndarray:
    """Requests served in each row of a boolean ``(rows, M)`` requested matrix.

    Under the paper's blocked-requests-dropped rule the number of
    requests a cycle serves depends only on *which* modules were
    requested, for every work-conserving arbiter:

    * full connection — ``min(|T|, B)``;
    * ``g``-group partial — ``min(|T ∩ group|, B/g)`` summed over groups;
    * single connection — one per bus with a requested module;
    * ``K`` classes — the eq.-(11) busy-bus criterion on the per-class
      requested counts;
    * crossbar — ``|T|``.

    Row ``i`` of ``requested`` is one requested set ``T``; any ``M``
    works.  Exact enumeration applies this to the subset lattice and the
    vectorized simulator to its cycles.  Returns one integer per row.
    """
    requested = np.asarray(requested, dtype=bool)
    m = network.n_memories
    if requested.ndim != 2 or requested.shape[1] != m:
        raise ConfigurationError(
            f"requested matrix must have shape (rows, {m}), "
            f"got {requested.shape}"
        )
    if isinstance(network, CrossbarNetwork):
        return _label_counts(requested, [0] * m, 1)[:, 0]
    if isinstance(network, KClassPartialBusNetwork):
        k = network.n_classes
        b = network.n_buses
        class_counts = _label_counts(
            requested, [c - 1 for c in network.class_of_module], k
        )  # rows x K
        served = np.zeros(len(requested), dtype=np.int64)
        for bus in range(1, b + 1):
            a = bus + k - b
            # Bus busy unless counts[j] <= j - a for every j >= max(a, 1).
            idle = np.ones(len(requested), dtype=bool)
            for j in range(max(a, 1), k + 1):
                idle &= class_counts[:, j - 1] <= (j - a)
            served += ~idle
        return served
    if isinstance(network, PartialBusNetwork):
        mg = network.modules_per_group
        group_counts = _label_counts(
            requested, [j // mg for j in range(m)], network.n_groups
        )
        return np.minimum(group_counts, network.buses_per_group).sum(axis=1)
    if isinstance(network, SingleBusMemoryNetwork):
        bus_counts = _label_counts(
            requested, network.bus_of_module, network.n_buses
        )
        return (bus_counts > 0).sum(axis=1)
    if isinstance(network, FullBusMemoryNetwork):
        counts = _label_counts(requested, [0] * m, 1)[:, 0]
        return np.minimum(counts, network.n_buses)
    raise ConfigurationError(
        f"no served-count rule for scheme {network.scheme!r}"
    )


def _label_counts(
    requested: np.ndarray, labels: Sequence[int], n_labels: int
) -> np.ndarray:
    """Requested modules per label: ``(rows, n_labels)`` counts.

    Adds each module's column into its label's row.  A matrix product
    would do the same through BLAS, whose worker threads keep spinning
    on every core after the call.
    """
    columns = np.ascontiguousarray(requested.T)
    counts = np.zeros((n_labels, len(requested)), dtype=np.int32)
    for module, label in enumerate(labels):
        counts[label] += columns[module]
    return counts.T


@functools.lru_cache(maxsize=None)
def _subset_lattice(n_memories: int) -> np.ndarray:
    """Boolean ``(2**M, M)`` matrix: row ``T`` holds the bits of ``T``.

    Read-only and cached; enumeration stops at ``M = 16``, so the cache
    holds at most about 2 MiB.
    """
    subsets = np.arange(1 << n_memories)[:, None]
    lattice = ((subsets >> np.arange(n_memories)) & 1).astype(bool)
    lattice.setflags(write=False)
    return lattice


def _served_per_subset(
    network: MultipleBusNetwork, n_subsets: int
) -> np.ndarray:
    """Served-request count for every requested-set bitmask."""
    if isinstance(network, StructureNetwork):
        # Generic incidence structure: a requested set is served up to its
        # maximum bipartite matching against the buses (see
        # repro.topology.structure for why matching is the reference rule).
        return _matching_served_per_subset(network.memory_bus_matrix(), n_subsets)
    lattice = _subset_lattice(network.n_memories)
    return served_counts(network, lattice).astype(float)


def _matching_served_per_subset(memory_bus: np.ndarray, n_subsets: int) -> np.ndarray:
    """Maximum-matching served counts for every subset ``T``.

    By the König–Ore deficiency form of Hall's theorem the largest
    matching of ``T`` into the buses is
    ``|T| - max over S <= T of (|S| - |N(S)|)``, where ``N(S)`` is the set
    of buses adjacent to some module of ``S`` (``S`` empty gives 0).
    ``N(S)`` for every ``S`` comes from the lowest-bit recurrence
    ``N(S) = N(S - low(S)) | buses(low(S))`` over bus bitmasks, and the
    max over subsets from an in-place subset-max transform, so the
    table costs ``O(M 2**M)`` array work and no per-subset search.
    ``n_subsets`` is ``2**M`` for the ``M`` rows of ``memory_bus``.
    """
    memory_bus = np.asarray(memory_bus, dtype=bool)
    n_modules, n_buses = memory_bus.shape
    bus_masks = (memory_bus.astype(np.int64) << np.arange(n_buses)).sum(axis=1)

    # Same strided walk as the subset masses in requested_set_distribution.
    neighbours = np.zeros(n_subsets, dtype=np.int64)
    for j in reversed(range(n_modules)):
        step = 2 << j
        np.bitwise_or(
            neighbours[::step], bus_masks[j], out=neighbours[1 << j :: step]
        )

    sizes = _popcounts(n_subsets)
    deficiency = sizes - _popcounts(1 << n_buses)[neighbours]
    # Subset-max transform: deficiency[T] becomes its max over S <= T.
    for j in range(n_modules):
        v = deficiency.reshape(-1, 2, 1 << j)
        np.maximum(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return (sizes - deficiency).astype(float)


def exact_bandwidth(network: MultipleBusNetwork, model: RequestModel) -> float:
    """Exact bandwidth of the processor-driven system (``M <= 16``).

    Exact in the same sense as the paper's assumptions 1-5, minus the
    binomial independence shortcut of eq. (3): the requested-set
    distribution is enumerated, and each scheme's arbitration serves a
    deterministic count per set.

    >>> from repro.topology.full import FullBusMemoryNetwork
    >>> from repro.core.request_models import UniformRequestModel
    >>> net = FullBusMemoryNetwork(8, 8, 8)     # B >= M: no contention,
    >>> model = UniformRequestModel(8, 8)       # approximation is exact
    >>> round(exact_bandwidth(net, model), 4)
    5.2511
    """
    if model.n_processors != network.n_processors:
        raise ConfigurationError(
            f"model has {model.n_processors} processors, network "
            f"{network.n_processors}"
        )
    if model.n_memories != network.n_memories:
        raise ConfigurationError(
            f"model addresses {model.n_memories} modules, network has "
            f"{network.n_memories}"
        )
    dist = requested_set_distribution(model)
    served = _served_per_subset(network, len(dist))
    return float(dist @ served)
