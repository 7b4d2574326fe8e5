"""Structure recognizer: map an incidence pair back to a paper scheme.

Given a :class:`~repro.topology.structure.ConnectionStructure`, decide
whether it is (up to processor/bus/memory permutation) one of the
closed-form schemes -- full, single, partial, kclass -- so that the
batched analytic profiles of :mod:`repro.analysis.batch` remain the fast
path.  A crossbar's incidence pair is indistinguishable from
``full(N, M, B=min(N, M))`` and is recognized as ``full`` (the analytic
values coincide for the paper's square configurations).

A :class:`Recognition` carries the ``build_network`` kwargs that rebuild
an equivalent network.  ``module_safe`` records whether those kwargs pin
down the *per-module* layout exactly: when a structure is a permuted
partial scheme, ``n_groups`` alone loses which module sits in which
group, which matters for heterogeneous request models -- such
recognitions are only used as a fast path when the request model is
module-symmetric.

The rules read each module's bus set as one integer (bit ``b`` set when
the module attaches to bus ``b``), computed for every module in one
numpy operation, so grouping, nesting and widths are integer operations.

Recognition runs once per distinct structure: :func:`recognize_cached`
memoizes by content digest and reports hit/miss counts to the telemetry
registry (``topology.recognition_cache``), keeping recognition off the
per-query hot path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import get_registry
from repro.topology.structure import ConnectionStructure

__all__ = ["Recognition", "recognize", "recognize_cached", "clear_recognition_cache"]

_CACHE_CAPACITY = 4096


@dataclass(frozen=True)
class Recognition:
    """Outcome of recognizing a structure as a paper scheme.

    ``network_kwargs`` is a canonical sorted tuple of ``(name, value)``
    pairs suitable for ``build_network(scheme, N, M, B, **kwargs)``.
    ``module_safe`` is True when the kwargs reproduce the per-module
    attachment pattern exactly (safe under heterogeneous request models).
    """

    scheme: str
    network_kwargs: tuple = ()
    module_safe: bool = True
    note: str = field(default="", compare=False)

    def kwargs(self) -> dict:
        return {name: value for name, value in self.network_kwargs}


def _row_masks(memory_bus: np.ndarray) -> list[int]:
    """Each module's bus set as one integer: bit ``b`` set iff on bus ``b``."""
    n_buses = memory_bus.shape[1]
    if n_buses < 63:
        weights = np.left_shift(1, np.arange(n_buses, dtype=np.int64))
        return (memory_bus @ weights).tolist()
    packed = np.packbits(memory_bus, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _recognize_single(masks: list[int], n_buses: int) -> Recognition | None:
    """Each module on exactly one bus -> single-bus scheme."""
    if any(mask.bit_count() != 1 for mask in masks):
        return None
    bus_of = [mask.bit_length() - 1 for mask in masks]
    if len(set(bus_of)) != n_buses:
        # Some bus carries no module; dangling buses have no single-bus
        # counterpart (SingleBusNetwork requires every bus loaded).
        return None
    base, extra = divmod(len(masks), n_buses)
    default = [
        bus
        for bus in range(n_buses)
        for _ in range(base + 1 if bus < extra else base)
    ]
    if bus_of == default:
        return Recognition("single")
    return Recognition(
        "single",
        (("bus_of_module", tuple(bus_of)),),
        note="explicit module-to-bus map",
    )


def _recognize_partial(masks: list[int], n_buses: int) -> Recognition | None:
    """Disjoint equal complete-bipartite blocks -> partial scheme."""
    n_memories = len(masks)
    row_sets: dict[int, list] = {}
    for module, mask in enumerate(masks):
        row_sets.setdefault(mask, []).append(module)
    groups = list(row_sets.items())
    n_groups = len(groups)
    if n_groups < 2:
        return None
    if n_memories % n_groups or n_buses % n_groups:
        return None
    modules_per_group = n_memories // n_groups
    buses_per_group = n_buses // n_groups
    seen_buses = 0
    for bus_set, members in groups:
        if bus_set.bit_count() != buses_per_group or len(members) != modules_per_group:
            return None
        if bus_set & seen_buses:
            return None
        seen_buses |= bus_set
    if seen_buses != (1 << n_buses) - 1:
        return None
    # Contiguous default layout: groups ordered by smallest bus, modules and
    # buses both in ascending blocks.
    groups.sort(key=lambda item: item[0] & -item[0])
    block = (1 << buses_per_group) - 1
    contiguous = all(
        bus_set == block << (q * buses_per_group)
        and members
        == list(range(q * modules_per_group, (q + 1) * modules_per_group))
        for q, (bus_set, members) in enumerate(groups)
    )
    if contiguous:
        return Recognition("partial", (("n_groups", n_groups),))
    # Permuted partial: n_groups captures the bandwidth-relevant shape only
    # for module-symmetric request models; per-module layout is lost.
    return Recognition(
        "partial",
        (("n_groups", n_groups),),
        module_safe=False,
        note="permuted group layout",
    )


def _recognize_kclass(masks: list[int], n_buses: int) -> Recognition | None:
    """Nested row attachment sets -> K-class hierarchical scheme."""
    width_of = {mask: mask.bit_count() for mask in masks}
    distinct = sorted(width_of, key=width_of.__getitem__)
    widths = [width_of[mask] for mask in distinct]
    if len(set(widths)) != len(widths):
        # Two distinct sets of equal width cannot nest.
        return None
    for smaller, larger in zip(distinct, distinct[1:]):
        if smaller & ~larger:
            return None
    if distinct[-1] != (1 << n_buses) - 1:
        # Class K must reach every bus, otherwise some bus is dangling or
        # the widths do not line up with the paper's scheme.
        return None
    min_width = widths[0]
    n_classes = n_buses - min_width + 1
    # Class j (1-based) has width j + B - K; zero-size classes fill the gaps
    # for widths that no module uses.
    class_of_module = [width_of[mask] - min_width + 1 for mask in masks]
    class_sizes = [0] * n_classes
    for cls in class_of_module:
        class_sizes[cls - 1] += 1
    natural_prefix = all(
        mask == (1 << width) - 1 for mask, width in zip(distinct, widths)
    )
    default_order = class_of_module == sorted(class_of_module)
    kwargs: list = [("class_sizes", tuple(class_sizes))]
    note = ""
    if not (natural_prefix and default_order):
        kwargs.append(("class_of_module", tuple(class_of_module)))
        note = "bus-permuted" if not natural_prefix else "module-permuted"
    return Recognition("kclass", tuple(sorted(kwargs)), note=note)


def recognize(structure: ConnectionStructure) -> Recognition | None:
    """Recognize a structure as a paper scheme, or return None.

    Only structures whose processors attach to every bus are candidates:
    the paper's model (and this repo's evaluation layers) assume the
    processor side is complete.
    """
    if not structure.uniform_processors:
        return None
    n_buses = structure.n_buses
    masks = _row_masks(structure.memory_bus)
    if all(mask == (1 << n_buses) - 1 for mask in masks):
        return Recognition("full")
    for rule in (_recognize_single, _recognize_partial, _recognize_kclass):
        recognition = rule(masks, n_buses)
        if recognition is not None:
            return recognition
    return None


_cache: OrderedDict = OrderedDict()
_cache_lock = threading.Lock()


def recognize_cached(structure: ConnectionStructure) -> Recognition | None:
    """Digest-keyed memoized :func:`recognize` with telemetry counters."""
    key = structure.digest()
    with _cache_lock:
        if key in _cache:
            _cache.move_to_end(key)
            hit = True
            recognition = _cache[key]
        else:
            hit = False
    if hit:
        get_registry().increment("topology.recognition_cache", result="hit")
        return recognition
    recognition = recognize(structure)
    with _cache_lock:
        _cache[key] = recognition
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    get_registry().increment("topology.recognition_cache", result="miss")
    return recognition


def clear_recognition_cache() -> None:
    with _cache_lock:
        _cache.clear()
