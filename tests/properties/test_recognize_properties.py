"""Differential check of the bitmask structure recognizer.

:func:`repro.topology.recognize.recognize` reads each module's bus set
as one integer.  The reference recognizer kept here reads every module
row as a ``frozenset`` of bus indices, the textbook form of the same
rules; Hypothesis checks that both return the same
:class:`~repro.topology.recognize.Recognition` — scheme, kwargs,
``module_safe`` and note — on:

* random incidences with ``M <= 12``;
* partial and K-class layouts with permuted modules and buses;
* single-bus layouts, including ones that leave a bus dangling.

The suite runs under the derandomized "ci" profile registered in
``tests/conftest.py``, so failures replay identically in CI.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.topology import ConnectionStructure, build_network
from repro.topology.recognize import Recognition, recognize


def _row_sets(memory_bus):
    return [frozenset(np.flatnonzero(row).tolist()) for row in memory_bus]


def _reference_single(memory_bus):
    n_memories, n_buses = memory_bus.shape
    if not (memory_bus.sum(axis=1) == 1).all():
        return None
    bus_of = memory_bus.argmax(axis=1)
    if len(set(int(b) for b in bus_of)) != n_buses:
        return None
    base, extra = divmod(n_memories, n_buses)
    default = np.repeat(
        np.arange(n_buses),
        [base + 1 if i < extra else base for i in range(n_buses)],
    )
    if np.array_equal(bus_of, default):
        return Recognition("single")
    return Recognition(
        "single",
        (("bus_of_module", tuple(int(b) for b in bus_of)),),
        note="explicit module-to-bus map",
    )


def _reference_partial(memory_bus):
    n_memories, n_buses = memory_bus.shape
    row_sets: dict[frozenset, list] = {}
    for module, bus_set in enumerate(_row_sets(memory_bus)):
        row_sets.setdefault(bus_set, []).append(module)
    groups = list(row_sets.items())
    n_groups = len(groups)
    if n_groups < 2 or n_memories % n_groups or n_buses % n_groups:
        return None
    modules_per_group = n_memories // n_groups
    buses_per_group = n_buses // n_groups
    seen: set = set()
    for bus_set, members in groups:
        if len(bus_set) != buses_per_group or len(members) != modules_per_group:
            return None
        if bus_set & seen:
            return None
        seen |= bus_set
    if len(seen) != n_buses:
        return None
    groups.sort(key=lambda item: min(item[0]))
    contiguous = all(
        bus_set == frozenset(range(q * buses_per_group, (q + 1) * buses_per_group))
        and members
        == list(range(q * modules_per_group, (q + 1) * modules_per_group))
        for q, (bus_set, members) in enumerate(groups)
    )
    if contiguous:
        return Recognition("partial", (("n_groups", n_groups),))
    return Recognition(
        "partial",
        (("n_groups", n_groups),),
        module_safe=False,
        note="permuted group layout",
    )


def _reference_kclass(memory_bus):
    n_memories, n_buses = memory_bus.shape
    row_sets = _row_sets(memory_bus)
    distinct = sorted(set(row_sets), key=len)
    widths = [len(s) for s in distinct]
    if len(set(widths)) != len(widths):
        return None
    for smaller, larger in zip(distinct, distinct[1:]):
        if not smaller <= larger:
            return None
    if distinct[-1] != frozenset(range(n_buses)):
        return None
    min_width = widths[0]
    class_of_module = [len(s) - min_width + 1 for s in row_sets]
    class_sizes = [0] * (n_buses - min_width + 1)
    for cls in class_of_module:
        class_sizes[cls - 1] += 1
    natural_prefix = all(s == frozenset(range(len(s))) for s in distinct)
    default_order = class_of_module == sorted(class_of_module)
    kwargs: list = [("class_sizes", tuple(class_sizes))]
    note = ""
    if not (natural_prefix and default_order):
        kwargs.append(("class_of_module", tuple(class_of_module)))
        note = "bus-permuted" if not natural_prefix else "module-permuted"
    return Recognition("kclass", tuple(sorted(kwargs)), note=note)


def reference_recognize(structure):
    if not structure.uniform_processors:
        return None
    memory_bus = structure.memory_bus
    if memory_bus.all():
        return Recognition("full")
    for rule in (_reference_single, _reference_partial, _reference_kclass):
        recognition = rule(memory_bus)
        if recognition is not None:
            return recognition
    return None


def _fields(recognition):
    if recognition is None:
        return None
    return (
        recognition.scheme,
        recognition.network_kwargs,
        recognition.module_safe,
        recognition.note,
    )


def _assert_same(matrix):
    structure = ConnectionStructure.with_uniform_processors(4, matrix)
    assert _fields(recognize(structure)) == _fields(
        reference_recognize(structure)
    )


@st.composite
def random_incidences(draw):
    """An ``(M, B)`` matrix, ``M <= 12``, every module on some bus."""
    m = draw(st.integers(min_value=1, max_value=12))
    b = draw(st.integers(min_value=1, max_value=m))
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=b, max_size=b),
            min_size=m, max_size=m,
        )
    )
    matrix = np.array(bits, dtype=bool).reshape(m, b)
    for row in np.flatnonzero(~matrix.any(axis=1)):
        matrix[row, draw(st.integers(min_value=0, max_value=b - 1))] = True
    return matrix


@settings(max_examples=200)
@given(matrix=random_incidences())
def test_random_incidences_match_reference(matrix):
    _assert_same(matrix)


@st.composite
def permuted_layouts(draw):
    """A partial or K-class memory-bus matrix, rows and columns permuted."""
    m = draw(st.integers(min_value=2, max_value=12))
    b = draw(st.integers(min_value=1, max_value=m))
    groups = [g for g in range(2, b + 1) if b % g == 0 and m % g == 0]
    if groups and draw(st.booleans()):
        network = build_network(
            "partial", 4, m, b, n_groups=draw(st.sampled_from(groups))
        )
    else:
        k = draw(st.integers(min_value=1, max_value=b))
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=m),
                    min_size=k - 1, max_size=k - 1,
                )
            )
        )
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [m])]
        network = build_network("kclass", 4, m, b, class_sizes=sizes)
    matrix = np.array(network.memory_bus_matrix(), dtype=bool)
    if draw(st.booleans()):
        matrix = matrix[draw(st.permutations(range(m))), :]
    if draw(st.booleans()):
        matrix = matrix[:, draw(st.permutations(range(b)))]
    return matrix


@settings(max_examples=200)
@given(matrix=permuted_layouts())
def test_permuted_layouts_match_reference(matrix):
    _assert_same(matrix)


@st.composite
def single_layouts(draw):
    """Each module on exactly one bus; some buses may carry none."""
    m = draw(st.integers(min_value=1, max_value=12))
    b = draw(st.integers(min_value=1, max_value=m))
    bus_of = draw(
        st.lists(
            st.integers(min_value=0, max_value=b - 1), min_size=m, max_size=m
        )
    )
    matrix = np.zeros((m, b), dtype=bool)
    matrix[np.arange(m), bus_of] = True
    return matrix


@settings(max_examples=200)
@given(matrix=single_layouts())
def test_single_layouts_match_reference(matrix):
    _assert_same(matrix)
