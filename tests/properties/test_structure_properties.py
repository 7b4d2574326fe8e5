"""Property-based invariants of arbitrary connection structures.

Hypothesis draws small random incidence matrices and asserts the laws
any bus-memory structure must obey, independent of provenance:

* bandwidth can exceed neither the bus supply ``B``, the module count
  ``M``, nor the expected offered load ``N * r``;
* relabeling modules or buses (row/column permutations) changes neither
  the WL canonical key nor the exact bandwidth;
* adding a connection never hurts (maximum matching is monotone in the
  edge set, and the served count enters the expectation positively);
* spec normalization is idempotent: ``canonical(parse(x)) ==
  canonical(x)``, and a structure survives its own ``to_spec`` with the
  digest intact.

The suite runs under the derandomized "ci" profile registered in
``tests/conftest.py``, so failures replay identically in CI.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.core.exact import exact_bandwidth
from repro.core.request_models import UniformRequestModel
from repro.topology.generators import (
    canonical_generator_spec,
    generate_structure,
    normalize_generator_spec,
)
from repro.topology.structure import ConnectionStructure, StructureNetwork

TOL = 1e-9


@st.composite
def structures(draw):
    """A valid small ``ConnectionStructure`` (every row/column attached)."""
    m = draw(st.integers(min_value=2, max_value=6))
    b = draw(st.integers(min_value=1, max_value=m))
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=b, max_size=b),
            min_size=m, max_size=m,
        )
    )
    matrix = np.array(bits, dtype=bool)
    # Repair rather than filter: every module needs a bus and every bus
    # a module, exactly the generator-family guarantee.
    for row in np.flatnonzero(~matrix.any(axis=1)):
        matrix[row, draw(st.integers(min_value=0, max_value=b - 1))] = True
    for col in np.flatnonzero(~matrix.any(axis=0)):
        matrix[draw(st.integers(min_value=0, max_value=m - 1)), col] = True
    return ConnectionStructure.with_uniform_processors(
        draw(st.integers(min_value=2, max_value=6)), matrix
    )


def _permuted(structure, row_order, col_order):
    matrix = structure.memory_bus[np.ix_(row_order, col_order)]
    return ConnectionStructure.with_uniform_processors(
        structure.n_processors, matrix
    )


@given(structure=structures(), rate=st.floats(min_value=0.05, max_value=1.0))
def test_bandwidth_bounded_by_supply_and_demand(structure, rate):
    n, m, b = structure.n_processors, structure.n_memories, structure.n_buses
    model = UniformRequestModel(n, m, rate=rate)
    bandwidth = exact_bandwidth(StructureNetwork(structure), model)
    assert 0.0 <= bandwidth <= min(b, m, n * rate) + TOL


@given(structure=structures(), data=st.data())
def test_permutations_preserve_key_and_bandwidth(structure, data):
    m, b = structure.n_memories, structure.n_buses
    row_order = data.draw(st.permutations(range(m)), label="row order")
    col_order = data.draw(st.permutations(range(b)), label="column order")
    permuted = _permuted(structure, row_order, col_order)
    assert permuted.canonical_key() == structure.canonical_key()
    model = UniformRequestModel(
        structure.n_processors, m, rate=0.7
    )
    # Same multiset of request sets under the uniform model, so only the
    # float summation order can move — allow it an ulp-scale band.
    assert abs(
        exact_bandwidth(StructureNetwork(permuted), model)
        - exact_bandwidth(StructureNetwork(structure), model)
    ) <= 1e-12


@given(structure=structures(), data=st.data())
def test_adding_a_connection_never_hurts(structure, data):
    matrix = structure.memory_bus.copy()
    missing = np.argwhere(~matrix)
    if not len(missing):
        return
    row, col = missing[data.draw(
        st.integers(min_value=0, max_value=len(missing) - 1),
        label="edge index",
    )]
    matrix[row, col] = True
    richer = ConnectionStructure.with_uniform_processors(
        structure.n_processors, matrix
    )
    model = UniformRequestModel(
        structure.n_processors, structure.n_memories, rate=0.7
    )
    assert (
        exact_bandwidth(StructureNetwork(richer), model)
        >= exact_bandwidth(StructureNetwork(structure), model) - TOL
    )


@given(structure=structures())
def test_structure_survives_its_own_spec(structure):
    spec = structure.to_spec()
    rebuilt = generate_structure(
        spec,
        structure.n_processors,
        structure.n_memories,
        structure.n_buses,
    )
    assert rebuilt.digest() == structure.digest()
    assert rebuilt == structure


@given(structure=structures())
def test_canonicalization_is_idempotent(structure):
    spec = structure.to_spec()
    normalized = normalize_generator_spec(spec)
    assert canonical_generator_spec(normalized) == canonical_generator_spec(
        spec
    )
    # The canonical tuple itself is a valid spec spelling.
    canonical = canonical_generator_spec(spec)
    assert canonical_generator_spec(canonical) == canonical


@given(
    kind_seed=st.tuples(
        st.sampled_from(["waxman", "random_incidence"]),
        st.integers(min_value=0, max_value=2**31),
    )
)
def test_random_generators_are_reproducible(kind_seed):
    kind, seed = kind_seed
    spec = {"kind": kind, "seed": seed}
    first = generate_structure(spec, 6, 6, 3)
    second = generate_structure(spec, 6, 6, 3)
    assert first.digest() == second.digest()
