"""Unit coverage for the incidence core: structure, recognizer, oracle.

The differential wall (``test_structure_differential``) pins end-to-end
numeric behaviour; these tests pin the core's *contracts* — validation
messages, digest vs canonical-key semantics, recognition kwargs and
module-safety, and the matching oracle's memoization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.topology.factory import build_network
from repro.topology.generators import generate_structure
from repro.topology.recognize import (
    Recognition,
    clear_recognition_cache,
    recognize,
    recognize_cached,
)
from repro.topology.structure import (
    ConnectionStructure,
    MatchingOracle,
    StructureNetwork,
    structure_of,
)


def _uniform(matrix, n_processors=4):
    return ConnectionStructure.with_uniform_processors(
        n_processors, np.array(matrix, dtype=bool)
    )


# ----------------------------------------------------------------------
# ConnectionStructure: validation and identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("label,matrix", [
    ("empty-memory-row", [[1, 0], [0, 0], [0, 1]]),
    ("more-buses-than-modules", [[1, 1, 1], [1, 1, 1]]),
])
def test_invalid_matrices_are_rejected(label, matrix):
    with pytest.raises(ConfigurationError):
        _uniform(matrix)


def test_non_binary_and_ragged_matrices_are_rejected():
    with pytest.raises(ConfigurationError):
        ConnectionStructure.with_uniform_processors(
            4, [[1, 2], [1, 0], [0, 1]]
        )
    with pytest.raises(ConfigurationError):
        ConnectionStructure(
            processor_bus=[[1, 1], [1]],
            memory_bus=[[1, 0], [0, 1]],
        )


def test_digest_is_content_addressed_and_permutation_sensitive():
    base = _uniform([[1, 0], [1, 1], [0, 1]])
    same = _uniform([[1, 0], [1, 1], [0, 1]])
    swapped = _uniform([[0, 1], [1, 1], [1, 0]])  # columns exchanged
    assert base.digest() == same.digest()
    assert base == same and hash(base) == hash(same)
    assert base.digest() != swapped.digest()
    # ... but relabeling buses does not change the shape the WL key sees.
    assert base.canonical_key() == swapped.canonical_key()
    assert len(base.short()) == 12


def test_nonuniform_processor_side_is_carried_but_not_generatable():
    structure = ConnectionStructure(
        processor_bus=[[1, 0], [1, 1], [0, 1]],
        memory_bus=[[1, 0], [0, 1]],
    )
    assert not structure.uniform_processors
    spec = structure.to_spec()
    assert "processor_bus" in spec
    # The generator surface deliberately rejects incomplete processor
    # sides: every evaluation layer assumes the paper's complete
    # processor-bus connection (assumption 2).
    with pytest.raises(ConfigurationError, match="processor_bus"):
        generate_structure(spec, 3, 2, 2)


def test_uniform_to_spec_round_trips_through_the_generator():
    structure = _uniform([[1, 0], [1, 1], [0, 1]], n_processors=5)
    rebuilt = generate_structure(structure.to_spec(), 5, 3, 2)
    assert rebuilt.digest() == structure.digest()


def test_structure_of_reflects_any_network():
    network = build_network("partial", 8, 8, 4, n_groups=2)
    structure = structure_of(network)
    assert structure.n_memories == 8
    assert structure.n_buses == 4
    np.testing.assert_array_equal(
        structure.memory_bus, network.memory_bus_matrix().astype(bool)
    )


# ----------------------------------------------------------------------
# Recognizer: schemes, kwargs, module-safety, cache
# ----------------------------------------------------------------------


def test_recognizes_all_five_schemes_with_default_layouts():
    cases = {
        "full": build_network("full", 8, 8, 3),
        "single": build_network("single", 8, 8, 4),
        "partial": build_network("partial", 8, 8, 4, n_groups=2),
        "kclass": build_network("kclass", 8, 8, 4,
                                class_sizes=[1, 2, 2, 3]),
    }
    for scheme, network in cases.items():
        recognition = recognize(structure_of(network))
        assert recognition is not None
        assert recognition.scheme == scheme
        assert recognition.module_safe
    # A crossbar's incidence is all-ones at B = M: recognized as "full",
    # whose closed form is identical there.
    crossbar = recognize(structure_of(build_network("crossbar", 8, 8, 8)))
    assert crossbar is not None
    assert crossbar.scheme == "full"


def test_permuted_single_layout_recognized_with_explicit_map():
    layout = [3, 0, 1, 2, 0, 1, 2, 3]
    recognition = recognize(
        structure_of(build_network("single", 8, 8, 4, bus_of_module=layout))
    )
    assert recognition is not None
    assert recognition.scheme == "single"
    assert recognition.module_safe
    assert recognition.kwargs() == {"bus_of_module": tuple(layout)}


def test_permuted_partial_layout_is_not_module_safe():
    # Interleave the two groups' modules: same unlabeled shape, but the
    # closed form's contiguous-group assumption no longer maps modules.
    matrix = np.zeros((8, 4), dtype=bool)
    for module in range(8):
        group = module % 2
        matrix[module, 2 * group : 2 * group + 2] = True
    recognition = recognize(_uniform(matrix, n_processors=8))
    assert recognition is not None
    assert recognition.scheme == "partial"
    assert not recognition.module_safe


def test_nonuniform_processor_connections_are_never_recognized():
    structure = ConnectionStructure(
        processor_bus=[[1, 0], [0, 1], [1, 1]],
        memory_bus=[[1, 0], [1, 1], [0, 1]],
    )
    assert recognize(structure) is None


def test_unrecognizable_structure_returns_none():
    # A graded chain whose largest row-set misses one bus: not kclass.
    structure = _uniform([[1, 0, 0], [1, 1, 0], [1, 1, 0], [1, 1, 0]])
    assert recognize(structure) is None


def test_recognition_cache_is_digest_keyed():
    clear_recognition_cache()
    structure = structure_of(build_network("partial", 8, 8, 4, n_groups=2))
    first = recognize_cached(structure)
    second = recognize_cached(
        structure_of(build_network("partial", 8, 8, 4, n_groups=2))
    )
    assert first == second == recognize(structure)
    assert isinstance(first, Recognition)


# ----------------------------------------------------------------------
# Matching oracle
# ----------------------------------------------------------------------


def test_oracle_served_and_grants_agree_and_memoize():
    matrix = np.array(
        [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool
    )
    oracle = MatchingOracle(matrix)
    for mask in range(1 << 4):
        requested = [m for m in range(4) if mask >> m & 1]
        grants = oracle.grants(tuple(requested))
        assert len(grants) == oracle.served(mask)
        assert oracle.served(mask) == oracle.served(mask)  # memo path
        for bus, module in grants.items():
            assert matrix[module, bus]
        assert len(set(grants.values())) == len(grants)
    # Full-demand matching saturates this band matrix: 3 of 4 served.
    assert oracle.served((1 << 4) - 1) == 3


def test_structure_network_describe_names_the_digest():
    structure = generate_structure(
        {"kind": "random_incidence", "density": 0.5, "seed": 1}, 8, 8, 4
    )
    network = StructureNetwork(structure)
    assert network.scheme == "custom"
    assert structure.short() in network.describe()
