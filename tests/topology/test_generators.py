"""Generator family contracts: exact patterns, determinism, canon forms.

The differential wall checks the *values* generated structures produce;
these tests pin the *matrices* themselves — the mesh wiring of arXiv
1312.2807, the grouped/kclass block layouts — plus spec normalization
and the B-free contract (a spec never encodes the bus count except for
the explicitly B-pinning kinds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.topology import (
    GENERATOR_KINDS,
    canonical_generator_spec,
    generate_structure,
    normalize_generator_spec,
    recognize,
)

ALL_KINDS = set(GENERATOR_KINDS)


def test_registry_names_every_builder():
    assert ALL_KINDS == {
        "matrix", "grouped", "kclass", "mesh_rowcol", "waxman",
        "random_incidence",
    }


def test_mesh_static_wiring_is_one_row_bus_plus_one_column_bus():
    structure = generate_structure(
        {"kind": "mesh_rowcol", "rows": 2, "cols": 3}, 4, 6, 5
    )
    matrix = structure.memory_bus
    # Module (i, j) touches exactly row bus i and column bus rows + j.
    expected = np.zeros((6, 5), dtype=bool)
    for i in range(2):
        for j in range(3):
            expected[i * 3 + j, i] = True
            expected[i * 3 + j, 2 + j] = True
    np.testing.assert_array_equal(matrix, expected)


def test_mesh_reconfigurable_doubles_the_bus_count():
    structure = generate_structure(
        {"kind": "mesh_rowcol", "rows": 4, "cols": 4,
         "mode": "reconfigurable"}, 4, 16, 16
    )
    # Every module still touches exactly one row segment and one column
    # segment, and every segment serves only its half of the mesh.
    assert structure.n_buses == 16
    assert (structure.memory_bus.sum(axis=1) == 2).all()
    assert (structure.memory_bus.sum(axis=0) <= 8).all()


def test_grouped_matches_the_partial_scheme_blocks():
    structure = generate_structure(
        {"kind": "grouped", "n_groups": 2}, 8, 8, 4
    )
    expected = np.zeros((8, 4), dtype=bool)
    expected[:4, :2] = True
    expected[4:, 2:] = True
    np.testing.assert_array_equal(structure.memory_bus, expected)
    recognition = recognize(structure)
    assert recognition is not None and recognition.scheme == "partial"


def test_kclass_generator_nests_like_equation_eleven():
    structure = generate_structure(
        {"kind": "kclass", "class_sizes": [2, 2, 4]}, 8, 8, 4
    )
    widths = structure.memory_bus.sum(axis=1)
    # Class j reaches j + B - K buses: 2, 3, then all 4.
    assert widths.tolist() == [2, 2, 3, 3, 4, 4, 4, 4]
    # Row-sets nest: each narrower row is a subset of every wider one.
    rows = [frozenset(np.flatnonzero(r)) for r in structure.memory_bus]
    assert all(a <= b for a, b in zip(rows, rows[1:]))


def test_random_kinds_vary_with_seed_but_not_with_spelling():
    base = {"kind": "random_incidence", "density": 0.5, "seed": 4}
    reseeded = {"kind": "random_incidence", "density": 0.5, "seed": 5}
    assert (
        generate_structure(base, 8, 8, 4).digest()
        == generate_structure(dict(base), 8, 8, 4).digest()
    )
    assert (
        generate_structure(base, 8, 8, 4).digest()
        != generate_structure(reseeded, 8, 8, 4).digest()
    )


def test_waxman_locality_strengthens_with_beta():
    # Smaller beta decays connection probability faster with distance,
    # so the expected edge count drops.
    tight = generate_structure(
        {"kind": "waxman", "beta": 0.05, "seed": 2}, 8, 12, 6
    )
    loose = generate_structure(
        {"kind": "waxman", "beta": 5.0, "seed": 2}, 8, 12, 6
    )
    assert tight.connection_count < loose.connection_count


def test_normalize_fills_defaults_and_canonical_sorts_fields():
    normalized = normalize_generator_spec({"kind": "waxman"})
    assert normalized["alpha"] == 0.9
    assert normalized["beta"] == 0.5
    assert normalized["seed"] == 0
    canonical = canonical_generator_spec({"kind": "waxman"})
    assert canonical == canonical_generator_spec(
        {"seed": 0, "kind": "waxman", "beta": 0.5, "alpha": 0.9}
    )
    assert [name for name, _ in canonical] == sorted(
        name for name, _ in canonical
    )


def test_canonical_tuple_is_an_accepted_spelling():
    canonical = canonical_generator_spec({"kind": "grouped", "n_groups": 2})
    left = generate_structure(canonical, 8, 8, 4)
    right = generate_structure({"kind": "grouped", "n_groups": 2}, 8, 8, 4)
    assert left.digest() == right.digest()


def test_hand_built_tuples_are_validated_even_when_equal_to_a_canonical_one():
    canonical = canonical_generator_spec({"kind": "waxman", "seed": 1})
    plain = tuple(canonical)
    assert generate_structure(plain, 8, 8, 4).digest() == (
        generate_structure(canonical, 8, 8, 4).digest()
    )
    # ``True == 1`` and they hash alike, so this malformed tuple equals
    # the canonical one; it must still be rejected as the dict form is.
    forged = tuple(
        (key, True if key == "seed" else value) for key, value in canonical
    )
    assert forged == canonical
    for spec in (forged, dict(forged)):
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            generate_structure(spec, 8, 8, 4)


@pytest.mark.parametrize("kind", sorted(ALL_KINDS - {"matrix"}))
def test_specs_are_bus_count_free(kind):
    """No sweepable kind encodes B; pinning kinds raise a typed error."""
    spec = {
        "grouped": {"kind": "grouped", "n_groups": 2},
        "kclass": {"kind": "kclass", "class_sizes": [4, 4]},
        "mesh_rowcol": {"kind": "mesh_rowcol", "rows": 2, "cols": 4},
        "waxman": {"kind": "waxman"},
        "random_incidence": {"kind": "random_incidence"},
    }[kind]
    normalized = normalize_generator_spec(spec)
    assert "B" not in normalized and "n_buses" not in normalized
    if kind == "mesh_rowcol":
        with pytest.raises(ConfigurationError, match="pins B"):
            generate_structure(spec, 8, 8, 4)
    else:
        assert generate_structure(spec, 8, 8, 4).n_buses == 4
