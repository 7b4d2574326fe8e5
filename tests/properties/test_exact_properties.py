"""Property-based checks of the exact-enumeration lattice transforms.

Hypothesis draws small random incidence matrices and subset vectors and
pins the two whole-array transforms of ``repro.core.exact`` against
per-subset oracles kept here:

* the König–Ore deficiency table of ``_matching_served_per_subset``
  equals, subset by subset, the served count of an independent Kuhn
  matching (``repro.topology.structure.maximum_matching``);
* the reshaped in-place Möbius transform equals the boolean-mask loop
  it replaced, bit for bit, and inverts the subset-sum transform.

The suite runs under the derandomized "ci" profile registered in
``tests/conftest.py``, so failures replay identically in CI.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.core.exact import _matching_served_per_subset, _moebius_in_place
from repro.topology.structure import maximum_matching


@st.composite
def incidences(draw):
    """A random ``(M, B)`` memory-bus matrix, ``M <= 10``, ``B <= M``.

    Rows or columns without an edge are allowed: a module no bus
    reaches is never served, and an unused bus serves nobody.
    """
    m = draw(st.integers(min_value=1, max_value=10))
    b = draw(st.integers(min_value=1, max_value=m))
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=b, max_size=b),
            min_size=m, max_size=m,
        )
    )
    return np.array(bits, dtype=bool)


@st.composite
def subset_vectors(draw):
    """A float vector over the ``2**m`` subsets of ``m <= 10`` bits."""
    m = draw(st.integers(min_value=0, max_value=10))
    values = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1 << m, max_size=1 << m,
        )
    )
    return m, np.array(values)


def _moebius_oracle(values: np.ndarray, m: int) -> np.ndarray:
    """The boolean-mask Möbius loop exact enumeration used before."""
    exact = values.copy()
    n_subsets = len(values)
    for j in range(m):
        bit = 1 << j
        has_bit = (np.arange(n_subsets) & bit).astype(bool)
        exact[has_bit] -= exact[np.arange(n_subsets)[has_bit] ^ bit]
    return exact


@given(incidences())
def test_deficiency_table_equals_per_subset_kuhn(matrix):
    m = matrix.shape[0]
    adjacency = [[int(i) for i in np.flatnonzero(row)] for row in matrix]
    table = _matching_served_per_subset(matrix, 1 << m)
    assert table.shape == (1 << m,)
    for mask in range(1 << m):
        requested = [module for module in range(m) if mask >> module & 1]
        match_of_bus = maximum_matching(adjacency, requested)
        served = sum(1 for owner in match_of_bus if owner is not None)
        assert table[mask] == served, f"subset {mask:0{m}b}"


@given(subset_vectors())
def test_reshaped_moebius_equals_boolean_mask_loop(case):
    m, values = case
    expected = _moebius_oracle(values, m)
    got = _moebius_in_place(values.copy(), m)
    assert got.tobytes() == expected.tobytes()


@given(subset_vectors())
def test_moebius_inverts_subset_sums(case):
    m, values = case
    values = np.round(values)  # integers: sums and differences are exact
    sums = np.array([
        sum(values[s] for s in range(len(values)) if s & t == s)
        for t in range(len(values))
    ])
    assert np.array_equal(_moebius_in_place(sums, m), values)
