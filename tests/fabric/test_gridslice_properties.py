"""Property-based tests of GridSlice (Hypothesis).

A slice is a frozenset of flat indices plus a canonical string codec;
these properties pin exactly the invariants the fabric relies on:
``parse(canonical(s)) == s`` for every slice (shard addressing survives
the wire) and ``split(n)`` is an exact balanced partition (no cell lost
or duplicated by sharding).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.fabric.gridslice import Grid, GridSlice

# -- grid strategies --------------------------------------------------


def _numeric_axis(draw, name):
    kind = draw(st.sampled_from(("int", "float")))
    length = draw(st.integers(min_value=1, max_value=6))
    if kind == "int":
        start = draw(st.integers(min_value=-20, max_value=20))
        step = draw(st.integers(min_value=1, max_value=7))
        values = tuple(start + i * step for i in range(length))
    else:
        base = draw(
            st.floats(
                min_value=-4.0,
                max_value=4.0,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        step = draw(st.sampled_from((0.125, 0.25, 0.5, 1.5)))
        values = tuple(round(base + i * step, 6) for i in range(length))
    return (name, values)


def _string_axis(draw, name):
    length = draw(st.integers(min_value=1, max_value=4))
    pool = ("alpha", "beta", "gamma", "delta", "hier", "unif")
    values = tuple(draw(st.permutations(pool))[:length])
    return (name, values)


@st.composite
def grids(draw):
    n_axes = draw(st.integers(min_value=1, max_value=3))
    names = ("r", "B", "model")[:n_axes]
    axes = []
    for name in names:
        if draw(st.booleans()):
            axes.append(_numeric_axis(draw, name))
        else:
            axes.append(_string_axis(draw, name))
    return Grid(tuple(axes))


@st.composite
def grid_and_indices(draw):
    grid = draw(grids())
    indices = draw(
        st.sets(
            st.integers(min_value=0, max_value=grid.size - 1),
            max_size=grid.size,
        )
    )
    return grid, frozenset(indices)


# -- the codec --------------------------------------------------------


@given(grid_and_indices())
def test_canonical_round_trips(data):
    grid, indices = data
    sliced = GridSlice.from_indices(grid, indices)
    text = sliced.canonical()
    assert GridSlice.parse(grid, text) == sliced


@given(grid_and_indices())
def test_canonical_is_a_pure_function_of_the_set(data):
    grid, indices = data
    a = GridSlice.from_indices(grid, indices)
    b = GridSlice.from_indices(grid, sorted(indices, reverse=True))
    assert a.canonical() == b.canonical()


@given(grids())
def test_keywords(grid):
    assert GridSlice.full(grid).canonical() == "all"
    assert GridSlice.empty(grid).canonical() == "empty"


# -- sharding ---------------------------------------------------------


@given(grid_and_indices(), st.integers(min_value=1, max_value=9))
def test_split_partitions_exactly_and_balances(data, n):
    grid, indices = data
    sliced = GridSlice.from_indices(grid, indices)
    shards = sliced.split(n)
    # Non-empty, at most n, pairwise disjoint, covering exactly.
    assert len(shards) <= n
    assert all(shards)
    seen: set[int] = set()
    for shard in shards:
        assert not (seen & shard.indices)
        seen |= shard.indices
    assert seen == set(indices)
    if shards:
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1


@given(grid_and_indices(), st.integers(min_value=1, max_value=9))
def test_split_shards_round_trip_the_codec(data, n):
    grid, indices = data
    for shard in GridSlice.from_indices(grid, indices).split(n):
        assert GridSlice.parse(grid, shard.canonical()) == shard
