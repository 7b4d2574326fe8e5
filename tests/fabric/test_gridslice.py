"""Unit tests for Grid/GridSlice cell-set addressing."""

import pytest

from repro.exceptions import ConfigurationError
from repro.fabric.gridslice import Grid, GridSlice


@pytest.fixture
def grid() -> Grid:
    """The shape of a typical sweep: rates x buses x model names."""
    return Grid(
        (
            ("r", (0.25, 0.5, 0.75, 1.0)),
            ("B", (2, 4, 6, 8)),
            ("model", ("hier", "unif")),
        )
    )


class TestGrid:
    def test_shape_and_size(self, grid):
        assert grid.names == ("r", "B", "model")
        assert grid.shape == (4, 4, 2)
        assert grid.size == 32

    def test_index_cell_round_trip(self, grid):
        # Every single-cell selector names exactly one flat index, and
        # the nested loops over the axes visit 0, 1, 2, ... in turn.
        index = 0
        for r in (0.25, 0.5, 0.75, 1.0):
            for b in (2, 4, 6, 8):
                for model in ("hier", "unif"):
                    text = f"r={r},B={b},model={model}"
                    cell = GridSlice.parse(grid, text)
                    assert cell.indices == {index}
                    assert cell.canonical() == text
                    index += 1
        assert index == grid.size

    def test_row_major_order_matches_nesting(self, grid):
        # index 0 is the first value of every axis; the last axis is
        # the innermost loop.
        assert GridSlice.parse(grid, "r=0.25,B=2,model=hier").indices == {0}
        assert GridSlice.parse(grid, "r=0.25,B=2,model=unif").indices == {1}
        assert GridSlice.parse(grid, "r=0.25,B=4,model=hier").indices == {2}

    def test_rejects_unsorted_numeric_axis(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            Grid((("B", (4, 2)),))

    def test_rejects_reserved_keyword_axis_names(self):
        for name in ("all", "empty"):
            with pytest.raises(ConfigurationError, match="keyword"):
                Grid(((name, (1, 2)),))

    def test_rejects_duplicate_axes_and_empty_axes(self):
        with pytest.raises(ConfigurationError, match="duplicate axis"):
            Grid((("B", (1, 2)), ("B", (3, 4))))
        with pytest.raises(ConfigurationError, match="no values"):
            Grid((("B", ()),))

    def test_rejects_string_values_that_look_numeric(self):
        with pytest.raises(ConfigurationError, match="indistinguishable"):
            Grid((("mode", ("fast", "2")),))

    def test_rejects_values_with_reserved_characters(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            Grid((("mode", ("a", "b,c")),))

    def test_unknown_axis_lookup(self, grid):
        with pytest.raises(ConfigurationError, match="unknown axis"):
            grid.axis_values("nope")


class TestGridSliceBasics:
    def test_full_empty_and_keywords(self, grid):
        assert GridSlice.full(grid).canonical() == "all"
        assert GridSlice.empty(grid).canonical() == "empty"
        assert GridSlice.parse(grid, "all") == GridSlice.full(grid)
        assert GridSlice.parse(grid, "empty") == GridSlice.empty(grid)

    def test_rectangle_omits_full_axes(self, grid):
        # All rates, all models, buses 2..6 by 2: one block, B only.
        picked = GridSlice.parse(grid, "B=2+4+6")
        assert picked.canonical() == "B=2-6"
        assert len(picked) == 4 * 3 * 2

    def test_stride_folding(self, grid):
        sliced = GridSlice.parse(grid, "B=2+6")
        # 2 and 6 are not consecutive axis values: stays literal.
        assert sliced.canonical() == "B=2+6"

    def test_value_range_selects_every_axis_value_between(self, grid):
        # r is the outermost axis: each rate owns 4 x 2 = 8 cells.
        sliced = GridSlice.parse(grid, "r=0.25-0.75")
        assert sliced.indices == set(range(24))

    def test_strided_range(self, grid):
        sliced = GridSlice.parse(grid, "r=0.25-1.0/0.5")
        assert sliced.indices == set(range(0, 8)) | set(range(16, 24))

    def test_iteration_is_sorted(self, grid):
        sliced = GridSlice.from_indices(grid, [9, 3, 17])
        assert list(sliced) == [3, 9, 17]

    def test_out_of_range_index_rejected(self, grid):
        with pytest.raises(ConfigurationError, match="out of range"):
            GridSlice.from_indices(grid, [grid.size])

    def test_parse_errors(self, grid):
        with pytest.raises(ConfigurationError, match="unknown axis"):
            GridSlice.parse(grid, "bogus=1")
        with pytest.raises(ConfigurationError, match="name=items"):
            GridSlice.parse(grid, "B")
        with pytest.raises(ConfigurationError, match="twice"):
            GridSlice.parse(grid, "B=2,B=4")
        with pytest.raises(ConfigurationError, match="reversed"):
            GridSlice.parse(grid, "B=8-2")
        with pytest.raises(ConfigurationError, match="selects no value"):
            GridSlice.parse(grid, "B=3-3")
        with pytest.raises(ConfigurationError, match="neither a value"):
            GridSlice.parse(grid, "model=nope")

    def test_string_axis_literals(self, grid):
        sliced = GridSlice.parse(grid, "model=unif")
        # model is the innermost axis: "unif" is every odd index.
        assert sliced.indices == set(range(1, grid.size, 2))
        assert sliced.canonical() == "model=unif"


class TestSplit:
    def test_split_partitions_exactly(self, grid):
        full = GridSlice.full(grid)
        shards = full.split(5)
        assert len(shards) == 5
        union: set[int] = set()
        total = 0
        for shard in shards:
            assert not union & shard.indices
            union |= shard.indices
            total += len(shard)
        assert union == full.indices
        assert total == grid.size
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_split_more_ways_than_cells(self, grid):
        sliced = GridSlice.from_indices(grid, [1, 2, 3])
        shards = sliced.split(10)
        assert [len(s) for s in shards] == [1, 1, 1]

    def test_split_empty(self, grid):
        assert GridSlice.empty(grid).split(4) == []

    def test_split_rejects_bad_n(self, grid):
        with pytest.raises(ConfigurationError, match="n >= 1"):
            GridSlice.full(grid).split(0)

    def test_shards_are_contiguous_in_index_order(self, grid):
        shards = GridSlice.full(grid).split(4)
        flattened = [index for shard in shards for index in shard]
        assert flattened == list(range(grid.size))


class TestCanonicalRoundTrip:
    def test_examples(self, grid):
        for text in (
            "empty",
            "all",
            "B=2-6",
            "r=0.25-1.0/0.5",
            "model=hier",
            "B=4,r=0.5;B=8,r=0.25-0.5",
        ):
            sliced = GridSlice.parse(grid, text)
            assert GridSlice.parse(grid, sliced.canonical()) == sliced

    def test_canonical_is_deterministic(self, grid):
        a = GridSlice.from_indices(grid, [7, 3, 21, 14])
        b = GridSlice.from_indices(grid, [14, 21, 3, 7])
        assert a.canonical() == b.canonical()

    def test_issue_style_example(self):
        grid = Grid(
            (("B", (2, 4, 6, 8, 10, 12, 14, 16)), ("r", (0.25, 0.5, 0.75, 1.0)))
        )
        full = GridSlice.full(grid)
        assert full.canonical() == "all"
        sliced = GridSlice.parse(grid, "B=2-16/2,r=0.25-1.0")
        assert sliced == full
