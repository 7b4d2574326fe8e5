"""Compact cell-set addressing for sweep grids: :class:`Grid` + :class:`GridSlice`.

A sweep grid is a small Cartesian product of named axes (bus counts,
request rates, model names, ...).  Addressing *subsets* of that grid —
the shard a worker owns, the cells a crashed worker lost — wants a
value type with a compact, human-diffable string form, the way
ClusterShell's RangeSet addresses node subsets.

:class:`GridSlice` is that type.  It is a frozen set of flat cell
indices over a :class:`Grid`, with balanced ``split(n)`` for sharding
and a canonical string form::

    B=2-16/2,r=0.25-1.0          one rectangular block
    B=4,r=0.5;B=8,r=0.25-0.5     union of blocks (';'-separated)
    all / empty                   the two trivial slices

Within a block, ``,`` separates axis selectors and ``+`` separates
items of one selector.  Numeric items are single values (``4``), value
ranges covering every axis value in the interval (``0.25-1.0``), or
strided ranges (``2-16/2``); string items are literal values.  An axis
omitted from a block selects all of its values.  ``parse`` and
``canonical`` round-trip exactly: parsing only ever *selects among the
grid's own axis values*, so no float ever has to survive a
decimal-text round trip.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from collections.abc import Iterable, Iterator

from repro.exceptions import ConfigurationError

__all__ = ["Grid", "GridSlice"]

_AXIS_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: Characters with syntactic meaning in canonical strings; axis values
#: must not render to text containing them (string values additionally
#: must not look like numeric ranges).
_RESERVED = set(",;+= \t\n")

_RANGE = re.compile(
    r"^(?P<lo>-?\d+(?:\.\d+)?(?:e-?\d+)?)"
    r"-(?P<hi>-?\d+(?:\.\d+)?(?:e-?\d+)?)"
    r"(?:/(?P<step>\d+(?:\.\d+)?(?:e-?\d+)?))?$"
)


def _format_value(value: object) -> str:
    """Render one axis value; ``repr`` for floats round-trips exactly."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@dataclasses.dataclass(frozen=True)
class Grid:
    """An ordered, named Cartesian product of axis values.

    ``axes`` is a tuple of ``(name, values)`` pairs.  Numeric axes must
    be strictly increasing (range selectors mean "every axis value in
    the interval", which needs a total order); string axes keep their
    given order.  Flat cell indices enumerate the product row-major in
    axis order — the same nesting order the sweep builders use, so a
    slice's sorted indices match the in-process record order.
    """

    axes: tuple[tuple[str, tuple[object, ...]], ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError("a Grid needs at least one axis")
        seen: set[str] = set()
        for name, values in self.axes:
            if not _AXIS_NAME.match(name):
                raise ConfigurationError(f"invalid axis name {name!r}")
            if name in ("all", "empty"):
                raise ConfigurationError(
                    f"axis name {name!r} collides with a slice keyword"
                )
            if name in seen:
                raise ConfigurationError(f"duplicate axis {name!r}")
            seen.add(name)
            if not values:
                raise ConfigurationError(f"axis {name!r} has no values")
            numeric = all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            )
            if numeric:
                if any(b <= a for a, b in zip(values, values[1:])):
                    raise ConfigurationError(
                        f"numeric axis {name!r} must be strictly "
                        f"increasing, got {values!r}"
                    )
            elif not all(isinstance(v, str) for v in values):
                raise ConfigurationError(
                    f"axis {name!r} must be all-numeric or all-string, "
                    f"got {values!r}"
                )
            rendered = [_format_value(v) for v in values]
            if len(set(rendered)) != len(rendered):
                raise ConfigurationError(
                    f"axis {name!r} has duplicate values: {values!r}"
                )
            for text in rendered:
                if _RESERVED & set(text) or "/" in text:
                    raise ConfigurationError(
                        f"axis {name!r} value {text!r} contains reserved "
                        "characters"
                    )
                if not numeric and (_RANGE.match(text) or _is_number(text)):
                    raise ConfigurationError(
                        f"string axis {name!r} value {text!r} is "
                        "indistinguishable from a numeric selector"
                    )

    @property
    def names(self) -> tuple[str, ...]:
        """Axis names in order."""
        return tuple(name for name, _ in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        """Axis lengths in order."""
        return tuple(len(values) for _, values in self.axes)

    @property
    def size(self) -> int:
        """Total number of cells in the full product."""
        return math.prod(self.shape)

    def axis_values(self, name: str) -> tuple[object, ...]:
        """The values of one axis by name."""
        for axis_name, values in self.axes:
            if axis_name == name:
                return values
        raise ConfigurationError(
            f"unknown axis {name!r}; grid has {', '.join(self.names)}"
        )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _fold_positions(
    values: tuple[object, ...], positions: list[int], numeric: bool
) -> str:
    """Compact one axis's selected positions into selector items.

    Greedy left-to-right: a run of consecutive positions folds to
    ``lo-hi`` (every axis value in the interval); a run of constant
    value-stride folds to ``lo-hi/step`` when it beats the plain run
    and saves space (>= 3 values); everything else stays literal.
    """
    items: list[str] = []
    i = 0
    n = len(positions)
    while i < n:
        consecutive = i + 1
        while (
            consecutive < n
            and positions[consecutive] == positions[consecutive - 1] + 1
        ):
            consecutive += 1
        run = consecutive - i
        strided = i + 1
        step = None
        if numeric and i + 1 < n:
            step = (
                float(values[positions[i + 1]]) - float(values[positions[i]])
            )
            while (
                strided < n
                and _close(
                    float(values[positions[strided]])
                    - float(values[positions[strided - 1]]),
                    step,
                )
            ):
                strided += 1
        stride_run = strided - i
        if numeric and run >= 2 and run >= stride_run:
            lo, hi = positions[i], positions[i + run - 1]
            items.append(
                f"{_format_value(values[lo])}-{_format_value(values[hi])}"
            )
            i += run
        elif numeric and stride_run >= 3:
            lo, hi = positions[i], positions[i + stride_run - 1]
            items.append(
                f"{_format_value(values[lo])}-{_format_value(values[hi])}"
                f"/{_format_value(step)}"
            )
            i += stride_run
        else:
            items.append(_format_value(values[positions[i]]))
            i += 1
    return "+".join(items)


def _parse_selector(
    name: str, values: tuple[object, ...], text: str
) -> list[int]:
    """Parse one ``name=<selector>`` into sorted axis positions."""
    rendered = {_format_value(v): p for p, v in enumerate(values)}
    numeric = all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values
    )
    positions: set[int] = set()
    for item in text.split("+"):
        item = item.strip()
        if not item:
            raise ConfigurationError(
                f"empty item in selector for axis {name!r}"
            )
        if item in rendered:
            positions.add(rendered[item])
            continue
        match = _RANGE.match(item) if numeric else None
        if match is None:
            raise ConfigurationError(
                f"{item!r} is neither a value of axis {name!r} nor a "
                "numeric range"
            )
        lo, hi = float(match["lo"]), float(match["hi"])
        step = float(match["step"]) if match["step"] else None
        if hi < lo:
            raise ConfigurationError(
                f"range {item!r} on axis {name!r} is reversed"
            )
        if step is not None and step <= 0:
            raise ConfigurationError(
                f"range {item!r} on axis {name!r} has a non-positive step"
            )
        matched = False
        for position, value in enumerate(values):
            v = float(value)
            if v < lo and not _close(v, lo):
                continue
            if v > hi and not _close(v, hi):
                continue
            if step is not None:
                ratio = (v - lo) / step
                if abs(ratio - round(ratio)) > 1e-6:
                    continue
            positions.add(position)
            matched = True
        if not matched:
            raise ConfigurationError(
                f"range {item!r} selects no value of axis {name!r} "
                f"(values: {', '.join(map(_format_value, values))})"
            )
    return sorted(positions)


@dataclasses.dataclass(frozen=True)
class GridSlice:
    """An immutable subset of a :class:`Grid`'s cells.

    Use the classmethods to build one (:meth:`full`, :meth:`empty`,
    :meth:`from_indices`, :meth:`parse`); shard with :meth:`split`; and
    serialize with :meth:`canonical`.
    """

    grid: Grid
    indices: frozenset[int]

    def __post_init__(self) -> None:
        size = self.grid.size
        for index in self.indices:
            if not isinstance(index, int) or not 0 <= index < size:
                raise ConfigurationError(
                    f"cell index {index!r} out of range for grid of {size}"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def full(cls, grid: Grid) -> GridSlice:
        """Every cell of ``grid``."""
        return cls(grid, frozenset(range(grid.size)))

    @classmethod
    def empty(cls, grid: Grid) -> GridSlice:
        """No cells."""
        return cls(grid, frozenset())

    @classmethod
    def from_indices(cls, grid: Grid, indices: Iterable[int]) -> GridSlice:
        """A slice holding exactly ``indices``."""
        return cls(grid, frozenset(int(i) for i in indices))

    @classmethod
    def parse(cls, grid: Grid, text: str) -> GridSlice:
        """Parse a canonical (or hand-written) slice string."""
        text = text.strip()
        if text in ("", "empty"):
            return cls.empty(grid)
        if text == "all":
            return cls.full(grid)
        indices: set[int] = set()
        for block in text.split(";"):
            block = block.strip()
            if not block:
                raise ConfigurationError(f"empty block in slice {text!r}")
            per_axis: dict[str, list[int]] = {}
            for part in block.split(","):
                name, eq, selector = part.strip().partition("=")
                if not eq:
                    raise ConfigurationError(
                        f"malformed selector {part.strip()!r} "
                        "(expected name=items)"
                    )
                name = name.strip()
                values = grid.axis_values(name)  # raises on unknown axis
                if name in per_axis:
                    raise ConfigurationError(
                        f"axis {name!r} appears twice in block {block!r}"
                    )
                per_axis[name] = _parse_selector(name, values, selector)
            position_sets = [
                per_axis.get(name, list(range(len(values))))
                for name, values in grid.axes
            ]
            for combo in itertools.product(*position_sets):
                index = 0
                for (_, values), position in zip(grid.axes, combo):
                    index = index * len(values) + position
                indices.add(index)
        return cls(grid, frozenset(indices))

    # ------------------------------------------------------------------
    # Size and iteration
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        """Iterate flat indices in ascending (row-major) order."""
        return iter(sorted(self.indices))

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    def split(self, n: int) -> list[GridSlice]:
        """Partition into at most ``n`` non-empty, balanced sub-slices.

        Cells are chunked contiguously in index order, so each shard
        covers a compact region of the grid; sizes differ by at most
        one; the shards are pairwise disjoint and their union is
        exactly this slice.  An empty slice splits into ``[]``.
        """
        if n < 1:
            raise ConfigurationError(f"split needs n >= 1, got {n}")
        ordered = sorted(self.indices)
        if not ordered:
            return []
        n = min(n, len(ordered))
        base, extra = divmod(len(ordered), n)
        shards: list[GridSlice] = []
        start = 0
        for i in range(n):
            size = base + (1 if i < extra else 0)
            shards.append(
                GridSlice(self.grid, frozenset(ordered[start : start + size]))
            )
            start += size
        return shards

    # ------------------------------------------------------------------
    # Canonical string form
    # ------------------------------------------------------------------

    def canonical(self) -> str:
        """The compact, parseable, deterministic string form.

        A pure function of the cell set: a full rectangle renders as
        one block of per-axis selectors (axes selecting all their
        values are omitted); anything else decomposes into one block
        per leading-axes prefix, with the final axis folded — so two
        equal slices always render identically, which makes shard maps
        and run manifests diffable.
        """
        if not self.indices:
            return "empty"
        if len(self.indices) == self.grid.size:
            return "all"
        block = self._rectangle_block()
        if block is not None:
            return block
        # Group by all-but-last-axis prefix; fold the last axis per group.
        last_name, last_values = self.grid.axes[-1]
        last_len = len(last_values)
        groups: dict[int, list[int]] = {}
        for index in sorted(self.indices):
            prefix, position = divmod(index, last_len)
            groups.setdefault(prefix, []).append(position)
        blocks = []
        for prefix in sorted(groups):
            parts = []
            remainder = prefix
            for name, values in reversed(self.grid.axes[:-1]):
                remainder, position = divmod(remainder, len(values))
                parts.append(f"{name}={_format_value(values[position])}")
            parts.reverse()
            numeric = _axis_numeric(last_values)
            parts.append(
                f"{last_name}="
                + _fold_positions(last_values, groups[prefix], numeric)
            )
            blocks.append(",".join(parts))
        return ";".join(blocks)

    def _rectangle_block(self) -> str | None:
        """One-block form if the slice is a product of per-axis subsets."""
        per_axis: list[set[int]] = [set() for _ in self.grid.axes]
        for index in self.indices:
            for position_set, (_, values) in zip(
                reversed(per_axis), reversed(self.grid.axes)
            ):
                index, position = divmod(index, len(values))
                position_set.add(position)
        if math.prod(len(s) for s in per_axis) != len(self.indices):
            return None
        parts = []
        for (name, values), position_set in zip(self.grid.axes, per_axis):
            if len(position_set) == len(values):
                continue  # full axis: omitted
            parts.append(
                f"{name}="
                + _fold_positions(
                    values, sorted(position_set), _axis_numeric(values)
                )
            )
        return ",".join(parts)


def _axis_numeric(values: tuple[object, ...]) -> bool:
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values
    )
