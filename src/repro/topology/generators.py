"""Topology generator family producing :class:`ConnectionStructure` objects.

A *generator spec* is a JSON-safe mapping with a ``kind`` field and
kind-specific parameters.  Specs are independent of the bus count so one
spec can drive a whole bus-count profile; generators that inherently pin
``B`` (``matrix``, ``mesh_rowcol``) raise :class:`ConfigurationError` for
other bus counts, which the batch layer records as skipped cells.

Kinds
-----
``matrix``
    Explicit ``memory_bus`` (and optionally ``processor_bus``) 0/1
    matrices.  Strictly audited: rectangular, no empty memory rows, no
    dangling buses, processors must attach to every bus (the evaluation
    layers assume the paper's complete processor side).
``grouped``
    Block-diagonal complete-bipartite groups.  ``n_groups`` gives the
    paper's equal partial-bus partition (recognized, closed form); uneven
    ``module_sizes``/``bus_sizes`` exercise the generic fallback path.
``kclass``
    The paper's hierarchical K-class attachment from ``class_sizes``.
``mesh_rowcol``
    Row/column bus partition of an R x C memory mesh (arXiv 1312.2807):
    ``static`` gives each memory a row bus and a column bus
    (``B = R + C``); ``reconfigurable`` splits every row and column bus
    into two independent segments (``B = 2(R + C)``).
``waxman``
    Seeded geometric random attachment: memories and buses get points in
    the unit square and connect with probability
    ``alpha * exp(-d / (beta * sqrt(2)))``.
``random_incidence``
    Seeded Bernoulli(``density``) incidence matrix.

Both random kinds deterministically repair empty memory rows and
dangling buses so every generated structure is evaluable, and are pure
functions of ``(spec, N, M, B)``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_registry
from repro.topology.structure import ConnectionStructure

__all__ = [
    "GENERATOR_KINDS",
    "normalize_generator_spec",
    "canonical_generator_spec",
    "generate_structure",
]

GENERATOR_KINDS = (
    "matrix",
    "grouped",
    "kclass",
    "mesh_rowcol",
    "waxman",
    "random_incidence",
)

# kind -> (required fields, optional fields with defaults)
_SPEC_FIELDS: dict[str, tuple[frozenset, dict]] = {
    "matrix": (frozenset({"memory_bus"}), {"processor_bus": None}),
    "grouped": (frozenset(), {"n_groups": None, "module_sizes": None, "bus_sizes": None}),
    "kclass": (frozenset({"class_sizes"}), {}),
    "mesh_rowcol": (frozenset({"rows", "cols"}), {"mode": "static"}),
    "waxman": (frozenset(), {"alpha": 0.9, "beta": 0.5, "seed": 0}),
    "random_incidence": (frozenset(), {"density": 0.5, "seed": 0}),
}


def _strict_int(value, name: str, minimum: int | None = None) -> int:
    if isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    try:
        result = int(value.__index__())
    except (AttributeError, TypeError):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if minimum is not None and result < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {result}")
    return result


def _strict_float(value, name: str, *, positive: bool = False, at_most: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    result = float(value)
    if not math.isfinite(result):
        raise ConfigurationError(f"{name} must be finite, got {result!r}")
    if positive and result <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {result}")
    if at_most is not None and result > at_most:
        raise ConfigurationError(f"{name} must be <= {at_most}, got {result}")
    return result


def _int_list(value, name: str, minimum: int = 0) -> list:
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise ConfigurationError(f"{name} must be a sequence of integers, got {value!r}")
    items = [_strict_int(item, f"{name}[{index}]", minimum) for index, item in enumerate(value)]
    if not items:
        raise ConfigurationError(f"{name} must be non-empty")
    return items


def _validate_explicit_matrix(value, name: str) -> list:
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence) or not value:
        raise ConfigurationError(f"{name} must be a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(value):
        if isinstance(row, (str, bytes)) or not isinstance(row, Sequence) or not row:
            raise ConfigurationError(f"{name} row {r} is not a non-empty list")
        cells = []
        for c, cell in enumerate(row):
            if isinstance(cell, bool):
                cells.append(int(cell))
            elif isinstance(cell, int) and cell in (0, 1):
                cells.append(cell)
            else:
                raise ConfigurationError(
                    f"{name}[{r}][{c}] must be 0 or 1, got {cell!r}"
                )
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ConfigurationError(
                f"{name} is ragged: row {r} has {len(cells)} entries, expected {width}"
            )
        rows.append(cells)
    return rows


def _tuple_to_mapping(spec: tuple) -> dict:
    """Rebuild a spec dict from its canonical-tuple form."""
    try:
        payload = dict(spec)
    except (TypeError, ValueError):
        raise ConfigurationError(f"malformed generator spec tuple: {spec!r}") from None
    for key in ("memory_bus", "processor_bus"):
        value = payload.get(key)
        if isinstance(value, tuple):
            payload[key] = [list(row) for row in value]
    for key in ("class_sizes", "module_sizes", "bus_sizes"):
        value = payload.get(key)
        if isinstance(value, tuple):
            payload[key] = list(value)
    return payload


def normalize_generator_spec(spec) -> dict:
    """Validate a generator spec and return it in plain-dict form.

    Accepts a mapping or the canonical tuple form produced by
    :func:`canonical_generator_spec`.  Defaults are filled in so two
    spellings of the same spec normalize identically.  Raises
    :class:`ConfigurationError` on any malformed input.
    """
    if isinstance(spec, tuple):
        spec = _tuple_to_mapping(spec)
    if not isinstance(spec, Mapping):
        raise ConfigurationError(
            f"generator spec must be a mapping with a 'kind' field, got {type(spec).__name__}"
        )
    kind = spec.get("kind")
    if kind not in _SPEC_FIELDS:
        known = ", ".join(GENERATOR_KINDS)
        raise ConfigurationError(f"unknown generator kind {kind!r}; known kinds: {known}")
    required, optional = _SPEC_FIELDS[kind]
    allowed = {"kind"} | required | set(optional)
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown generator field(s) {unknown} for kind {kind!r}; "
            f"allowed: {sorted(allowed - {'kind'})}"
        )
    missing = sorted(required - set(spec))
    if missing:
        raise ConfigurationError(f"generator kind {kind!r} requires field(s) {missing}")
    normalized: dict = {"kind": kind}
    merged = dict(optional)
    merged.update({key: spec[key] for key in spec if key != "kind"})

    if kind == "matrix":
        rows = _validate_explicit_matrix(merged["memory_bus"], "memory_bus")
        matrix = np.array(rows, dtype=int)
        empty_rows = np.flatnonzero(matrix.sum(axis=1) == 0)
        if empty_rows.size:
            raise ConfigurationError(
                f"memory_bus row {int(empty_rows[0])} attaches to no bus (empty memory row)"
            )
        dangling = np.flatnonzero(matrix.sum(axis=0) == 0)
        if dangling.size:
            raise ConfigurationError(
                f"memory_bus column {int(dangling[0])} has no attached module (dangling bus)"
            )
        normalized["memory_bus"] = rows
        if merged["processor_bus"] is not None:
            pb_rows = _validate_explicit_matrix(merged["processor_bus"], "processor_bus")
            if len(pb_rows[0]) != len(rows[0]):
                raise ConfigurationError(
                    f"processor_bus has {len(pb_rows[0])} buses, memory_bus has {len(rows[0])}"
                )
            if not all(all(cell == 1 for cell in row) for row in pb_rows):
                raise ConfigurationError(
                    "processor_bus must attach every processor to every bus; "
                    "the evaluation layers assume the paper's complete processor side"
                )
            normalized["processor_bus"] = pb_rows
    elif kind == "grouped":
        has_sizes = merged["module_sizes"] is not None or merged["bus_sizes"] is not None
        if merged["n_groups"] is not None and has_sizes:
            raise ConfigurationError(
                "grouped generator takes either n_groups or module_sizes/bus_sizes, not both"
            )
        if merged["n_groups"] is not None:
            normalized["n_groups"] = _strict_int(merged["n_groups"], "n_groups", 1)
        elif has_sizes:
            if merged["module_sizes"] is None or merged["bus_sizes"] is None:
                raise ConfigurationError(
                    "grouped generator needs both module_sizes and bus_sizes"
                )
            module_sizes = _int_list(merged["module_sizes"], "module_sizes", 1)
            bus_sizes = _int_list(merged["bus_sizes"], "bus_sizes", 1)
            if len(module_sizes) != len(bus_sizes):
                raise ConfigurationError(
                    f"module_sizes ({len(module_sizes)} groups) and bus_sizes "
                    f"({len(bus_sizes)} groups) disagree"
                )
            normalized["module_sizes"] = module_sizes
            normalized["bus_sizes"] = bus_sizes
        else:
            raise ConfigurationError(
                "grouped generator requires n_groups or module_sizes/bus_sizes"
            )
    elif kind == "kclass":
        sizes = _int_list(merged["class_sizes"], "class_sizes", 0)
        if sum(sizes) < 1:
            raise ConfigurationError("class_sizes must include at least one module")
        normalized["class_sizes"] = sizes
    elif kind == "mesh_rowcol":
        normalized["rows"] = _strict_int(merged["rows"], "rows", 2)
        normalized["cols"] = _strict_int(merged["cols"], "cols", 2)
        mode = merged["mode"]
        if mode not in ("static", "reconfigurable"):
            raise ConfigurationError(
                f"mesh_rowcol mode must be 'static' or 'reconfigurable', got {mode!r}"
            )
        normalized["mode"] = mode
    elif kind == "waxman":
        normalized["alpha"] = _strict_float(merged["alpha"], "alpha", positive=True, at_most=1.0)
        normalized["beta"] = _strict_float(merged["beta"], "beta", positive=True)
        normalized["seed"] = _strict_int(merged["seed"], "seed", 0)
    elif kind == "random_incidence":
        normalized["density"] = _strict_float(
            merged["density"], "density", positive=True, at_most=1.0
        )
        normalized["seed"] = _strict_int(merged["seed"], "seed", 0)
    return normalized


class _CanonicalSpec(tuple):
    """A canonical spec tuple that keeps the validated dict it came from.

    Equality and hashing are the plain tuple's.  Only
    :func:`canonical_generator_spec` makes one, from a spec that passed
    :func:`normalize_generator_spec`, so :func:`generate_structure` can
    build from :attr:`normalized` without validating the spec again.
    """

    normalized: dict


def canonical_generator_spec(spec) -> tuple:
    """Hashable canonical form: normalized, sorted tuple-of-pairs.

    Two spellings of the same spec (defaults elided vs. explicit, lists
    vs. tuples) map to the same tuple, so cache identities built on this
    value -- service queries -- coalesce correctly.
    """
    normalized = normalize_generator_spec(spec)

    def freeze(value):
        if isinstance(value, list):
            return tuple(freeze(item) for item in value)
        return value

    canonical = _CanonicalSpec(
        sorted((key, freeze(value)) for key, value in normalized.items())
    )
    canonical.normalized = normalized
    return canonical


def _rng_for(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> np.random.Generator:
    entropy = [
        int(spec["seed"]),
        GENERATOR_KINDS.index(spec["kind"]),
        int(n_processors),
        int(n_memories),
        int(n_buses),
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _build_matrix(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    rows = spec["memory_bus"]
    if len(rows) != n_memories:
        raise ConfigurationError(
            f"memory_bus has {len(rows)} rows but M={n_memories} modules were requested"
        )
    if len(rows[0]) != n_buses:
        raise ConfigurationError(
            f"matrix generator pins B={len(rows[0])}; requested B={n_buses}"
        )
    if "processor_bus" in spec:
        pb = spec["processor_bus"]
        if len(pb) != n_processors:
            raise ConfigurationError(
                f"processor_bus has {len(pb)} rows but N={n_processors} processors were requested"
            )
        return ConnectionStructure(pb, rows)
    return ConnectionStructure.with_uniform_processors(n_processors, rows)


def _build_grouped(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    if "n_groups" in spec:
        n_groups = spec["n_groups"]
        if n_memories % n_groups or n_buses % n_groups:
            raise ConfigurationError(
                f"grouped: n_groups={n_groups} must divide both M={n_memories} and B={n_buses}"
            )
        module_sizes = [n_memories // n_groups] * n_groups
        bus_sizes = [n_buses // n_groups] * n_groups
    else:
        module_sizes = spec["module_sizes"]
        bus_sizes = spec["bus_sizes"]
        if sum(module_sizes) != n_memories:
            raise ConfigurationError(
                f"module_sizes sum to {sum(module_sizes)}, expected M={n_memories}"
            )
        if sum(bus_sizes) != n_buses:
            raise ConfigurationError(
                f"bus_sizes sum to {sum(bus_sizes)}, expected B={n_buses}"
            )
    matrix = np.zeros((n_memories, n_buses), dtype=bool)
    module_start = 0
    bus_start = 0
    for group_modules, group_buses in zip(module_sizes, bus_sizes):
        matrix[
            module_start : module_start + group_modules,
            bus_start : bus_start + group_buses,
        ] = True
        module_start += group_modules
        bus_start += group_buses
    return ConnectionStructure.with_uniform_processors(n_processors, matrix)


def _build_kclass(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    sizes = spec["class_sizes"]
    n_classes = len(sizes)
    if sum(sizes) != n_memories:
        raise ConfigurationError(
            f"class_sizes sum to {sum(sizes)}, expected M={n_memories}"
        )
    if n_classes > n_buses:
        raise ConfigurationError(
            f"number of classes K={n_classes} exceeds number of buses B={n_buses}"
        )
    matrix = np.zeros((n_memories, n_buses), dtype=bool)
    module = 0
    for class_index, size in enumerate(sizes, start=1):
        width = class_index + n_buses - n_classes
        matrix[module : module + size, :width] = True
        module += size
    return ConnectionStructure.with_uniform_processors(n_processors, matrix)


def _build_mesh_rowcol(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    rows, cols, mode = spec["rows"], spec["cols"], spec["mode"]
    if rows * cols != n_memories:
        raise ConfigurationError(
            f"mesh_rowcol pins M={rows * cols} ({rows}x{cols}); requested M={n_memories}"
        )
    expected_buses = rows + cols if mode == "static" else 2 * (rows + cols)
    if n_buses != expected_buses:
        raise ConfigurationError(
            f"mesh_rowcol ({mode}) pins B={expected_buses} for a {rows}x{cols} mesh; "
            f"requested B={n_buses}"
        )
    matrix = np.zeros((n_memories, n_buses), dtype=bool)
    if mode == "static":
        for i in range(rows):
            for j in range(cols):
                module = i * cols + j
                matrix[module, i] = True  # row bus
                matrix[module, rows + j] = True  # column bus
    else:
        # Reconfigurable: each row bus splits into left/right halves and
        # each column bus into top/bottom halves (independent segments).
        col_split = cols // 2
        row_split = rows // 2
        for i in range(rows):
            for j in range(cols):
                module = i * cols + j
                row_segment = i if j < col_split else rows + i
                col_segment = 2 * rows + j if i < row_split else 2 * rows + cols + j
                matrix[module, row_segment] = True
                matrix[module, col_segment] = True
    return ConnectionStructure.with_uniform_processors(n_processors, matrix)


def _repair_random_matrix(matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Attach empty memory rows and dangling buses so the result is evaluable."""
    n_memories, n_buses = matrix.shape
    for module in np.flatnonzero(~matrix.any(axis=1)):
        matrix[module, int(rng.integers(n_buses))] = True
    for bus in np.flatnonzero(~matrix.any(axis=0)):
        matrix[int(rng.integers(n_memories)), bus] = True
    return matrix


def _build_waxman(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    rng = _rng_for(spec, n_processors, n_memories, n_buses)
    memory_points = rng.random((n_memories, 2))
    bus_points = rng.random((n_buses, 2))
    distances = np.hypot(
        memory_points[:, None, 0] - bus_points[None, :, 0],
        memory_points[:, None, 1] - bus_points[None, :, 1],
    )
    probabilities = spec["alpha"] * np.exp(-distances / (spec["beta"] * math.sqrt(2.0)))
    matrix = rng.random((n_memories, n_buses)) < probabilities
    matrix = _repair_random_matrix(matrix, rng)
    return ConnectionStructure.with_uniform_processors(n_processors, matrix)


def _build_random_incidence(spec: dict, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    rng = _rng_for(spec, n_processors, n_memories, n_buses)
    matrix = rng.random((n_memories, n_buses)) < spec["density"]
    matrix = _repair_random_matrix(matrix, rng)
    return ConnectionStructure.with_uniform_processors(n_processors, matrix)


_BUILDERS = {
    "matrix": _build_matrix,
    "grouped": _build_grouped,
    "kclass": _build_kclass,
    "mesh_rowcol": _build_mesh_rowcol,
    "waxman": _build_waxman,
    "random_incidence": _build_random_incidence,
}


def generate_structure(spec, n_processors: int, n_memories: int, n_buses: int) -> ConnectionStructure:
    """Instantiate a generator spec at concrete ``(N, M, B)`` dimensions.

    Deterministic: the same spec and dimensions always produce the same
    structure (random kinds derive their streams from the spec seed and
    the dimensions).  Raises :class:`ConfigurationError` when the spec is
    malformed or infeasible at these dimensions (e.g. a B-pinning kind at
    a different bus count).
    """
    if isinstance(spec, _CanonicalSpec):
        normalized = spec.normalized
    else:
        normalized = normalize_generator_spec(spec)
    n = _strict_int(n_processors, "number of processors", 1)
    m = _strict_int(n_memories, "number of memory modules", 1)
    b = _strict_int(n_buses, "number of buses", 1)
    if b > m:
        raise ConfigurationError(
            f"number of buses B={b} exceeds number of memory modules M={m}; "
            "extra buses can never be used"
        )
    structure = _BUILDERS[normalized["kind"]](normalized, n, m, b)
    get_registry().increment("topology.generated", kind=normalized["kind"])
    return structure
