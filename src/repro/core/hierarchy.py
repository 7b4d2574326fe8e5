"""The hierarchical requesting model (Section III-A of the paper).

Processors and memory modules are organized into an ``n``-level hierarchy
of clusters: the machine splits into ``k_1`` clusters, each of those into
``k_2`` subclusters, and so on.  A processor's request traffic is biased
toward *nearby* modules: it addresses each module with a fraction that
depends only on the deepest hierarchy level at which the two share a
subcluster.

Two variants are defined by the paper:

* **N x N networks** — every processor ``P_i`` has a dedicated favourite
  module ``MM_i``.  With an ``n``-level hierarchy there are ``n + 1``
  per-module fractions ``m_0 > m_1 > ... > m_n``: ``m_0`` to the favourite
  module, ``m_1`` to each other module in the innermost subcluster, and so
  on outward.  Eq. (1) gives the population counts::

      N_0 = 1,   N_i = (k_{n-i+1} - 1) k_{n-i+2} ... k_n,
      sum_i m_i N_i = 1.

* **N x M networks** — each leaf subcluster holds ``k_n`` processors and
  ``k'_n`` memory modules; a processor addresses each of its ``k'_n``
  favourite modules with fraction ``m_0``, giving ``n`` distinct fractions.

Both variants reduce to an explicit ``N x M`` fraction matrix (see
:class:`repro.core.request_models.RequestModel`), so every downstream
consumer — closed forms, simulator, workload generator — treats the
hierarchical model like any other request pattern.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.core.request_models import RequestModel, SharedFractions
from repro.exceptions import ModelError

__all__ = ["HierarchicalRequestModel", "paper_two_level_model"]

_SUM_TOL = 1e-6


def _suffix_products(values: Sequence[int]) -> list[int]:
    """Return ``suffix[l] = values[l] * ... * values[-1]`` with a trailing 1.

    ``suffix[0]`` is the full product and ``suffix[len(values)]`` is 1.
    """
    out = [1] * (len(values) + 1)
    for idx in range(len(values) - 1, -1, -1):
        out[idx] = out[idx + 1] * int(values[idx])
    return out


class _HierarchyShape:
    """Rate-free state of one hierarchy, checked once and shared by every rate.

    Runs every structural check of the model constructor except the
    rate's.  The normalization total is kept rather than checked, so the
    constructor still checks the rate first; only normalized shapes ever
    build their (shared, read-only) fraction matrix.
    """

    __slots__ = (
        "branching", "variant", "memory_leaf_size", "fractions",
        "n_processors", "n_memories", "proc_suffix", "mem_suffix",
        "module_counts", "total", "shared",
    )

    def __init__(
        self,
        branching: tuple[int, ...],
        fractions: tuple[float, ...],
        memory_leaf_size,
        variant: str,
    ):
        if not branching:
            raise ModelError("branching must contain at least one level")
        if any(k < 1 for k in branching):
            raise ModelError(f"all branching factors must be >= 1: {branching}")
        n_levels = len(branching)
        if variant not in ("nxn", "nxm"):
            raise ModelError(f"unknown hierarchy variant: {variant!r}")

        n_processors = math.prod(branching)
        if variant == "nxn":
            if memory_leaf_size is not None and memory_leaf_size != branching[-1]:
                raise ModelError(
                    "the N x N variant pairs each processor with one module; "
                    "memory_leaf_size must be omitted or equal k_n"
                )
            memory_leaf_size = branching[-1]
            n_memories = n_processors
            expected_fracs = n_levels + 1
        else:
            if memory_leaf_size is None:
                raise ModelError("the N x M variant requires memory_leaf_size")
            memory_leaf_size = int(memory_leaf_size)
            if memory_leaf_size < 1:
                raise ModelError(
                    f"memory_leaf_size must be >= 1, got {memory_leaf_size}"
                )
            n_memories = math.prod(branching[:-1]) * memory_leaf_size
            expected_fracs = n_levels

        if len(fractions) != expected_fracs:
            raise ModelError(
                f"{variant} hierarchy with {n_levels} levels needs "
                f"{expected_fracs} fractions, got {len(fractions)}"
            )
        if any(m < 0.0 for m in fractions):
            raise ModelError(f"fractions must be non-negative: {fractions}")

        self.branching = branching
        self.variant = variant
        self.memory_leaf_size = memory_leaf_size
        self.fractions = fractions
        self.n_processors = n_processors
        self.n_memories = n_memories
        # Processor ancestry: suffix products over (k_1..k_n).
        self.proc_suffix = _suffix_products(branching)
        # Memory ancestry: suffix products over (k_1..k_{n-1}, k'_n).
        self.mem_suffix = _suffix_products(branching[:-1] + (memory_leaf_size,))
        self.module_counts = self._module_counts()
        self.total = sum(m * c for m, c in zip(fractions, self.module_counts))
        self.shared = SharedFractions((n_processors, n_memories), self._matrix)

    def _module_counts(self) -> tuple[int, ...]:
        n = len(self.branching)
        if self.variant == "nxn":
            counts = [1]
            for i in range(1, n + 1):
                level = n - i + 1  # 1-based index of k_{n-i+1}
                k = self.branching[level - 1]
                counts.append((k - 1) * self.mem_suffix[level])
            return tuple(counts)
        counts = [self.memory_leaf_size]
        for i in range(1, n):
            level = n - i  # 1-based index of k_{n-i}
            k = self.branching[level - 1]
            counts.append((k - 1) * self.mem_suffix[level])
        return tuple(counts)

    def _matrix(self) -> np.ndarray:
        n = len(self.branching)
        procs = np.arange(self.n_processors)
        mods = np.arange(self.n_memories)
        deepest = n if self.variant == "nxn" else n - 1
        sep = np.full((self.n_processors, self.n_memories), deepest)
        # Walk levels from shallow to deep; pairs sharing a deeper ancestor
        # overwrite their separation with a smaller value.
        for level in range(1, deepest + 1):
            shared = (
                procs[:, None] // self.proc_suffix[level]
                == mods[None, :] // self.mem_suffix[level]
            )
            sep[shared] = deepest - level
        return np.asarray(self.fractions)[sep]


@functools.lru_cache(maxsize=256)
def _hierarchy_shape(branching, fractions, memory_leaf_size, variant):
    """The one :class:`_HierarchyShape` of these arguments (errors uncached)."""
    return _HierarchyShape(branching, fractions, memory_leaf_size, variant)


@functools.lru_cache(maxsize=256)
def _per_module_fractions(
    branching: tuple[int, ...],
    aggregate: tuple[float, ...],
    memory_leaf_size: int | None,
) -> tuple[float, ...]:
    """Per-module fractions of one aggregate spec (rate-free, cached)."""
    variant = "nxn" if memory_leaf_size is None else "nxm"
    if abs(sum(aggregate) - 1.0) > _SUM_TOL:
        raise ModelError(
            f"aggregate fractions must sum to 1, got {sum(aggregate):.9f}"
        )
    counts = HierarchicalRequestModel._placeholder(
        branching, memory_leaf_size, variant, 1.0
    ).module_counts_per_separation()
    if len(aggregate) != len(counts):
        raise ModelError(
            f"need {len(counts)} aggregate fractions for this hierarchy, "
            f"got {len(aggregate)}"
        )
    per_module = []
    for agg, count in zip(aggregate, counts):
        if count == 0:
            if agg > _SUM_TOL:
                raise ModelError(
                    "aggregate fraction assigned to an empty separation "
                    f"class (aggregate={agg}, count=0)"
                )
            per_module.append(0.0)
        else:
            per_module.append(agg / count)
    return tuple(per_module)


class HierarchicalRequestModel(RequestModel):
    """Request model with cluster-local affinity (the paper's Section III-A).

    Use the :meth:`nxn` / :meth:`nxm` constructors (or
    :meth:`from_aggregate_fractions`) rather than ``__init__`` directly.

    Attributes
    ----------
    branching:
        ``(k_1, ..., k_n)`` — cluster fan-out per level for processors.
    memory_leaf_size:
        ``k'_n`` — modules per leaf subcluster.  Equal to ``k_n`` with
        favourite pairing for the N x N variant.
    fractions:
        Per-module request fractions ``(m_0, ..., m_n)`` for N x N or
        ``(m_0, ..., m_{n-1})`` for N x M, indexed by *separation*: the
        number of hierarchy levels one must climb from the reference point
        before the target module's subcluster is reached.
    """

    def __init__(
        self,
        branching: Sequence[int],
        fractions: Sequence[float],
        rate: float = 1.0,
        memory_leaf_size: int | None = None,
        _variant: str = "nxn",
    ):
        shape = _hierarchy_shape(
            tuple(int(k) for k in branching),
            tuple(float(m) for m in fractions),
            memory_leaf_size,
            _variant,
        )
        super().__init__(shape.n_processors, shape.n_memories, rate)
        self._shape = shape
        self._branching = shape.branching
        self._variant = shape.variant
        self._memory_leaf_size = shape.memory_leaf_size
        self._fractions = shape.fractions
        self._proc_suffix = shape.proc_suffix
        self._mem_suffix = shape.mem_suffix
        if abs(shape.total - 1.0) > _SUM_TOL:
            raise ModelError(
                "fractions do not normalize: sum_i m_i * N_i = "
                f"{shape.total:.9f} (counts {list(shape.module_counts)}, "
                f"fractions {shape.fractions})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def nxn(
        cls,
        branching: Sequence[int],
        fractions: Sequence[float],
        rate: float = 1.0,
    ) -> "HierarchicalRequestModel":
        """Build the N x N variant: one favourite module per processor.

        ``fractions`` must contain ``n + 1`` per-module values
        ``(m_0, ..., m_n)`` satisfying eq. (1)'s normalization.
        """
        return cls(branching, fractions, rate=rate, _variant="nxn")

    @classmethod
    def nxm(
        cls,
        branching: Sequence[int],
        memory_leaf_size: int,
        fractions: Sequence[float],
        rate: float = 1.0,
    ) -> "HierarchicalRequestModel":
        """Build the N x M variant: ``k'_n`` favourite modules per leaf.

        ``branching`` is ``(k_1, ..., k_n)`` for processors;
        ``memory_leaf_size`` is ``k'_n``; ``fractions`` holds the ``n``
        per-module values ``(m_0, ..., m_{n-1})``.
        """
        return cls(
            branching,
            fractions,
            rate=rate,
            memory_leaf_size=memory_leaf_size,
            _variant="nxm",
        )

    @classmethod
    def from_aggregate_fractions(
        cls,
        branching: Sequence[int],
        aggregate_fractions: Sequence[float],
        rate: float = 1.0,
        memory_leaf_size: int | None = None,
    ) -> "HierarchicalRequestModel":
        """Build a model from *aggregate* per-separation traffic shares.

        The paper's numerical section specifies the model this way: "with
        probability 0.6 addressing its favourite module, 0.3 addressing
        other modules within the same cluster, 0.1 addressing modules in
        other clusters".  Aggregates must sum to one; each per-module
        fraction is the aggregate divided by the module population of that
        separation class (zero-population classes must have a zero
        aggregate).
        """
        per_module = _per_module_fractions(
            tuple(int(k) for k in branching),
            tuple(float(a) for a in aggregate_fractions),
            memory_leaf_size,
        )
        return cls(
            branching,
            per_module,
            rate=rate,
            memory_leaf_size=memory_leaf_size,
            _variant="nxn" if memory_leaf_size is None else "nxm",
        )

    @classmethod
    def _placeholder(
        cls,
        branching: Sequence[int],
        memory_leaf_size: int | None,
        variant: str,
        rate: float,
    ) -> "HierarchicalRequestModel":
        """Internal: an instance with uniform fractions for count queries."""
        branching = tuple(int(k) for k in branching)
        if variant == "nxn":
            n_memories = math.prod(branching)
            n_fracs = len(branching) + 1
        else:
            n_memories = math.prod(branching[:-1]) * int(memory_leaf_size)
            n_fracs = len(branching)
        uniform = [1.0 / n_memories] * n_fracs
        return cls(
            branching,
            uniform,
            rate=rate,
            memory_leaf_size=memory_leaf_size,
            _variant=variant,
        )

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def branching(self) -> tuple[int, ...]:
        """Cluster fan-out ``(k_1, ..., k_n)``."""
        return self._branching

    @property
    def n_levels(self) -> int:
        """Depth ``n`` of the hierarchy."""
        return len(self._branching)

    @property
    def variant(self) -> str:
        """Either ``"nxn"`` or ``"nxm"``."""
        return self._variant

    @property
    def memory_leaf_size(self) -> int:
        """Modules per leaf subcluster (``k'_n``; equals ``k_n`` for N x N)."""
        return self._memory_leaf_size

    @property
    def fractions(self) -> tuple[float, ...]:
        """Per-module fractions ``(m_0, m_1, ...)`` indexed by separation."""
        return self._fractions

    @property
    def n_separations(self) -> int:
        """Number of distinct request fractions (``n + 1`` or ``n``)."""
        return len(self._fractions)

    def is_locality_decreasing(self) -> bool:
        """True if ``m_0 >= m_1 >= ... >= m_n`` (the paper's assumption)."""
        return all(
            a >= b - 1e-12
            for a, b in zip(self._fractions, self._fractions[1:])
        )

    def processor_coordinates(self, processor: int) -> tuple[int, ...]:
        """Return the ancestor cluster index of a processor at each level.

        Element ``l`` (0-based) identifies which level-``(l+1)`` subcluster
        the processor belongs to, as an index in ``0..prod(k_1..k_{l+1})``.
        """
        self._check_index(processor, self._n_processors, "processor")
        return tuple(
            processor // self._proc_suffix[level]
            for level in range(1, len(self._branching) + 1)
        )

    def memory_coordinates(self, module: int) -> tuple[int, ...]:
        """Return the ancestor cluster index of a module at each level."""
        self._check_index(module, self._n_memories, "module")
        return tuple(
            module // self._mem_suffix[level]
            for level in range(1, len(self._branching) + 1)
        )

    @staticmethod
    def _check_index(value: int, limit: int, what: str) -> None:
        if not 0 <= value < limit:
            raise ModelError(f"{what} index {value} out of range [0, {limit})")

    def separation(self, processor: int, module: int) -> int:
        """Return the separation class of a (processor, module) pair.

        Separation 0 means the module is one of the processor's favourites
        (the paired module for N x N, any module in the same leaf
        subcluster for N x M); separation ``s`` means the pair first share
        a subcluster ``s`` levels above the favourite level.
        """
        self._check_index(processor, self._n_processors, "processor")
        self._check_index(module, self._n_memories, "module")
        n = len(self._branching)
        if self._variant == "nxn":
            # Deepest shared level is n (identical index) down to 0.
            for level in range(n, 0, -1):
                if (
                    processor // self._proc_suffix[level]
                    == module // self._mem_suffix[level]
                ):
                    return n - level
            return n
        # N x M: the deepest comparable level is n-1 (the leaf subcluster).
        for level in range(n - 1, 0, -1):
            if (
                processor // self._proc_suffix[level]
                == module // self._mem_suffix[level]
            ):
                return (n - 1) - level
        return n - 1

    def module_counts_per_separation(self) -> list[int]:
        """Return the module population of each separation class (eq. 1).

        For N x N this is ``[N_0, N_1, ..., N_n]`` with ``N_0 = 1`` and
        ``N_i = (k_{n-i+1} - 1) k_{n-i+2} ... k_n``.  For N x M the leaf
        class holds ``k'_n`` favourites and outer classes scale by the
        memory leaf size instead of ``k_n``.
        """
        return list(self._shape.module_counts)

    def processor_counts_per_separation(self) -> list[int]:
        """Return, for a fixed module, the processor population per class.

        Entry ``i`` is the number of processors that request the module
        with fraction ``m_i``.  For N x N this equals
        :meth:`module_counts_per_separation` by symmetry; for N x M the
        counts scale by ``k_n`` (processors per leaf) rather than ``k'_n``.
        """
        n = len(self._branching)
        if self._variant == "nxn":
            return self.module_counts_per_separation()
        counts = [self._branching[-1]]
        for i in range(1, n):
            level = n - i
            k = self._branching[level - 1]
            counts.append((k - 1) * self._proc_suffix[level])
        return counts

    # ------------------------------------------------------------------
    # RequestModel interface
    # ------------------------------------------------------------------

    def fraction_matrix(self) -> np.ndarray:
        """Return the ``N x M`` fraction matrix induced by the hierarchy.

        Every model of one shape (branching, fractions, leaf size) shares
        this read-only matrix; it is built and validated once.
        """
        return self._shape.shared.matrix()

    def validate(self) -> None:
        self._shape.shared.validate()

    def symmetric_module_probability(self) -> float:
        """Closed-form eq. (2): ``X = 1 - prod_i (1 - r m_i)^{P_i}``.

        ``P_i`` counts the processors requesting a given module with
        fraction ``m_i``; every module sees the same counts, so the model
        is module-symmetric by construction.
        """
        counts = self.processor_counts_per_separation()
        log_miss = 0.0
        for m, count in zip(self._fractions, counts):
            p = self._rate * m
            if p >= 1.0:
                return 1.0
            log_miss += count * math.log1p(-p)
        return -math.expm1(log_miss)

    def __repr__(self) -> str:
        return (
            f"HierarchicalRequestModel(variant={self._variant!r}, "
            f"branching={self._branching}, "
            f"memory_leaf_size={self._memory_leaf_size}, "
            f"fractions={tuple(round(m, 6) for m in self._fractions)}, "
            f"rate={self._rate})"
        )


def paper_two_level_model(
    n_processors: int,
    rate: float = 1.0,
    clusters: int = 4,
    aggregate_fractions: Sequence[float] = (0.6, 0.3, 0.1),
) -> HierarchicalRequestModel:
    """Build the two-level hierarchy used throughout the paper's Section IV.

    The machine is split into ``clusters`` clusters of ``N / clusters``
    processor/module pairs.  A processor spends aggregate fraction 0.6 on
    its favourite module, 0.3 spread over the other modules of its cluster
    and 0.1 spread over all modules of other clusters.

    Raises
    ------
    ModelError
        If ``clusters`` does not divide ``n_processors``.
    """
    if n_processors % clusters:
        raise ModelError(
            f"cluster count {clusters} must divide N={n_processors}"
        )
    per_cluster = n_processors // clusters
    return HierarchicalRequestModel.from_aggregate_fractions(
        (clusters, per_cluster), aggregate_fractions, rate=rate
    )
