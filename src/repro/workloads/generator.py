"""Per-cycle request generation driving the simulator.

A :class:`RequestGenerator` produces, for every memory cycle, the list of
``(processor, module)`` requests issued — implementing the paper's
assumptions 2, 3 and 5: processors issue independent Bernoulli(``r``)
requests, aim them according to their fraction-matrix row, and blocked
requests are dropped (the next cycle is drawn fresh).

Every destination draw in the simulators goes through one
:class:`DestinationSampler`: an exact inverse-CDF lookup by indexed
search (a "guide table", Chen & Asau 1974) over the rows of a
cumulative fraction matrix.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.request_models import RequestModel
from repro.exceptions import SimulationError

__all__ = [
    "DestinationSampler",
    "RequestGenerator",
    "ModelRequestGenerator",
    "FixedRequestGenerator",
]


class DestinationSampler:
    """Inverse-CDF choice of a column per row, by guide-table search.

    For a draw ``d`` on row ``p`` the chosen column is the number of
    entries of ``cumulative[p]`` that are ``<= d``, clipped to ``M - 1``
    — exactly what a right-sided binary search per row returns.  The
    entries ``<= d`` must form a prefix of the row, which holds for any
    cumulative sum of non-negative fractions, also when rounding pushes
    an entry above a forced final ``1.0``, since every draw is ``< 1``.

    The table has ``K`` bins per row, ``K`` the smallest power of two
    ``>= 16 M``: ``table[p, b]`` counts the entries ``<= b / K``.  A draw
    starts at ``table[p, floor(d K)]`` and steps right while
    ``d >= cumulative[p, chosen]``; no bin holds more than ``gap``
    entries, so ``gap`` steps always suffice.  Scaling by a power of two
    is exact for doubles, so ``floor(d K)`` and ``ceil(c K)`` involve no
    rounding and the result equals the binary search bit for bit.
    """

    #: Bins per column: ``K`` is the smallest power of two ``>= 16 M``.
    _BINS_PER_COLUMN = 16

    def __init__(self, cumulative: np.ndarray):
        cumulative = np.array(cumulative, dtype=float)
        if cumulative.ndim != 2 or cumulative.shape[1] < 1:
            raise SimulationError(
                f"cumulative matrix must be 2-D with at least one column, "
                f"got shape {cumulative.shape}"
            )
        cumulative.flags.writeable = False
        self._cumulative = cumulative
        n_rows, n_columns = cumulative.shape
        self._n_columns = n_columns
        bins = 1 << (self._BINS_PER_COLUMN * n_columns - 1).bit_length()
        self._bins = bins
        # Bin from which each entry counts: ceil(c K) for c < 1, and past
        # the last bin (K + 1) for entries no draw can reach.  Without
        # that clip an entry above 1.0 would land in the next row's bins.
        starts = np.where(
            cumulative < 1.0, np.ceil(cumulative * bins), bins + 1
        ).astype(np.int64)
        starts += (np.arange(n_rows) * (bins + 2))[:, None]
        per_bin = np.bincount(
            starts.ravel(), minlength=n_rows * (bins + 2)
        ).reshape(n_rows, bins + 2)
        # A draw in bin b lies below (b + 1) / K, so it steps past at
        # most the entries starting in bin b + 1 (bins 1..K).
        self._gap = int(per_bin[:, 1 : bins + 1].max())
        # Column ``M`` of every row is a +inf sentinel, so a search that
        # counts every entry (possible without a forced final 1.0) stops
        # there instead of reading the next row.
        width = n_columns + 1
        self._row_starts = np.arange(n_rows, dtype=np.int64) * width
        padded = np.full((n_rows, width), np.inf)
        padded[:, :n_columns] = cumulative
        self._padded = padded.ravel()
        # Flat positions in the padded matrix, as int32 to halve the
        # table (N K entries) and the memory each gather reads.
        table = np.cumsum(per_bin[:, :bins], axis=1, dtype=np.int32)
        table += self._row_starts[:, None]
        self._table = table.ravel()
        self._table_row_starts = np.arange(n_rows, dtype=np.int64) * bins

    @classmethod
    def from_fractions(cls, fractions: np.ndarray) -> DestinationSampler:
        """Sampler over a fraction matrix's rows, last column forced to 1.0.

        The forced entry is an upper bound for any uniform draw in
        ``[0, 1)`` whatever the row sum rounds to.
        """
        cumulative = np.cumsum(fractions, axis=1)
        cumulative[:, -1] = 1.0
        return cls(cumulative)

    @property
    def cumulative(self) -> np.ndarray:
        """The read-only ``(rows, M)`` cumulative matrix searched."""
        return self._cumulative

    def sample(self, draws: np.ndarray) -> np.ndarray:
        """Columns chosen by ``draws`` in ``[0, 1)``, int64, same shape.

        The last axis of ``draws`` runs over the rows: ``draws[..., p]``
        are searched in row ``p``.
        """
        # Truncating d K into an int64 buffer is floor(d K) for d >= 0.
        bins = np.multiply(
            draws,
            self._bins,
            out=np.empty(np.shape(draws), dtype=np.int64),
            casting="unsafe",
        )
        bins += self._table_row_starts
        chosen = self._table.take(bins)
        for _ in range(self._gap):
            chosen += draws >= self._padded.take(chosen)
        chosen = chosen - self._row_starts  # back to int64 columns
        np.minimum(chosen, self._n_columns - 1, out=chosen)
        return chosen


class RequestGenerator(abc.ABC):
    """Source of per-cycle memory requests."""

    def __init__(self, n_processors: int, n_memories: int):
        self._n_processors = int(n_processors)
        self._n_memories = int(n_memories)

    @property
    def n_processors(self) -> int:
        """Number of processors issuing requests."""
        return self._n_processors

    @property
    def n_memories(self) -> int:
        """Number of addressable memory modules."""
        return self._n_memories

    @abc.abstractmethod
    def cycles(
        self, n_cycles: int, rng: np.random.Generator
    ) -> Iterator[list[tuple[int, int]]]:
        """Yield ``n_cycles`` lists of ``(processor, module)`` requests."""


class ModelRequestGenerator(RequestGenerator):
    """Draws requests from a :class:`RequestModel`'s fraction matrix.

    Request issue and module choice are vectorized in blocks so simulating
    tens of thousands of cycles stays fast while per-cycle output remains
    a simple request list.
    """

    #: Cycles drawn per vectorized block.  Both :meth:`cycles` and
    #: :meth:`request_arrays` consume the generator in blocks of exactly
    #: this size, so the two access paths see bit-identical request
    #: streams for the same ``rng`` state — the property the vectorized
    #: simulation backend's equivalence tests rely on.
    _BLOCK = 1024

    def __init__(self, model: RequestModel):
        super().__init__(model.n_processors, model.n_memories)
        model.validate()
        self._rate = model.rate
        self._sampler = DestinationSampler.from_fractions(
            model.fraction_matrix()
        )
        self._cumulative = self._sampler.cumulative

    def _draw_block(
        self, block: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one block: ``(issues, chosen)`` arrays of shape (block, N)."""
        issues = rng.random((block, self._n_processors)) < self._rate
        # Module choice by inverse CDF: the count of cumulative-fraction
        # entries <= draw in the processor's row.  The guide table finds
        # it exactly: draws are multiples of 2**-53 in [0, 1) and K is a
        # power of two, so floor(draw K) and ceil(cumulative K) are exact
        # and the table's start never passes the count; ``gap`` steps
        # cover the entries in one bin (see :class:`DestinationSampler`).
        chosen = self._sampler.sample(rng.random((block, self._n_processors)))
        return issues, chosen

    def request_arrays(
        self, n_cycles: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_cycles`` cycles at once as dense arrays.

        Returns ``(issues, chosen)``: a boolean ``(n_cycles, N)`` issue
        mask and an int64 ``(n_cycles, N)`` matrix of addressed modules
        (meaningful only where ``issues`` is true).  Consumes ``rng``
        exactly like :meth:`cycles` does, block by block, so a loop-based
        and an array-based consumer starting from the same generator
        state observe the same requests.
        """
        if n_cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {n_cycles}")
        issue_blocks: list[np.ndarray] = []
        chosen_blocks: list[np.ndarray] = []
        remaining = n_cycles
        while remaining > 0:
            block = min(self._BLOCK, remaining)
            remaining -= block
            issues, chosen = self._draw_block(block, rng)
            issue_blocks.append(issues)
            chosen_blocks.append(chosen)
        if not issue_blocks:
            shape = (0, self._n_processors)
            return np.zeros(shape, dtype=bool), np.zeros(shape, dtype=np.int64)
        return np.concatenate(issue_blocks), np.concatenate(chosen_blocks)

    def cycles(
        self, n_cycles: int, rng: np.random.Generator
    ) -> Iterator[list[tuple[int, int]]]:
        if n_cycles < 0:
            raise SimulationError(f"cycle count must be >= 0, got {n_cycles}")
        remaining = n_cycles
        processors = np.arange(self._n_processors)
        while remaining > 0:
            block = min(self._BLOCK, remaining)
            remaining -= block
            issues, chosen = self._draw_block(block, rng)
            for c in range(block):
                active = processors[issues[c]]
                yield [(int(p), int(chosen[c, p])) for p in active]


class FixedRequestGenerator(RequestGenerator):
    """Replays a fixed request schedule, cycling when exhausted.

    Used by trace replay (:mod:`repro.workloads.traces`) and by tests that
    need deterministic request streams.
    """

    def __init__(
        self,
        schedule: Sequence[Sequence[tuple[int, int]]],
        n_processors: int,
        n_memories: int,
    ):
        super().__init__(n_processors, n_memories)
        if not schedule:
            raise SimulationError("schedule must contain at least one cycle")
        normalized: list[list[tuple[int, int]]] = []
        for cycle_index, cycle in enumerate(schedule):
            requests = []
            for processor, module in cycle:
                if not 0 <= processor < n_processors:
                    raise SimulationError(
                        f"cycle {cycle_index}: processor {processor} "
                        f"outside [0, {n_processors})"
                    )
                if not 0 <= module < n_memories:
                    raise SimulationError(
                        f"cycle {cycle_index}: module {module} "
                        f"outside [0, {n_memories})"
                    )
                requests.append((int(processor), int(module)))
            normalized.append(requests)
        self._schedule = normalized

    def __len__(self) -> int:
        return len(self._schedule)

    def cycles(
        self, n_cycles: int, rng: np.random.Generator
    ) -> Iterator[list[tuple[int, int]]]:
        for c in range(n_cycles):
            yield list(self._schedule[c % len(self._schedule)])
