"""Per-cycle request generation driving the simulator.

A :class:`RequestGenerator` produces, for every memory cycle, the list of
``(processor, module)`` requests issued — implementing the paper's
assumptions 2, 3 and 5: processors issue independent Bernoulli(``r``)
requests, aim them according to their fraction-matrix row, and blocked
requests are dropped (the next cycle is drawn fresh).
"""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.request_models import RequestModel
from repro.exceptions import SimulationError

__all__ = ["RequestGenerator", "ModelRequestGenerator", "FixedRequestGenerator"]


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
        fractions = model.fraction_matrix()
        self._cumulative = np.cumsum(fractions, axis=1)
        # Guard against rounding: the last column must be an upper bound
        # for any uniform draw in [0, 1).
        self._cumulative[:, -1] = 1.0

    def _draw_block(
        self, block: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one block: ``(issues, chosen)`` arrays of shape (block, N)."""
        issues = rng.random((block, self._n_processors)) < self._rate
        draws = rng.random((block, self._n_processors))
        # Module choice by inverse-CDF per processor row: the count of
        # cumulative-fraction entries <= draw.  A row is non-decreasing
        # up to its forced final 1.0, which exceeds every draw, so those
        # entries form a prefix and a right-sided binary search per row
        # counts them exactly.
        chosen = np.empty((self._n_processors, block), dtype=np.int64)
        for processor, row in enumerate(draws.T):
            chosen[processor] = np.searchsorted(
                self._cumulative[processor], row, side="right"
            )
        np.clip(chosen, 0, self._n_memories - 1, out=chosen)
        return issues, chosen.T

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
