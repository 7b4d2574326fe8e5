"""Memory request models: which module does each processor ask for?

A *request model* captures the stochastic behaviour the paper assumes
(Section III, assumptions 1-5): at the start of every memory cycle each
processor independently issues a request with probability ``r`` and, given
that it issues one, directs it at module ``j`` with a per-processor
fraction ``f[i, j]`` (``sum_j f[i, j] == 1``).

Every model therefore reduces to an ``N x M`` *fraction matrix*, and all
downstream consumers — the closed-form bandwidth analysis, the Monte-Carlo
simulator, the workload generators — consume that matrix.  This keeps the
uniform model, the Das-Bhuyan favourite-memory model and the paper's
hierarchical model interchangeable.

The central derived quantity is eq. (2): the probability ``X_j`` that at
least one processor requests module ``j`` in a cycle::

    X_j = 1 - prod_i (1 - r * f[i, j])

computed in log space for numerical robustness.
"""

from __future__ import annotations

import abc
import functools
from collections.abc import Callable

import numpy as np

from repro.exceptions import ModelError

__all__ = [
    "RequestModel",
    "MatrixRequestModel",
    "UniformRequestModel",
    "FavoriteMemoryRequestModel",
    "SharedFractions",
]

_FRACTION_TOL = 1e-9
#: Largest fraction matrix (in entries) a shape keeps once built; larger
#: ones are rebuilt per call, so the shape caches stay small.
_SHARED_MATRIX_MAX = 1 << 16


def _check_fractions(f: np.ndarray, expected: tuple[int, int]) -> None:
    """Raise :class:`ModelError` unless ``f`` is a valid fraction matrix."""
    if f.shape != expected:
        raise ModelError(f"fraction matrix shape {f.shape} != {expected}")
    if np.any(f < -_FRACTION_TOL):
        raise ModelError("fraction matrix contains negative entries")
    row_sums = f.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-6):
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ModelError(
            f"row {bad} of the fraction matrix sums to {row_sums[bad]:.9f}, "
            "expected 1.0"
        )


class SharedFractions:
    """One model shape's read-only fraction matrix, validated once.

    The fraction matrix of a uniform or hierarchical model depends only
    on the machine's shape, never on the rate ``r``, so every model of
    one shape shares one of these.  The first :meth:`matrix` call builds
    and validates the matrix; a shape that fails validation raises on
    every call, because only a matrix that passed is kept.  Matrices
    above ``_SHARED_MATRIX_MAX`` entries are rebuilt per call (and not
    re-validated) so that a cache of shapes stays small.
    """

    __slots__ = ("_build", "_expected", "_matrix", "_valid")

    def __init__(self, expected: tuple[int, int], build: Callable[[], np.ndarray]):
        self._build = build
        self._expected = expected
        self._matrix: np.ndarray | None = None
        self._valid = False

    def matrix(self) -> np.ndarray:
        """The read-only ``N x M`` fraction matrix."""
        f = self._matrix
        if f is None:
            f = self._build()
            if not self._valid:
                _check_fractions(f, self._expected)
                self._valid = True
            f.setflags(write=False)
            if f.size <= _SHARED_MATRIX_MAX:
                self._matrix = f
        return f

    def validate(self) -> None:
        """Raise :class:`ModelError` unless the matrix is valid."""
        if not self._valid:
            self.matrix()


@functools.lru_cache(maxsize=256)
def _uniform_fractions(n_processors: int, n_memories: int) -> SharedFractions:
    return SharedFractions(
        (n_processors, n_memories),
        functools.partial(
            np.full, (n_processors, n_memories), 1.0 / n_memories
        ),
    )


class RequestModel(abc.ABC):
    """Abstract base class for per-cycle memory request behaviour.

    Parameters
    ----------
    n_processors:
        Number of processors ``N``.
    n_memories:
        Number of shared memory modules ``M``.
    rate:
        Per-cycle request probability ``r`` of each processor
        (assumption 3 of the paper).
    """

    def __init__(self, n_processors: int, n_memories: int, rate: float = 1.0):
        if n_processors < 1:
            raise ModelError(f"need at least one processor, got {n_processors}")
        if n_memories < 1:
            raise ModelError(f"need at least one memory module, got {n_memories}")
        if not 0.0 <= rate <= 1.0:
            raise ModelError(f"request rate must be in [0, 1], got {rate}")
        self._n_processors = int(n_processors)
        self._n_memories = int(n_memories)
        self._rate = float(rate)

    @property
    def n_processors(self) -> int:
        """Number of processors ``N``."""
        return self._n_processors

    @property
    def n_memories(self) -> int:
        """Number of memory modules ``M``."""
        return self._n_memories

    @property
    def rate(self) -> float:
        """Per-cycle request probability ``r`` of each processor."""
        return self._rate

    @abc.abstractmethod
    def fraction_matrix(self) -> np.ndarray:
        """Return the ``N x M`` matrix of request fractions.

        Row ``i`` gives the conditional distribution over modules for
        processor ``i``'s requests; every row sums to one.  Uniform and
        hierarchical models return one read-only array shared by every
        model of their shape: copy it before writing.
        """

    def request_matrix(self) -> np.ndarray:
        """Return the ``N x M`` matrix of per-cycle request probabilities.

        Entry ``(i, j)`` is the unconditional probability that processor
        ``i`` requests module ``j`` in a given cycle, i.e.
        ``rate * fraction_matrix()[i, j]``.  Rows sum to ``rate``.
        """
        return self._rate * self.fraction_matrix()

    def module_request_probabilities(self) -> np.ndarray:
        """Return the length-``M`` vector of ``X_j`` values (eq. 2).

        ``X_j`` is the probability that at least one processor requests
        module ``j`` in a cycle, assuming processors act independently.
        """
        q = self.request_matrix()
        # X_j = 1 - prod_i (1 - q_ij), evaluated as expm1(sum log1p(-q)).
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-np.clip(q, 0.0, 1.0))
        total = log_miss.sum(axis=0)
        x = -np.expm1(total)
        # A module requested with certainty by some processor yields -inf
        # in the log, which expm1 maps to exactly 1.0 via the clip below.
        return np.clip(x, 0.0, 1.0)

    def symmetric_module_probability(self) -> float:
        """Return the common ``X`` when all modules are equally loaded.

        The paper's closed forms assume every module has the same
        probability ``X`` of being requested.  This helper validates that
        symmetry and returns the shared value.

        Raises
        ------
        ModelError
            If the per-module probabilities differ beyond floating point
            tolerance (use :meth:`module_request_probabilities` and the
            heterogeneous analysis in :mod:`repro.core.bandwidth` instead).
        """
        x = self.module_request_probabilities()
        spread = float(x.max() - x.min())
        if spread > 1e-9:
            raise ModelError(
                "request model is not module-symmetric "
                f"(X ranges over [{x.min():.6g}, {x.max():.6g}]); "
                "use the heterogeneous bandwidth analysis"
            )
        return float(x.mean())

    def with_rate(self, rate: float) -> "RequestModel":
        """Return a copy of this model with a different request rate ``r``.

        The fraction matrix (the *pattern*) is preserved; only the
        intensity changes.
        """
        return MatrixRequestModel(self.fraction_matrix(), rate=rate)

    def validate(self) -> None:
        """Check structural invariants of the fraction matrix.

        Raises :class:`~repro.exceptions.ModelError` if the matrix has the
        wrong shape, contains negative entries, or has rows that do not
        sum to one.
        """
        _check_fractions(
            self.fraction_matrix(), (self._n_processors, self._n_memories)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_processors={self._n_processors}, "
            f"n_memories={self._n_memories}, rate={self._rate})"
        )


class MatrixRequestModel(RequestModel):
    """A request model defined directly by an explicit fraction matrix.

    Useful for trace-derived patterns (see :mod:`repro.workloads.traces`)
    and for tests that need arbitrary asymmetric patterns.
    """

    def __init__(self, fractions: np.ndarray, rate: float = 1.0):
        fractions = np.asarray(fractions, dtype=float)
        if fractions.ndim != 2:
            raise ModelError(
                f"fraction matrix must be 2-D, got shape {fractions.shape}"
            )
        super().__init__(fractions.shape[0], fractions.shape[1], rate)
        self._fractions = fractions
        self.validate()

    def fraction_matrix(self) -> np.ndarray:
        return self._fractions.copy()


class UniformRequestModel(RequestModel):
    """The classical uniform requesting model.

    Every processor addresses every module with the same fraction ``1/M``.
    This is the baseline the paper compares the hierarchical model against
    in every table ("Unif." columns), and a special case of both the
    Das-Bhuyan model and the hierarchical model.

    Every model of one ``(N, M)`` shares one read-only fraction matrix,
    built and validated once (:class:`SharedFractions`).
    """

    def fraction_matrix(self) -> np.ndarray:
        return _uniform_fractions(self._n_processors, self._n_memories).matrix()

    def validate(self) -> None:
        _uniform_fractions(self._n_processors, self._n_memories).validate()

    def symmetric_module_probability(self) -> float:
        # Closed form: X = 1 - (1 - r/M)^N; avoids building the matrix.
        r_per = self._rate / self._n_memories
        return float(-np.expm1(self._n_processors * np.log1p(-r_per)))


class FavoriteMemoryRequestModel(RequestModel):
    """The Das-Bhuyan favourite-memory model [4].

    Processor ``i`` directs fraction ``q`` of its requests at a designated
    favourite module and spreads the remaining ``1 - q`` uniformly over the
    other ``M - 1`` modules.  With ``q = 1/M`` this degenerates to the
    uniform model.  The paper cites this model as the prior art its
    hierarchical model generalizes.

    Parameters
    ----------
    favorite_fraction:
        The fraction ``q`` sent to the favourite module.
    favorites:
        Optional explicit favourite module per processor; defaults to
        ``i % M`` which makes the model module-symmetric whenever ``M``
        divides ``N`` (or ``N == M``).
    """

    def __init__(
        self,
        n_processors: int,
        n_memories: int,
        favorite_fraction: float,
        rate: float = 1.0,
        favorites: list[int] | None = None,
    ):
        super().__init__(n_processors, n_memories, rate)
        if not 0.0 <= favorite_fraction <= 1.0:
            raise ModelError(
                f"favorite_fraction must be in [0, 1], got {favorite_fraction}"
            )
        if n_memories == 1 and favorite_fraction != 1.0:
            raise ModelError("with a single module the favourite fraction is 1")
        if favorites is None:
            favorites = [i % n_memories for i in range(n_processors)]
        if len(favorites) != n_processors:
            raise ModelError(
                f"need one favourite per processor, got {len(favorites)}"
            )
        for i, j in enumerate(favorites):
            if not 0 <= j < n_memories:
                raise ModelError(f"favourite of processor {i} out of range: {j}")
        self._q = float(favorite_fraction)
        self._favorites = list(favorites)

    @property
    def favorite_fraction(self) -> float:
        """Fraction ``q`` of requests sent to the favourite module."""
        return self._q

    @property
    def favorites(self) -> list[int]:
        """Favourite module index of each processor."""
        return list(self._favorites)

    def fraction_matrix(self) -> np.ndarray:
        n, m = self._n_processors, self._n_memories
        if m == 1:
            return np.ones((n, 1))
        other = (1.0 - self._q) / (m - 1)
        f = np.full((n, m), other)
        f[np.arange(n), self._favorites] = self._q
        return f
