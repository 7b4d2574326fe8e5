"""Numerically stable binomial and Poisson-binomial distributions.

The closed-form bandwidth expressions of the paper (eqs. 3, 4, 7-12) are
sums over binomial probability mass functions.  For the machine sizes the
paper evaluates (``N`` up to 32) naive evaluation is fine, but the library
supports parameter sweeps into the thousands of processors, where
``C(N, i) X**i (1 - X)**(N - i)`` overflows/underflows when computed
directly.  Everything here therefore works in log space, from one cached
table of log-factorials ``log(k!) = math.lgamma(k + 1)`` shared by the
scalar pmf and the batched grid in :mod:`repro.analysis.batch`.

The Poisson-binomial variant generalizes the paper's analysis to
*heterogeneous* per-module request probabilities (each module ``j`` has its
own probability ``X_j`` of being requested), which arises naturally under
the hierarchical requesting model when the module population is not
symmetric — an extension the paper sidesteps by symmetry arguments.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ModelError

__all__ = [
    "log_factorials",
    "log_binomial_coefficients",
    "binomial_pmf",
    "poisson_binomial_pmf",
    "expected_capped",
    "tail_excess",
    "cdf_from_pmf",
    "validate_probability",
]


def validate_probability(p: float, name: str = "p") -> float:
    """Validate that ``p`` lies in the closed interval [0, 1] and return it.

    Raises :class:`~repro.exceptions.ModelError` (a ``ValueError``)
    otherwise.  Small floating point excursions from repeated products
    (e.g. ``1 + 1e-16``) are clamped rather than rejected.
    """
    p = float(p)
    eps = 1e-9
    if -eps <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + eps:
        return 1.0
    if not 0.0 <= p <= 1.0:
        raise ModelError(f"{name} must be a probability in [0, 1], got {p!r}")
    return p


_LOG_FACTORIALS = np.zeros(1)
_LOG_FACTORIALS.flags.writeable = False


def log_factorials(n: int) -> np.ndarray:
    """Return ``log(k!) = math.lgamma(k + 1)`` for ``k = 0..n``, read-only.

    Every call returns a view of one process-wide table grown by doubling.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size <= n:
        size = max(n + 1, 2 * table.size)
        table = np.array([math.lgamma(k + 1) for k in range(size)])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[: n + 1]


def log_binomial_coefficients(n: int) -> np.ndarray:
    """Return ``log C(n, i)`` for ``i = 0..n``.

    >>> np.round(np.exp(log_binomial_coefficients(4)), 9)
    array([1., 4., 6., 4., 1.])
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    table = log_factorials(n)
    return table[n] - table - table[::-1]


@functools.lru_cache(maxsize=256)
def _binomial_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(log C(n, i), i, n - i)`` for ``i = 0..n``: read-only, cached.

    They depend on ``n`` only, so a new ``p`` pays for its own terms alone.
    """
    i = np.arange(n + 1)
    terms = (log_binomial_coefficients(n), i, n - i)
    for term in terms:
        term.setflags(write=False)
    return terms


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Return the full pmf vector of ``Binomial(n, p)`` with length ``n + 1``.

    ``pmf[i] = C(n, i) * p**i * (1 - p)**(n - i)`` computed in log space so
    that it remains accurate for large ``n`` and extreme ``p``.

    >>> binomial_pmf(2, 0.5)
    array([0.25, 0.5 , 0.25])
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    p = validate_probability(p)
    if n == 0:
        return np.ones(1)
    if p == 0.0:
        pmf = np.zeros(n + 1)
        pmf[0] = 1.0
        return pmf
    if p == 1.0:
        pmf = np.zeros(n + 1)
        pmf[n] = 1.0
        return pmf
    log_comb, i, rest = _binomial_terms(n)
    log_pmf = log_comb + i * np.log(p) + rest * np.log1p(-p)
    pmf = np.exp(log_pmf)
    # Normalize away the accumulated rounding so downstream tail sums are
    # exact expectations of a true distribution.
    return pmf / pmf.sum()


def poisson_binomial_pmf(probabilities: Sequence[float]) -> np.ndarray:
    """Return the pmf of a sum of independent Bernoulli variables.

    ``probabilities[k]`` is the success probability of trial ``k``; the
    result has length ``len(probabilities) + 1``.  Uses the standard O(n^2)
    convolution recurrence, which is exact and fast for the module counts
    this library sweeps (up to a few thousand).

    >>> poisson_binomial_pmf([0.5, 0.5])
    array([0.25, 0.5 , 0.25])
    """
    ps = [validate_probability(p, "probabilities[k]") for p in probabilities]
    pmf = np.zeros(len(ps) + 1)
    pmf[0] = 1.0
    for k, p in enumerate(ps):
        # After trial k the support is 0..k+1; update in reverse so each
        # entry reads the pre-update value of its predecessor.
        upper = k + 1
        pmf[1 : upper + 1] = pmf[1 : upper + 1] * (1.0 - p) + pmf[0:upper] * p
        pmf[0] *= 1.0 - p
    return pmf


def expected_capped(pmf: np.ndarray, cap: int) -> float:
    """Return ``E[min(I, cap)]`` for a random variable with the given pmf.

    This is exactly the paper's bandwidth pattern: a network with ``cap``
    buses serves ``min(i, cap)`` of the ``i`` requested modules.
    """
    if cap < 0:
        raise ConfigurationError(f"cap must be non-negative, got {cap}")
    i = np.arange(len(pmf))
    return float(np.sum(np.minimum(i, cap) * pmf))


def tail_excess(pmf: np.ndarray, cap: int) -> float:
    """Return ``E[max(I - cap, 0)]``, the expected overflow beyond ``cap``.

    This is the subtracted term of eq. (4): ``sum_{i>B} (i - B) Pf(i)``.
    ``expected_capped(pmf, cap) == mean(pmf) - tail_excess(pmf, cap)``.
    """
    if cap < 0:
        raise ConfigurationError(f"cap must be non-negative, got {cap}")
    i = np.arange(len(pmf))
    return float(np.sum(np.maximum(i - cap, 0) * pmf))


def cdf_from_pmf(pmf: np.ndarray) -> np.ndarray:
    """Return the cumulative distribution vector for a pmf vector."""
    return np.cumsum(pmf)
