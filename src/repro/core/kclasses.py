"""Closed-form bandwidth of partial bus networks with K classes (Sec. III-D).

The paper's proposed architecture divides the ``M`` memory modules into
``K`` classes; class ``C_j`` (sizes ``M_1 + ... + M_K = M``) connects to
buses ``1 .. j + B - K``.  Under the two-step bus-assignment procedure of
Lang et al. [10], bus ``i`` stays idle only when every class it serves has
"few enough" requested modules — eq. (11)::

    Y_i = 1 - prod_{j=a}^{K} sum_{m=0}^{j-a} Q_j(m),      a = i + K - B,

where ``Q_j(m)`` is the binomial probability of exactly ``m`` requested
modules in class ``C_j`` (eq. 10), and the bandwidth is
``MBW_p' = sum_i Y_i`` (eq. 12).

This module also generalizes eq. (10) to *per-class* request probabilities
``X_j`` (classes holding hotter modules), which the paper's two design
principles motivate but do not evaluate — used by the ablation experiment
E10.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.binomial import validate_probability
from repro.core.cache import cached_binomial_pmf
from repro.exceptions import ConfigurationError

__all__ = [
    "class_request_pmfs",
    "idle_products",
    "bus_busy_probabilities",
    "bandwidth_kclass",
]


def _validate_classes(class_sizes: Sequence[int], n_buses: int) -> list[int]:
    sizes = [int(s) for s in class_sizes]
    if not sizes:
        raise ConfigurationError("need at least one memory class")
    if any(s < 0 for s in sizes):
        raise ConfigurationError(f"class sizes must be non-negative: {sizes}")
    if sum(sizes) < 1:
        raise ConfigurationError("classes must hold at least one module")
    if len(sizes) > n_buses:
        raise ConfigurationError(
            f"K={len(sizes)} classes require K <= B={n_buses} buses"
        )
    if n_buses < 1:
        raise ConfigurationError(f"need at least one bus, got {n_buses}")
    return sizes


def _class_probabilities(
    n_classes: int, request_probability: float | Sequence[float]
) -> list[float]:
    """Validated ``(X_1, ..., X_K)`` from a common ``X`` or per-class values."""
    if np.isscalar(request_probability):
        return [validate_probability(float(request_probability), "X")] * n_classes
    xs = [validate_probability(float(x), "X_j") for x in request_probability]
    if len(xs) != n_classes:
        raise ConfigurationError(
            f"need one X per class: {len(xs)} probabilities "
            f"for {n_classes} classes"
        )
    return xs


def class_request_pmfs(
    class_sizes: Sequence[int],
    request_probability: float | Sequence[float],
) -> list[np.ndarray]:
    """Return ``Q_j`` pmf vectors, one per class (eq. 10).

    ``request_probability`` is either the common per-module probability
    ``X`` or a per-class sequence ``(X_1, ..., X_K)``.  Element ``j`` of
    the result has length ``M_j + 1`` and gives the distribution of the
    number of requested modules within class ``C_{j+1}``.

    Vectors come from the shared :data:`repro.core.cache.pmf_cache` —
    equal-sized classes at the same ``X`` share one (read-only) pmf, as do
    repeated evaluations across bus counts of a sweep.
    """
    sizes = [int(s) for s in class_sizes]
    xs = _class_probabilities(len(sizes), request_probability)
    return [cached_binomial_pmf(m_j, x_j) for m_j, x_j in zip(sizes, xs)]


def idle_products(
    class_sizes: Sequence[int],
    n_buses: int,
    request_probability: float | Sequence[float],
) -> np.ndarray:
    """Eq. (11)'s idle products ``prod_{j>=a} P(C_j <= j - a)`` per bus.

    Entry ``i - 1`` belongs to bus ``i`` of ``B = n_buses`` (``a = i + K
    - B``); ``class_sizes`` must already be valid for ``B`` (``K <= B``).
    One pmf is looked up, and one cdf summed, per distinct ``(M_j,
    X_j)``.  Each product multiplies its factors in ascending ``j``
    starting from 1.0, so every entry is bit-identical to the textbook
    double loop.  With ``K = B`` equal classes (the default layout when
    ``B`` divides ``M``) bus ``i`` multiplies ``cdf[min(t, M_j)]`` for
    ``t = 0 .. K - i``: one prefix product of one cdf serves every bus.
    """
    sizes = [int(s) for s in class_sizes]
    n_classes = len(sizes)
    xs = _class_probabilities(n_classes, request_probability)
    distinct: dict[tuple[int, float], int] = {}
    cdfs: list[np.ndarray] = []
    class_index = []
    for key in zip(sizes, xs):
        index = distinct.get(key)
        if index is None:
            index = distinct[key] = len(cdfs)
            # cdf[m] = P(requests in the class <= m).
            cdfs.append(cached_binomial_pmf(*key).cumsum())
        class_index.append(index)
    if len(cdfs) == 1 and n_classes == n_buses:
        cdf = cdfs[0]
        factors = cdf[np.minimum(np.arange(n_classes), cdf.size - 1)]
        return np.multiply.accumulate(factors)[::-1]
    # factors[b, j - 1] = P(C_j <= j - a_b), or 1.0 where class C_j does
    # not reach bus b (j < a_b); the row product then runs over j >= a_b.
    lengths = np.array([cdf.size for cdf in cdfs])[class_index]
    offsets = np.cumsum([0] + [cdf.size for cdf in cdfs])[class_index]
    lowest = np.arange(1, n_buses + 1) + (n_classes - n_buses)
    allowed = np.arange(1, n_classes + 1) - lowest[:, None]
    factors = np.concatenate(cdfs)[
        offsets + np.minimum(np.maximum(allowed, 0), lengths - 1)
    ]
    factors[allowed < 0] = 1.0
    return np.multiply.reduce(factors, axis=1)


def bus_busy_probabilities(
    class_sizes: Sequence[int],
    n_buses: int,
    request_probability: float | Sequence[float],
) -> np.ndarray:
    """Return ``(Y_1, ..., Y_B)`` — probability each bus carries a transfer.

    Implements eq. (11) with the paper's dummy-class convention: classes
    with subscript ``d <= 0`` are empty (``Q_d(0) = 1``), so the product
    simply skips them.

    Parameters
    ----------
    class_sizes:
        ``(M_1, ..., M_K)`` modules per class; class ``C_j`` connects to
        buses ``1 .. j + B - K``.
    n_buses:
        Total bus count ``B`` (``K <= B`` required).
    request_probability:
        Common ``X`` from eq. (2), or per-class ``X_j`` values.
    """
    sizes = _validate_classes(class_sizes, n_buses)
    return 1.0 - idle_products(sizes, n_buses, request_probability)


def bandwidth_kclass(
    class_sizes: Sequence[int],
    n_buses: int,
    request_probability: float | Sequence[float],
) -> float:
    """Return the memory bandwidth ``MBW_p'`` of eq. (12).

    >>> round(bandwidth_kclass([2, 2, 2, 2], 4, 0.65639), 3)  # N=8, uniform
    3.68
    """
    return float(
        np.sum(bus_busy_probabilities(class_sizes, n_buses, request_probability))
    )
