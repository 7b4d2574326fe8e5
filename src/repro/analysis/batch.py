"""Whole-grid analytic kernels: every bus count from one pmf.

The per-cell scalar path evaluates eqs. (4), (6), (9) and (12) one
``(scheme, B, r, model)`` cell at a time, recomputing the request-count
pmf — which depends only on ``(M, X)`` — for every cell, and walking a
Python loop over ``B``.  This module evaluates *vectors* of bus counts
from a single cached pmf:

* :func:`tail_excess_all_buses` — the subtracted term of eq. (4) for
  every cap at once via one reversed cumulative sum (``E[max(I - c, 0)]
  = sum_{k > c} P(I >= k)``), so a full ``B = 1..N`` sweep is O(M)
  instead of O(N * M).
* :func:`bandwidth_full_batch` / :func:`bandwidth_partial_batch` /
  :func:`bandwidth_single_batch` / :func:`bandwidth_kclass_batch` — the
  four schemes' closed forms over a vector of bus counts.
* :func:`binomial_pmf_grid` — the 2-D ``(rate, count)`` pmf matrix for a
  vector of request probabilities, broadcast from one log-coefficient row.
* :func:`scheme_bus_profile` — the dispatch facade mirroring
  :func:`repro.analysis.evaluate.analytic_bandwidth` (homogeneous and
  heterogeneous paths) for a whole bus-count vector, without building a
  network object per cell; structurally invalid counts are reported as
  :class:`SkippedCell` records instead of silently disappearing.

Every kernel matches its scalar counterpart to well below 1e-9 (the
property suite in ``tests/analysis/test_batch.py`` pins 1e-12), so the
golden table values are unchanged.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.binomial import log_binomial_coefficients, validate_probability
from repro.core.cache import cached_binomial_pmf, cached_poisson_binomial_pmf
from repro.core.kclasses import idle_products
from repro.core.priority import (
    DISCIPLINES,
    crossbar_tenure_bandwidth,
    cumulative_weights,
    effective_bandwidths,
    monotone_class_split,
    proportional_split,
    validate_class_weights,
    validate_tenure,
)
from repro.core.request_models import RequestModel
from repro.exceptions import ConfigurationError, ModelError
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.topology.factory import build_network, equal_class_sizes

__all__ = [
    "tail_excess_all_buses",
    "binomial_pmf_grid",
    "bandwidth_full_batch",
    "bandwidth_partial_batch",
    "bandwidth_single_batch",
    "bandwidth_kclass_batch",
    "SkippedCell",
    "BusProfile",
    "valid_bus_counts",
    "scheme_bus_profile",
    "PriorityProfile",
    "priority_class_profile",
    "GridCell",
    "evaluate_cells",
]


# ----------------------------------------------------------------------
# Distribution kernels
# ----------------------------------------------------------------------


def tail_excess_all_buses(pmf: np.ndarray) -> np.ndarray:
    """Return ``E[max(I - c, 0)]`` for every cap ``c = 0..M`` at once.

    Element ``c`` equals :func:`repro.core.binomial.tail_excess(pmf, c)`;
    one reversed cumulative sum replaces ``M`` independent O(M) tail
    sums, using the identity ``E[max(I - c, 0)] = sum_{k>c} P(I >= k)``.

    Accepts a pmf vector of length ``M + 1`` or a 2-D matrix of row pmfs
    (e.g. from :func:`binomial_pmf_grid`); caps index the last axis.
    """
    pmf = np.asarray(pmf, dtype=float)
    # tail[..., k] = P(I >= k)
    tail = np.cumsum(pmf[..., ::-1], axis=-1)[..., ::-1]
    excess = np.zeros_like(pmf)
    if pmf.shape[-1] > 1:
        excess[..., :-1] = np.cumsum(tail[..., :0:-1], axis=-1)[..., ::-1]
    return excess


def binomial_pmf_grid(n: int, ps: Sequence[float]) -> np.ndarray:
    """Return the ``(len(ps), n + 1)`` matrix of ``Binomial(n, p)`` pmfs.

    Row ``k`` equals ``binomial_pmf(n, ps[k])``: the same log-space
    evaluation, broadcast over the probability vector so a rate sweep
    builds one :func:`~repro.core.binomial.log_binomial_coefficients` row.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    ps = np.asarray(
        [validate_probability(float(p), "p") for p in ps], dtype=float
    )
    if n == 0:
        return np.ones((ps.size, 1))
    grid = np.zeros((ps.size, n + 1))
    i = np.arange(n + 1)
    interior = (ps > 0.0) & (ps < 1.0)
    if np.any(interior):
        p = ps[interior][:, None]
        log_comb = log_binomial_coefficients(n)
        log_pmf = log_comb + i * np.log(p) + (n - i) * np.log1p(-p)
        rows = np.exp(log_pmf)
        grid[interior] = rows / rows.sum(axis=1, keepdims=True)
    grid[ps == 0.0, 0] = 1.0
    grid[ps == 1.0, n] = 1.0
    return grid


# ----------------------------------------------------------------------
# Per-scheme batch kernels
# ----------------------------------------------------------------------


def _bus_vector(bus_counts: Sequence[int]) -> np.ndarray:
    bus = np.asarray(list(bus_counts), dtype=int)
    if bus.size and int(bus.min()) < 1:
        raise ConfigurationError(
            f"need at least one bus, got {int(bus.min())}"
        )
    return bus


def bandwidth_full_batch(
    n_memories: int,
    bus_counts: Sequence[int],
    request_probability: float,
) -> np.ndarray:
    """Eq. (4) for a vector of bus counts from one cached pmf.

    >>> import numpy as np
    >>> from repro.core.bandwidth import bandwidth_full
    >>> batch = bandwidth_full_batch(8, [2, 4, 8], 0.65639)
    >>> bool(np.allclose(batch, [bandwidth_full(8, b, 0.65639)
    ...                          for b in (2, 4, 8)]))
    True
    """
    bus = _bus_vector(bus_counts)
    x = validate_probability(request_probability, "X")
    if n_memories < 1:
        raise ConfigurationError(
            f"need at least one memory module, got {n_memories}"
        )
    excess = tail_excess_all_buses(cached_binomial_pmf(n_memories, x))
    return n_memories * x - excess[np.minimum(bus, n_memories)]


def bandwidth_partial_batch(
    n_memories: int,
    bus_counts: Sequence[int],
    n_groups: int,
    request_probability: float,
) -> np.ndarray:
    """Eq. (9) for a vector of bus counts, all divisible by ``g``."""
    bus = _bus_vector(bus_counts)
    if n_groups < 1:
        raise ConfigurationError(f"need at least one group, got {n_groups}")
    if n_memories % n_groups:
        raise ConfigurationError(
            f"g={n_groups} must divide the module count M={n_memories}"
        )
    if bus.size and np.any(bus % n_groups):
        bad = int(bus[np.flatnonzero(bus % n_groups)[0]])
        raise ConfigurationError(
            f"g={n_groups} must divide the bus count B={bad}"
        )
    per_group = n_memories // n_groups
    x = validate_probability(request_probability, "X")
    excess = tail_excess_all_buses(cached_binomial_pmf(per_group, x))
    per = per_group * x - excess[np.minimum(bus // n_groups, per_group)]
    return n_groups * per


def bandwidth_single_batch(
    n_memories: int,
    bus_counts: Sequence[int],
    request_probability: float,
) -> np.ndarray:
    """Eq. (6) with the balanced module layout, for a vector of bus counts.

    Mirrors :class:`~repro.topology.single.SingleBusMemoryNetwork`'s
    default assignment: ``M % B`` buses carry ``M // B + 1`` modules, the
    rest ``M // B``.
    """
    bus = _bus_vector(bus_counts)
    if n_memories < 1:
        raise ConfigurationError(
            f"need at least one memory module, got {n_memories}"
        )
    if bus.size and int(bus.max()) > n_memories:
        raise ConfigurationError(
            f"B={int(bus.max())} exceeds M={n_memories}"
        )
    x = validate_probability(request_probability, "X")
    base = n_memories // bus
    extra = n_memories % bus
    if x < 1.0:
        log_miss = np.log1p(-x)
        y_base = -np.expm1(base * log_miss)
        y_next = -np.expm1((base + 1) * log_miss)
    else:
        y_base = (base > 0).astype(float)
        y_next = np.ones_like(base, dtype=float)
    return extra * y_next + (bus - extra) * y_base


def bandwidth_kclass_batch(
    class_sizes: Sequence[int],
    bus_counts: Sequence[int],
    request_probability: float | Sequence[float],
) -> np.ndarray:
    """Eq. (12) for fixed classes over a vector of bus counts ``B >= K``.

    Eq. (11)'s busy probability for bus ``i`` under ``B`` buses depends
    only on ``a = i + K - B``, so the ``Y`` values for every bus of every
    requested count are one table indexed by ``a``, and each bandwidth is
    a suffix sum of that table — O(B_max * K) for the whole vector
    instead of per count.
    """
    bus = _bus_vector(bus_counts)
    sizes = [int(s) for s in class_sizes]
    if not sizes:
        raise ConfigurationError("need at least one memory class")
    if any(s < 0 for s in sizes):
        raise ConfigurationError(f"class sizes must be non-negative: {sizes}")
    if sum(sizes) < 1:
        raise ConfigurationError("classes must hold at least one module")
    n_classes = len(sizes)
    if bus.size == 0:
        return np.empty(0)
    if int(bus.min()) < n_classes:
        raise ConfigurationError(
            f"K={n_classes} classes require K <= B={int(bus.min())} buses"
        )
    # ys[t] = Y(a) with a = K - b_max + 1 + t; under B buses, bus i has
    # a = i + K - B, so its Y values are the last B entries of ys.
    ys = 1.0 - idle_products(sizes, int(bus.max()), request_probability)
    suffix = np.cumsum(ys[::-1])  # suffix[b - 1] = sum of the last b Y's
    return suffix[bus - 1]


# ----------------------------------------------------------------------
# Validity and the dispatch facade
# ----------------------------------------------------------------------


#: ``(substring of the reason message, stable machine-readable code)``
#: pairs, checked in order; telemetry counts skips by these codes.
_REASON_CODES = (
    ("at least one bus", "nonpositive_bus_count"),
    ("exceeds M=", "bus_count_exceeds_modules"),
    ("divide the module count", "groups_divide_modules"),
    ("divide the bus count", "groups_divide_buses"),
    ("classes require", "classes_exceed_buses"),
    ("sum to", "class_sizes_sum_mismatch"),
    ("pins B=", "generator_pins_bus_count"),
    ("pins M=", "generator_pins_module_count"),
)


@dataclasses.dataclass(frozen=True)
class SkippedCell:
    """One structurally invalid ``(scheme, B)`` sweep cell and why."""

    scheme: str
    n_buses: int
    reason: str

    @property
    def reason_code(self) -> str:
        """Stable machine-readable category of :attr:`reason`.

        Used as the telemetry label on ``analysis.cells_skipped`` so
        manifests aggregate skips by cause rather than by message text.
        """
        for fragment, code in _REASON_CODES:
            if fragment in self.reason:
                return code
        return "other"


@dataclasses.dataclass
class BusProfile:
    """Bandwidth per feasible bus count, plus the audited skips."""

    values: dict[int, float]
    skipped: list[SkippedCell]


#: Scheme-specific kwargs each batch path understands; anything else
#: falls back to per-cell construction through the topology objects.
#: ``custom`` additionally takes batch-layer-only knobs: ``fallback``
#: ("auto" | "exact" | "simulate") and ``sim_cycles``.
_BATCHABLE_KWARGS = {
    "full": frozenset(),
    "single": frozenset(),
    "partial": frozenset({"n_groups"}),
    "kclass": frozenset({"class_sizes"}),
    "crossbar": frozenset(),
    "custom": frozenset({"generator", "fallback", "sim_cycles"}),
}

#: Above this module count the "auto" fallback for unrecognized custom
#: structures switches from exact enumeration (O(2^M)) to simulation.
_EXACT_FALLBACK_MAX = 12


def valid_bus_counts(
    scheme: str,
    n_memories: int,
    bus_counts: Sequence[int],
    **network_kwargs,
) -> tuple[list[int], list[SkippedCell]]:
    """Split ``bus_counts`` into feasible counts and audited skips.

    Mirrors the constructor validation of the topology classes (the
    structural source of truth) without instantiating one network per
    count: base ``1 <= B <= M``, group divisibility for ``partial``,
    ``K <= B`` for explicit K-class sizes.  ``crossbar`` ignores ``B``
    entirely, matching :func:`repro.topology.factory.build_network`.
    """
    valid: list[int] = []
    skipped: list[SkippedCell] = []
    n_groups = network_kwargs.get("n_groups", 2)
    class_sizes = network_kwargs.get("class_sizes")
    for b in bus_counts:
        b = int(b)
        if scheme == "crossbar":
            valid.append(b)
            continue
        if b < 1:
            skipped.append(
                SkippedCell(scheme, b, f"need at least one bus, got {b}")
            )
            continue
        if b > n_memories:
            skipped.append(
                SkippedCell(
                    scheme,
                    b,
                    f"B={b} exceeds M={n_memories}; buses beyond the "
                    "module count can never carry a transfer",
                )
            )
            continue
        if scheme == "partial":
            if n_memories % n_groups:
                skipped.append(
                    SkippedCell(
                        scheme,
                        b,
                        f"g={n_groups} must divide the module count "
                        f"M={n_memories}",
                    )
                )
                continue
            if b % n_groups:
                skipped.append(
                    SkippedCell(
                        scheme,
                        b,
                        f"g={n_groups} must divide the bus count B={b}",
                    )
                )
                continue
        if scheme == "kclass" and class_sizes is not None:
            k = len(list(class_sizes))
            if k > b:
                skipped.append(
                    SkippedCell(
                        scheme, b, f"K={k} classes require K <= B={b}"
                    )
                )
                continue
        valid.append(b)
    return valid, skipped


def _symmetric_x(model: RequestModel) -> float | None:
    try:
        return model.symmetric_module_probability()
    except ModelError:
        return None


def _fallback_profile(
    scheme: str,
    n_processors: int,
    n_memories: int,
    bus_counts: Sequence[int],
    model: RequestModel,
    **network_kwargs,
) -> BusProfile:
    """Per-cell path for configurations the batch kernels do not cover.

    Still benefits from the shared pmf cache underneath the scalar
    formulas, and reports skips instead of dropping them.
    """
    values: dict[int, float] = {}
    skipped: list[SkippedCell] = []
    for b in bus_counts:
        try:
            network = build_network(
                scheme, n_processors, n_memories, int(b), **network_kwargs
            )
        except ConfigurationError as exc:
            skipped.append(SkippedCell(scheme, int(b), str(exc)))
            continue
        values[int(b)] = analytic_bandwidth(network, model)
    return BusProfile(values=values, skipped=skipped)


def _kclass_class_probabilities(
    class_sizes: Sequence[int], xs: np.ndarray
) -> list[float]:
    """Per-class ``X_j`` from per-module probabilities, contiguous blocks.

    Mirrors the class-uniformity requirement of
    :func:`repro.analysis.evaluate.analytic_bandwidth` for the default
    contiguous class assignment.
    """
    class_xs: list[float] = []
    offset = 0
    for j, size in enumerate(class_sizes, start=1):
        members = xs[offset : offset + size]
        offset += size
        if members.size == 0:
            class_xs.append(0.0)
            continue
        if float(members.max() - members.min()) > 1e-9:
            raise ModelError(
                f"modules of class C_{j} have differing request "
                "probabilities; eq. (11) requires class-uniform X"
            )
        class_xs.append(float(members.mean()))
    return class_xs


def scheme_bus_profile(
    scheme: str,
    n_processors: int,
    n_memories: int,
    bus_counts: Sequence[int],
    model: RequestModel,
    **network_kwargs,
) -> BusProfile:
    """Bandwidth of one scheme for a whole bus-count vector.

    The batched counterpart of calling
    :func:`~repro.analysis.evaluate.analytic_bandwidth` per bus count on
    networks from :func:`~repro.topology.factory.build_network`: the same
    homogeneous/heterogeneous dispatch and the same feasibility rules,
    but each scheme's cells all derive from one cached pmf and one
    whole-grid kernel, with no per-cell network construction.  Exotic
    kwargs (``bus_of_module``, ``class_of_module``, ...) fall back to the
    per-cell path so behaviour never diverges from the topology objects.

    Runs inside an ``analysis.profile`` telemetry span; evaluated and
    skipped cells feed the ``analysis.cells_evaluated`` /
    ``analysis.cells_skipped`` counters (skips labelled by
    :attr:`SkippedCell.reason_code`).
    """
    with span("analysis.profile", scheme=scheme):
        profile = _scheme_bus_profile(
            scheme, n_processors, n_memories, bus_counts, model,
            **network_kwargs,
        )
    registry = get_registry()
    registry.increment(
        "analysis.cells_evaluated", len(profile.values), scheme=scheme
    )
    for cell in profile.skipped:
        registry.increment(
            "analysis.cells_skipped",
            scheme=cell.scheme,
            reason=cell.reason_code,
        )
    return profile


def _scheme_bus_profile(
    scheme: str,
    n_processors: int,
    n_memories: int,
    bus_counts: Sequence[int],
    model: RequestModel,
    **network_kwargs,
) -> BusProfile:
    """Uninstrumented body of :func:`scheme_bus_profile`."""
    if model.n_processors != n_processors:
        raise ConfigurationError(
            f"model has {model.n_processors} processors, network has "
            f"{n_processors}"
        )
    if model.n_memories != n_memories:
        raise ConfigurationError(
            f"model addresses {model.n_memories} modules, network has "
            f"{n_memories}"
        )
    # Arbitration knobs ride along in network_kwargs (the service and
    # the sweep fabric thread them through verbatim) but are consumed
    # here, before the batchable-kwargs check: class weights never
    # change the work-conserving *total* bandwidth, and tenure routes
    # a bus-limited scheme to the fixed-point approximation layer.
    # The crossbar has no bus contention, so its evaluator applies
    # tenure to each module directly.
    class_weights = network_kwargs.pop("class_weights", None)
    if class_weights is not None:
        validate_class_weights(class_weights)
    tenure = network_kwargs.pop("tenure", None)
    if tenure is not None:
        tenure = validate_tenure(tenure, "geometric")
        if tenure == 1.0:
            tenure = None
        elif scheme != "crossbar":
            return _tenure_profile(
                scheme, n_processors, n_memories, bus_counts, model,
                tenure, **network_kwargs,
            )
    batchable = _BATCHABLE_KWARGS.get(scheme)
    if batchable is None or set(network_kwargs) - batchable:
        if scheme == "custom":
            unknown = sorted(set(network_kwargs) - batchable)
            raise ConfigurationError(
                f"unknown parameter(s) {unknown} for scheme 'custom'; "
                f"allowed: {sorted(batchable)}"
            )
        return _fallback_profile(
            scheme, n_processors, n_memories, bus_counts, model,
            **network_kwargs,
        )
    valid, skipped = valid_bus_counts(
        scheme, n_memories, bus_counts, **network_kwargs
    )
    profile = BusProfile(values={}, skipped=skipped)
    if not valid:
        return profile
    if tenure is not None:  # only the crossbar gets here with one
        network_kwargs["tenure"] = tenure
    x = _symmetric_x(model)
    return _PROFILE_EVALUATORS[scheme](
        profile, n_processors, n_memories, valid, model, x, network_kwargs
    )


def _profile_crossbar(profile, n_processors, n_memories, valid, model, x, kwargs):
    # evaluate.analytic_bandwidth always takes the heterogeneous sum.
    xs = model.module_request_probabilities()
    value = float(
        np.sum([validate_probability(float(v), "X_j") for v in xs])
    )
    tenure = kwargs.get("tenure")
    if tenure is not None:
        # Tenure only throttles each module's renewal rate.
        value = crossbar_tenure_bandwidth([float(v) for v in xs], tenure)
    profile.values = {b: value for b in valid}
    return profile


def _profile_full(profile, n_processors, n_memories, valid, model, x, kwargs):
    if x is not None:
        batch = bandwidth_full_batch(n_memories, valid, x)
    else:
        xs = model.module_request_probabilities()
        excess = tail_excess_all_buses(cached_poisson_binomial_pmf(xs))
        total = float(xs.sum())
        batch = total - excess[np.minimum(valid, n_memories)]
    profile.values = {b: float(v) for b, v in zip(valid, batch)}
    return profile


def _profile_partial(profile, n_processors, n_memories, valid, model, x, kwargs):
    n_groups = kwargs.get("n_groups", 2)
    if x is not None:
        batch = bandwidth_partial_batch(n_memories, valid, n_groups, x)
    else:
        xs = model.module_request_probabilities()
        per_group = n_memories // n_groups
        caps = np.minimum(np.asarray(valid) // n_groups, per_group)
        batch = np.zeros(len(valid))
        for q in range(n_groups):
            group = xs[q * per_group : (q + 1) * per_group]
            excess = tail_excess_all_buses(
                cached_poisson_binomial_pmf(group)
            )
            batch += float(group.sum()) - excess[caps]
    profile.values = {b: float(v) for b, v in zip(valid, batch)}
    return profile


def _profile_single(profile, n_processors, n_memories, valid, model, x, kwargs):
    if x is not None:
        batch = bandwidth_single_batch(n_memories, valid, x)
        profile.values = {b: float(v) for b, v in zip(valid, batch)}
    else:
        xs = model.module_request_probabilities()
        miss_factors = 1.0 - np.asarray(
            [validate_probability(float(v), "X_j") for v in xs]
        )
        for b in valid:
            base, extra = divmod(n_memories, b)
            counts = np.full(b, base)
            counts[:extra] += 1
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            miss = np.multiply.reduceat(miss_factors, starts)
            profile.values[b] = float(b - miss.sum())
    return profile


def _profile_kclass(profile, n_processors, n_memories, valid, model, x, kwargs):
    class_sizes = kwargs.get("class_sizes")
    if class_sizes is not None:
        sizes = [int(s) for s in class_sizes]
        if sum(sizes) != n_memories:
            # build_network would reject every cell; mirror as skips.
            profile.skipped = profile.skipped + [
                SkippedCell(
                    "kclass",
                    b,
                    f"class sizes {sizes} sum to {sum(sizes)}, expected "
                    f"M={n_memories}",
                )
                for b in valid
            ]
            return profile
        request = (
            x if x is not None
            else _kclass_class_probabilities(
                sizes, model.module_request_probabilities()
            )
        )
        batch = bandwidth_kclass_batch(sizes, valid, request)
        profile.values = {b: float(v) for b, v in zip(valid, batch)}
        return profile
    # Default factory layout: K = B equal classes, so the class structure
    # itself changes with B — one eq. (11) pass per count (a prefix
    # product when B divides M).
    xs = None if x is not None else model.module_request_probabilities()
    for b in valid:
        sizes = equal_class_sizes(n_memories, b)
        request = (
            x if x is not None
            else _kclass_class_probabilities(sizes, xs)
        )
        ys = 1.0 - idle_products(sizes, b, request)
        profile.values[b] = float(ys.sum())
    return profile


def _profile_custom(profile, n_processors, n_memories, valid, model, x, kwargs):
    """Evaluate a generator spec across bus counts.

    Per count: instantiate the structure, try the recognizer, and route
    recognized cells through the closed-form evaluators above (grouped so
    each recognized ``(scheme, kwargs)`` pays one batched call — values
    are bit-identical to calling :func:`scheme_bus_profile` on the
    recognized scheme directly).  Unrecognized cells use exact
    enumeration (``M <= {exact_max}`` under ``fallback="auto"``) or the
    memoized-matching Monte-Carlo backend, whose seed derives from the
    structure digest so results are reproducible across processes.
    Recognition outcomes feed the ``topology.recognized`` /
    ``topology.fallback`` telemetry counters (surfaced in the obs
    manifest's ``topology`` section).
    """
    from repro.topology.generators import generate_structure
    from repro.topology.recognize import recognize_cached

    spec = kwargs.get("generator")
    if spec is None:
        raise ConfigurationError(
            "scheme 'custom' requires a 'generator' spec "
            "(see repro.topology.generators)"
        )
    fallback_mode = kwargs.get("fallback", "auto")
    if fallback_mode not in ("auto", "exact", "simulate"):
        raise ConfigurationError(
            f"fallback must be 'auto', 'exact' or 'simulate', got {fallback_mode!r}"
        )
    sim_cycles = kwargs.get("sim_cycles", 20_000)
    if isinstance(sim_cycles, bool) or not isinstance(sim_cycles, int) or sim_cycles < 1:
        raise ConfigurationError(
            f"sim_cycles must be a positive integer, got {sim_cycles!r}"
        )
    registry = get_registry()
    recognized_groups: dict[tuple, list[int]] = {}
    generic: list[tuple[int, object]] = []
    for b in valid:
        try:
            structure = generate_structure(spec, n_processors, n_memories, b)
        except ConfigurationError as exc:
            profile.skipped.append(SkippedCell("custom", b, str(exc)))
            continue
        recognition = recognize_cached(structure)
        if recognition is not None and (recognition.module_safe or x is not None):
            key = (recognition.scheme, recognition.network_kwargs)
            recognized_groups.setdefault(key, []).append(b)
            registry.increment("topology.recognized", scheme=recognition.scheme)
        else:
            generic.append((b, structure))
    for (scheme, scheme_kwargs), counts in recognized_groups.items():
        sub = _scheme_bus_profile(
            scheme, n_processors, n_memories, counts, model,
            **{name: value for name, value in scheme_kwargs},
        )
        profile.values.update(sub.values)
        profile.skipped.extend(
            SkippedCell("custom", cell.n_buses, cell.reason)
            for cell in sub.skipped
        )
    for b, structure in generic:
        if fallback_mode == "auto":
            method = "exact" if n_memories <= _EXACT_FALLBACK_MAX else "simulate"
        else:
            method = fallback_mode
        if method == "exact":
            from repro.core.exact import exact_bandwidth
            from repro.topology.structure import StructureNetwork

            profile.values[b] = float(
                exact_bandwidth(StructureNetwork(structure), model)
            )
        else:
            from repro.simulation.structure import simulate_structure_bandwidth

            result = simulate_structure_bandwidth(
                structure, model, n_cycles=sim_cycles
            )
            profile.values[b] = result.bandwidth
        registry.increment("topology.fallback", method=method)
    return profile


_profile_custom.__doc__ = _profile_custom.__doc__.format(
    exact_max=_EXACT_FALLBACK_MAX
)

#: Scheme -> batched profile evaluator; the single dispatch point that
#: replaced the old per-scheme if-chain.
_PROFILE_EVALUATORS = {
    "crossbar": _profile_crossbar,
    "full": _profile_full,
    "partial": _profile_partial,
    "single": _profile_single,
    "kclass": _profile_kclass,
    "custom": _profile_custom,
}


# ----------------------------------------------------------------------
# Priority / burst-tenure approximation layer
# ----------------------------------------------------------------------


def _tenure_profile(
    scheme: str,
    n_processors: int,
    n_memories: int,
    bus_counts: Sequence[int],
    model: RequestModel,
    tenure: float,
    **network_kwargs,
) -> BusProfile:
    """Effective bandwidth of a bus-limited scheme under mean tenure ``L``.

    Each requested bus count solves the free-bus fixed point
    ``T = f(B - (L - 1) T)`` (:func:`effective_bandwidths`) on the
    closed-form profile ``f``.  (The crossbar has no bus contention:
    :func:`_profile_crossbar` throttles each module's renewal rate with
    :func:`crossbar_tenure_bandwidth` instead.)  The profile is
    evaluated once, over the requested counts followed by every other
    count up to the largest one the machine can hold, so the
    interpolation has support; the requested counts' skips come back
    as the tenure-free profile reports them.  Every kernel is
    elementwise in the bus count and the solve for ``B`` reads no point
    above ``B``, so a cell's value does not depend on the counts it is
    evaluated with.
    """
    requested = {int(b) for b in bus_counts}
    # No bus-limited scheme is feasible past B = M (the network
    # constructors reject it), so the support stops there.
    top = min(max(requested, default=0), n_memories)
    support = _scheme_bus_profile(
        scheme,
        n_processors,
        n_memories,
        list(bus_counts)
        + [b for b in range(1, top + 1) if b not in requested],
        model,
        **network_kwargs,
    )
    solved = [b for b in support.values if b in requested]
    return BusProfile(
        values=(
            effective_bandwidths(support.values, solved, tenure)
            if solved else {}
        ),
        skipped=[
            cell for cell in support.skipped if cell.n_buses in requested
        ],
    )


@dataclasses.dataclass(frozen=True)
class PriorityProfile:
    """Per-class analytic bandwidth of one ``(scheme, B)`` cell.

    Attributes
    ----------
    n_buses:
        The evaluated bus count.
    discipline:
        The arbitration discipline the split models.
    class_weights:
        The criticality class mix.
    tenure:
        Mean burst length ``L``.
    total:
        Class-blind effective bandwidth (grant starts per cycle) —
        identical to :func:`scheme_bus_profile`'s value for the same
        knobs, since class weights never change a work-conserving
        total.
    per_class:
        Per-class bandwidths summing to :attr:`total` exactly.
    effective_buses:
        ``B - (L - 1) * total`` — buses free for new grants on average
        (``B`` for the crossbar, which has no bus contention).
    """

    scheme: str
    n_buses: int
    discipline: str
    class_weights: tuple[float, ...]
    tenure: float
    total: float
    per_class: tuple[float, ...]
    effective_buses: float


def priority_class_profile(
    scheme: str,
    n_processors: int,
    n_memories: int,
    n_buses: int,
    model: RequestModel,
    discipline: str = "rr",
    class_weights: Sequence[float] = (1.0,),
    tenure: float = 1.0,
    **network_kwargs,
) -> PriorityProfile:
    """Analytic per-class bandwidth for one cell under a discipline.

    Under ``"strict"`` priority, classes ``0..c`` together preempt all
    lower traffic, so their joint bandwidth is the base model *thinned*
    to their cumulative weight (``model.with_rate(r * W_c)``) evaluated
    through the same tenure-aware dispatch; per-class shares are the
    telescoping differences (:func:`monotone_class_split`), with the top
    cumulative class pinned to the exact unthinned total so the split
    sums to it bit-for-bit.  The class-blind disciplines (``"rr"``,
    ``"wrr"``, ``"proc"``) serve classes in proportion to their traffic
    in expectation (:func:`proportional_split`) — ``"wrr"``'s bias only
    materializes in overload, which the approximation ignores.

    A single class at unit tenure returns the eq. 1-12 value unchanged:
    the differential wall pins this against the golden tables.
    """
    if discipline not in DISCIPLINES:
        raise ConfigurationError(
            f"discipline must be one of {DISCIPLINES}, got {discipline!r}"
        )
    weights = validate_class_weights(class_weights)
    tenure = validate_tenure(tenure, "geometric")
    profile = scheme_bus_profile(
        scheme,
        n_processors,
        n_memories,
        [n_buses],
        model,
        class_weights=weights,
        tenure=tenure,
        **network_kwargs,
    )
    if n_buses not in profile.values:
        reason = (
            profile.skipped[0].reason
            if profile.skipped
            else f"B={n_buses} is not feasible for scheme {scheme!r}"
        )
        raise ConfigurationError(reason)
    total = profile.values[n_buses]
    if scheme == "crossbar":
        effective_buses = float(n_buses)
    else:
        effective_buses = n_buses - (tenure - 1.0) * total
    if discipline == "strict":
        cumulative_values: list[float] = []
        for cum in cumulative_weights(weights)[:-1]:
            thinned = model.with_rate(model.rate * cum)
            sub = scheme_bus_profile(
                scheme,
                n_processors,
                n_memories,
                [n_buses],
                thinned,
                class_weights=weights,
                tenure=tenure,
                **network_kwargs,
            )
            cumulative_values.append(sub.values[n_buses])
        per_class = monotone_class_split(
            cumulative_values + [total], total
        )
    else:
        per_class = proportional_split(weights, total)
    return PriorityProfile(
        scheme=scheme,
        n_buses=int(n_buses),
        discipline=discipline,
        class_weights=weights,
        tenure=tenure,
        total=float(total),
        per_class=per_class,
        effective_buses=float(effective_buses),
    )


# ----------------------------------------------------------------------
# Re-entrant micro-batch entry point
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GridCell:
    """One single-cell bandwidth request for :func:`evaluate_cells`.

    ``network_kwargs`` must be a hashable canonical form — a tuple of
    sorted ``(name, value)`` pairs with sequence values converted to
    tuples (what :meth:`from_kwargs` produces).
    """

    scheme: str
    n_processors: int
    n_memories: int
    n_buses: int
    model: RequestModel
    network_kwargs: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def from_kwargs(
        scheme: str,
        n_processors: int,
        n_memories: int,
        n_buses: int,
        model: RequestModel,
        **network_kwargs,
    ) -> "GridCell":
        """Build a cell, canonicalizing ``network_kwargs`` to sorted tuples."""
        canonical = tuple(
            (name, tuple(value) if isinstance(value, (list, tuple)) else value)
            for name, value in sorted(network_kwargs.items())
        )
        return GridCell(
            scheme, int(n_processors), int(n_memories), int(n_buses),
            model, canonical,
        )

    def profile_signature(self) -> tuple:
        """Grouping key: cells equal here share one grid evaluation.

        The request model is identified by object identity — callers that
        want two cells micro-batched together must hand both the *same*
        model instance (the query service's canonical-key cache does
        exactly that).  Identity is the only equality cheap enough for a
        per-request hot path, and it can never conflate distinct models.
        """
        return (
            self.scheme,
            self.n_processors,
            self.n_memories,
            id(self.model),
            self.network_kwargs,
        )


def evaluate_cells(
    cells: Sequence[GridCell],
) -> list[float | SkippedCell]:
    """Evaluate many single cells through as few grid calls as possible.

    The re-entrant micro-batch entry point of the analytic engine: cells
    agreeing on everything but the bus count (same scheme, machine shape,
    request-model *instance* and network kwargs) are grouped and answered
    by **one** :func:`scheme_bus_profile` call over their combined
    bus-count vector.  Results come back aligned with the input: a float
    bandwidth for feasible cells, the auditing :class:`SkippedCell` for
    structurally invalid ones.

    Because every grid kernel is elementwise in the bus count (each
    count's value is read from the same cached pmf with the same
    arithmetic regardless of its companions), a cell's value is
    bit-identical whether it is evaluated alone or sharing a grid call —
    the property the query service's differential suite pins.

    Thread-safety: pure function of its arguments; the only shared state
    underneath is the pmf cache and the telemetry registry, both
    thread-safe, so concurrent callers (one batch flusher per event loop,
    a benchmark harness, a worker pool) can all enter at once.
    """
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(cell.profile_signature(), []).append(index)
    results: list[float | SkippedCell] = [None] * len(cells)  # type: ignore[list-item]
    for indices in groups.values():
        first = cells[indices[0]]
        # Deduplicate bus counts inside the group while keeping one grid
        # call; every member reads its own count back from the profile.
        bus_counts = sorted({cells[i].n_buses for i in indices})
        profile = scheme_bus_profile(
            first.scheme,
            first.n_processors,
            first.n_memories,
            bus_counts,
            first.model,
            **dict(first.network_kwargs),
        )
        skipped_by_bus = {cell.n_buses: cell for cell in profile.skipped}
        for i in indices:
            b = cells[i].n_buses
            if b in profile.values:
                results[i] = profile.values[b]
            else:
                results[i] = skipped_by_bus.get(
                    b,
                    SkippedCell(
                        first.scheme, b,
                        f"B={b} missing from the evaluated profile",
                    ),
                )
    return results
