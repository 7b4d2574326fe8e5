"""Criticality classes, burst tenure, and their analytic approximations.

The paper's arbiters are uniform round-robin and every granted request
occupies its bus for exactly one memory cycle.  This module extends the
request/arbitration model along two orthogonal axes:

* **criticality classes** — each request carries a priority class drawn
  from :attr:`ArbitrationSpec.class_weights`; the arbitration discipline
  (:attr:`ArbitrationSpec.discipline`) decides how classes contend:

  - ``"rr"`` — the paper's uniform round-robin (classes are labels only),
  - ``"strict"`` — strict priority: a lower class index always beats a
    higher one at both arbitration stages,
  - ``"wrr"`` — weighted round-robin: grants are shared in proportion to
    :meth:`ArbitrationSpec.resolved_grant_weights`,
  - ``"proc"`` — processor-ordered (static priority by processor index,
    the FCFS-like discipline of arXiv 1004.3560).

* **burst tenure** — a granted request holds its bus (and its memory
  module) for ``L`` cycles, either a fixed integer or a geometric draw
  with mean ``L``.  ``L = 1`` degenerates to the paper's model exactly.

The analytic layer approximates both effects on top of the exact closed
forms (eqs. 1-12), which enter as a bandwidth-vs-bus-count *profile*:

* :func:`effective_bandwidth` — under mean tenure ``L``, a bandwidth of
  ``T`` grants/cycle keeps ``(L - 1) * T`` buses busy carrying old
  bursts, so the start rate solves the fixed point
  ``T = f(B - (L - 1) * T)`` on the (piecewise-linear interpolated)
  profile ``f``, solved exactly on the one linear segment of ``f``
  that holds it.  ``L = 1`` returns the profile value bit-identically.
* :func:`crossbar_tenure_bandwidth` — the crossbar has no bus
  contention, only module occupancy: a module requested with
  probability ``X`` and held for ``L`` cycles per service starts
  ``X / (1 + (L - 1) * X)`` transfers per cycle (renewal argument).
* :func:`monotone_class_split` / :func:`proportional_split` — per-class
  bandwidths under strict priority (classes ``1..c`` together behave
  like the base model thinned to their cumulative weight; per-class
  shares are the telescoping differences) and under the fair
  disciplines (shares proportional to the class mix).

:func:`repro.analysis.batch.priority_class_profile` wires these helpers
to the batched closed forms; the differential test wall pins the
degenerate configurations to the paper's tables bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "DISCIPLINES",
    "TENURE_DISTRIBUTIONS",
    "ArbitrationSpec",
    "validate_class_weights",
    "validate_tenure",
    "cumulative_weights",
    "interpolate_profile",
    "effective_bandwidth",
    "effective_bandwidths",
    "crossbar_tenure_bandwidth",
    "monotone_class_split",
    "proportional_split",
]

#: Arbitration disciplines the priority simulator and analytics accept.
DISCIPLINES = ("rr", "strict", "wrr", "proc")

#: Supported burst-length distributions.
TENURE_DISTRIBUTIONS = ("fixed", "geometric")

_WEIGHT_TOL = 1e-9


def validate_class_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """Normalize a criticality class mix into a canonical tuple.

    Weights must be positive finite numbers summing to one (within
    1e-9); class ``c`` is drawn with probability ``weights[c]`` and
    lower indices are *more* critical under ``"strict"``.
    """
    if isinstance(weights, (str, bytes)) or not isinstance(
        weights, Sequence
    ):
        raise ConfigurationError(
            f"class weights must be a sequence, got {weights!r}"
        )
    if not len(weights):
        raise ConfigurationError("need at least one criticality class")
    cleaned: list[float] = []
    for w in weights:
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ConfigurationError(
                f"class weights must be numbers, got {w!r}"
            )
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise ConfigurationError(
                f"class weights must be finite and positive, got {w!r}"
            )
        cleaned.append(w)
    total = math.fsum(cleaned)
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ConfigurationError(
            f"class weights must sum to 1, got {total!r}"
        )
    return tuple(cleaned)


def validate_tenure(
    tenure: float, distribution: str = "fixed"
) -> float:
    """Validate a mean burst length ``L >= 1``.

    ``"fixed"`` tenure must be an integer number of cycles (a transfer
    cannot release its bus mid-cycle); ``"geometric"`` accepts any real
    mean ``>= 1``.
    """
    if distribution not in TENURE_DISTRIBUTIONS:
        raise ConfigurationError(
            f"tenure distribution must be one of {TENURE_DISTRIBUTIONS}, "
            f"got {distribution!r}"
        )
    if isinstance(tenure, bool) or not isinstance(tenure, (int, float)):
        raise ConfigurationError(
            f"tenure must be a number, got {tenure!r}"
        )
    tenure = float(tenure)
    if not math.isfinite(tenure) or tenure < 1.0:
        raise ConfigurationError(
            f"tenure must be finite and >= 1 cycle, got {tenure!r}"
        )
    if distribution == "fixed" and tenure != int(tenure):
        raise ConfigurationError(
            f"fixed tenure must be a whole number of cycles, got {tenure!r}"
        )
    return tenure


@dataclasses.dataclass(frozen=True)
class ArbitrationSpec:
    """How requests contend: criticality mix, discipline and bus tenure.

    Attributes
    ----------
    discipline:
        One of :data:`DISCIPLINES`; class 0 is the most critical.
    class_weights:
        Probability of each criticality class per request; defaults to a
        single class (the paper's model).
    grant_weights:
        Weighted-round-robin service weights per class; ``None`` defaults
        to descending ``K, K-1, .., 1`` so lower class indices are
        favoured, mirroring ``"strict"`` softly.
    tenure:
        Mean burst length ``L`` in cycles; ``1.0`` is the paper's model.
    tenure_dist:
        ``"fixed"`` (every burst exactly ``L`` cycles) or ``"geometric"``
        (memoryless bursts with mean ``L``).
    """

    discipline: str = "rr"
    class_weights: tuple[float, ...] = (1.0,)
    grant_weights: tuple[float, ...] | None = None
    tenure: float = 1.0
    tenure_dist: str = "fixed"

    def __post_init__(self):
        if self.discipline not in DISCIPLINES:
            raise ConfigurationError(
                f"discipline must be one of {DISCIPLINES}, "
                f"got {self.discipline!r}"
            )
        object.__setattr__(
            self, "class_weights", validate_class_weights(self.class_weights)
        )
        object.__setattr__(
            self,
            "tenure",
            validate_tenure(self.tenure, self.tenure_dist),
        )
        if self.grant_weights is not None:
            if isinstance(self.grant_weights, (str, bytes)) or not isinstance(
                self.grant_weights, Sequence
            ):
                raise ConfigurationError(
                    f"grant weights must be a sequence, "
                    f"got {self.grant_weights!r}"
                )
            if len(self.grant_weights) != len(self.class_weights):
                raise ConfigurationError(
                    f"{len(self.grant_weights)} grant weights for "
                    f"{len(self.class_weights)} classes"
                )
            cleaned = []
            for w in self.grant_weights:
                if isinstance(w, bool) or not isinstance(w, (int, float)):
                    raise ConfigurationError(
                        f"grant weights must be numbers, got {w!r}"
                    )
                w = float(w)
                if not math.isfinite(w) or w <= 0.0:
                    raise ConfigurationError(
                        "grant weights must be finite and positive, "
                        f"got {w!r}"
                    )
                cleaned.append(w)
            object.__setattr__(self, "grant_weights", tuple(cleaned))

    @property
    def n_classes(self) -> int:
        """Number of criticality classes ``K``."""
        return len(self.class_weights)

    @property
    def is_degenerate(self) -> bool:
        """True when the spec reduces to the paper's model exactly.

        One class and unit tenure leave nothing for the discipline to
        decide: grant *counts* equal the baseline simulator's under any
        work-conserving ordering.
        """
        return self.n_classes == 1 and self.tenure == 1.0

    def resolved_grant_weights(self) -> tuple[float, ...]:
        """WRR service weights, defaulting to descending ``K .. 1``."""
        if self.grant_weights is not None:
            return self.grant_weights
        k = self.n_classes
        return tuple(float(k - c) for c in range(k))


def cumulative_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """Partial sums ``W_c = w_0 + .. + w_c`` with the last pinned to 1.

    The strict-priority analytics evaluate the base model thinned to
    each cumulative weight; pinning ``W_K = 1`` keeps the top cumulative
    class on the *unthinned* model so the telescoping split sums to the
    exact total.
    """
    weights = validate_class_weights(weights)
    cums = []
    running = 0.0
    for w in weights:
        running += w
        cums.append(min(running, 1.0))
    cums[-1] = 1.0
    return tuple(cums)


def _profile_points(
    values: Mapping[int, float],
) -> list[tuple[float, float]]:
    """Sorted ``(bus count, bandwidth)`` points anchored at ``(0, 0)``."""
    if not values:
        raise ConfigurationError(
            "cannot interpolate an empty bandwidth profile"
        )
    points = sorted((float(b), float(v)) for b, v in values.items())
    if points[0][0] > 0.0:
        points.insert(0, (0.0, 0.0))
    return points


def _interpolate_points(
    points: Sequence[tuple[float, float]], b: float
) -> float:
    if b <= points[0][0]:
        return points[0][1] if b == points[0][0] else 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if b == x1:
            return y1
        if b < x1:
            return y0 + (y1 - y0) * (b - x0) / (x1 - x0)
    return points[-1][1]


def interpolate_profile(
    values: Mapping[int, float], n_buses: float
) -> float:
    """Piecewise-linear bandwidth at a (possibly fractional) bus count.

    ``values`` maps feasible integer bus counts to closed-form
    bandwidths; the curve is anchored at ``(0, 0)`` (no buses, no
    transfers) and clamped flat beyond the largest profiled count.  An
    exact integer hit returns the profiled value bit-identically, which
    is what keeps the ``L = 1`` degenerate path on the golden numbers.
    """
    return _interpolate_points(_profile_points(values), float(n_buses))


def effective_bandwidth(
    values: Mapping[int, float], n_buses: int, tenure: float
) -> float:
    """Grant-start rate under mean tenure ``L`` on a bandwidth profile.

    With ``T`` grant starts per cycle each holding a bus for ``L``
    cycles, ``(L - 1) * T`` buses carry continuing bursts on average,
    leaving ``x = B - (L - 1) * T`` free for new grants; the start rate
    therefore solves ``T = f(x)`` where ``f`` is the closed-form
    bandwidth profile, interpolated as in :func:`interpolate_profile`.

    ``f`` is linear on each segment ``[x0, x1]`` between profiled
    counts (slope ``s``; the part past the largest count is a flat
    segment), so the fixed point is solved exactly per segment:
    ``T = (y0 + s * (B - x0)) / (1 + s * (L - 1))``.  Segments are
    walked down from ``x = B``, and the first whose root lands at
    ``x >= x0`` holds the answer; no point above ``B`` is ever read.
    For a nondecreasing ``f`` (every closed form) the fixed point is
    unique; otherwise this is the one with the smallest ``T``.
    ``L = 1`` short-circuits to ``f(B)`` exactly, and a profile that
    gives ``f(B) <= 0`` returns ``0.0``.
    """
    tenure = validate_tenure(tenure, "geometric")
    return _effective_on_points(_profile_points(values), n_buses, tenure)


def effective_bandwidths(
    values: Mapping[int, float], bus_counts: Sequence[int], tenure: float
) -> dict[int, float]:
    """:func:`effective_bandwidth` at each of ``bus_counts``.

    The profile's points are sorted once for every count, and each
    value is bit-identical to a separate :func:`effective_bandwidth`
    call.
    """
    tenure = validate_tenure(tenure, "geometric")
    points = _profile_points(values)
    return {b: _effective_on_points(points, b, tenure) for b in bus_counts}


def _effective_on_points(
    points: Sequence[tuple[float, float]], n_buses: int, tenure: float
) -> float:
    """Body of :func:`effective_bandwidth` on sorted profile points."""
    b = float(n_buses)
    cap = _interpolate_points(points, b)
    if tenure == 1.0:
        return cap
    if cap <= 0.0:
        return 0.0
    busy = tenure - 1.0
    # The segment holding x = B: the last one starting below B, which
    # is the flat tail when B lies past the largest profiled count.
    top = len(points) - 1
    while top > 0 and points[top][0] >= b:
        top -= 1
    for k in range(top, -1, -1):
        x0, y0 = points[k]
        if k + 1 < len(points):
            x1, y1 = points[k + 1]
            slope = (y1 - y0) / (x1 - x0)
        else:
            slope = 0.0
        denominator = 1.0 + slope * busy
        if denominator <= 0.0:
            # f falls here at least as fast as the free-bus line
            # T = (B - x) / (L - 1) rises, and it starts above it at
            # the segment's top, so the two cannot meet on it.
            continue
        t = (y0 + slope * (b - x0)) / denominator
        if b - busy * t >= x0:
            return t
    # f jumps up at its first point and is 0 below it: the fixed point
    # sits exactly on the jump.
    return (b - points[0][0]) / busy


def crossbar_tenure_bandwidth(
    module_probabilities: Sequence[float], tenure: float
) -> float:
    """Crossbar grant-start rate under mean tenure ``L``.

    The crossbar has no bus contention; tenure only blocks the module
    itself.  A module requested with per-cycle probability ``X`` and
    held ``L`` cycles per service completes one renewal per
    ``1/X + (L - 1)`` cycles of idle-waiting plus service, so it starts
    ``X / (1 + (L - 1) * X)`` transfers per cycle; the machine total is
    the sum over modules.  ``L = 1`` reduces to eq. (1)'s ``sum X_j``.
    """
    tenure = validate_tenure(tenure, "geometric")
    total = 0.0
    for x in module_probabilities:
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise ConfigurationError(
                f"module request probability outside [0, 1]: {x!r}"
            )
        total += x / (1.0 + (tenure - 1.0) * x)
    return total


def monotone_class_split(
    cumulative_values: Sequence[float], total: float
) -> tuple[float, ...]:
    """Per-class bandwidths from cumulative-class bandwidths.

    ``cumulative_values[c]`` is the bandwidth classes ``0..c`` achieve
    together (under strict priority, the system restricted to them);
    the last entry is replaced by the exact ``total`` so the telescoped
    differences sum to it bit-for-bit.  Clamps enforce monotonicity
    against interpolation noise, so every share is non-negative.
    """
    if not len(cumulative_values):
        raise ConfigurationError("need at least one cumulative value")
    clamped: list[float] = []
    running = 0.0
    for value in cumulative_values[:-1]:
        running = max(running, min(float(value), float(total)))
        clamped.append(running)
    clamped.append(float(total))
    shares = [clamped[0]]
    for previous, current in zip(clamped, clamped[1:]):
        shares.append(current - previous)
    return tuple(max(0.0, s) for s in shares)


def proportional_split(
    weights: Sequence[float], total: float
) -> tuple[float, ...]:
    """Per-class bandwidths under a class-blind (fair) discipline.

    Round-robin and processor-ordered arbitration ignore the class
    label, so each class's expected share is its traffic fraction.
    """
    weights = validate_class_weights(weights)
    return tuple(w * float(total) for w in weights)
