"""E15 — criticality-aware arbitration: discipline x scheme x class mix.

The paper's arbiters are uniform round-robin (assumption 4) and a grant
occupies its bus for exactly one memory cycle.  This experiment crosses
every connection scheme with the four arbitration disciplines of
:mod:`repro.core.priority` — the paper's class-blind round-robin
(``rr``), strict priority, weighted round-robin, and the static
processor-ordered discipline in the spirit of the FCFS-vs-priority
comparison of arXiv 1004.3560 — under a two-class criticality mix and a
multi-cycle burst tenure, reporting per-class simulated bandwidth
alongside the analytic split of
:func:`repro.analysis.batch.priority_class_profile`, plus the per-class
acceptance, mean bus tenure, and starvation counters only the simulator
can see.

Structural experiment: the paper prints no priority numbers, so there
is nothing to compare against (``comparisons`` is empty).  The
degenerate configuration (one class, unit tenure) is pinned to the
paper's golden tables by ``tests/arbitration/test_priority_differential``
instead.
"""

from __future__ import annotations

from repro.analysis.batch import priority_class_profile
from repro.analysis.tables import render_table
from repro.core.priority import DISCIPLINES, ArbitrationSpec
from repro.core.request_models import UniformRequestModel
from repro.experiments.base import ExperimentResult
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.factory import build_network

__all__ = ["run"]

_SCHEMES = ("crossbar", "full", "partial", "single", "kclass")


def run(
    n: int = 8,
    b: int = 4,
    rate: float = 1.0,
    class_weights: tuple[float, ...] = (0.25, 0.75),
    tenure: float = 2.0,
    n_cycles: int = 2_000,
    seed: int = 0,
) -> ExperimentResult:
    """Per-class bandwidth under every discipline for an ``N x N`` system.

    Class 0 (weight ``class_weights[0]``) is the most critical; every
    grant holds its bus for ``tenure`` cycles.  ``analytic`` is the
    approximation-layer split (strict-priority thinning, proportional
    otherwise); ``sim`` is the exact per-class Monte-Carlo bandwidth.
    """
    records: list[dict[str, object]] = []
    model = UniformRequestModel(n, n, rate=rate)
    for scheme in _SCHEMES:
        network = build_network(scheme, n, n, b)
        for discipline in DISCIPLINES:
            spec = ArbitrationSpec(
                discipline=discipline,
                class_weights=class_weights,
                tenure=tenure,
            )
            result = MultiprocessorSimulator(
                network, model, seed=seed, spec=spec
            ).run(n_cycles)
            analytic = priority_class_profile(
                scheme,
                n,
                n,
                network.n_buses,
                model,
                discipline=discipline,
                class_weights=class_weights,
                tenure=tenure,
            )
            for cls in range(spec.n_classes):
                records.append(
                    {
                        "scheme": scheme,
                        "discipline": discipline,
                        "class": cls,
                        "weight": class_weights[cls],
                        "sim": result.per_class_bandwidth[cls],
                        "analytic": analytic.per_class[cls],
                        "acceptance": result.per_class_acceptance[cls],
                        "tenure": result.per_class_mean_grant_latency[cls],
                        "starved": result.per_class_starved_cycles[cls],
                    }
                )
    rendered = render_table(
        records,
        title=(
            f"Per-class bandwidth by arbitration discipline (N = M = {n}, "
            f"B = {b}, r = {rate}, classes = {list(class_weights)}, "
            f"L = {tenure}; class 0 most critical, {n_cycles} cycles)"
        ),
    )
    return ExperimentResult(
        experiment_id="arbitration",
        title=(
            "E15: criticality-aware arbitration and burst tenure across "
            "schemes"
        ),
        records=records,
        rendered=rendered,
        comparisons=[],
    )
