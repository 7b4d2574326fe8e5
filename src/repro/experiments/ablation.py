"""E10 — ablations on the paper's design choices.

Three studies the paper motivates but never quantifies:

* **Class placement** (the paper's second design principle): in a K-class
  network, frequently-referenced modules should sit in higher classes
  (more buses).  We build a skewed workload (Das-Bhuyan favourites
  concentrated on half the modules) and compare hot-modules-high vs
  hot-modules-low placements with the per-class generalization of
  eq. (11).
* **Fault-tolerance frontier** (the first design principle): bandwidth
  retained as buses fail, per scheme, at equal (N, B) — making Table I's
  degree column quantitative.
* **Arbitration efficiency**: the two-step K-class procedure wastes a
  bus when a module loses step two while another bus idles; comparing
  against the optimal matching arbiter bounds that loss.
"""

from __future__ import annotations

from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.sweep import paper_model_pair
from repro.analysis.tables import render_table
from repro.arbitration.bus_arbiter import MatchingBusAssignment
from repro.core.request_models import FavoriteMemoryRequestModel
from repro.experiments.base import ExperimentResult
from repro.faults.analysis import degradation_curve
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.factory import build_network
from repro.topology.kclass import KClassPartialBusNetwork

__all__ = ["run", "class_placement_study", "skewed_workload"]


def skewed_workload(
    n_processors: int = 16,
    hot_modules: int = 8,
    favorite_fraction: float = 0.7,
    rate: float = 1.0,
) -> FavoriteMemoryRequestModel:
    """A workload concentrating favourites on the first ``hot_modules``.

    Processor ``i``'s favourite is module ``i % hot_modules``, so the
    first ``hot_modules`` modules carry the favourite traffic and the
    rest only background traffic — per-module request probabilities are
    uniform within the hot and cold sets.
    """
    favorites = [i % hot_modules for i in range(n_processors)]
    return FavoriteMemoryRequestModel(
        n_processors,
        n_processors,
        favorite_fraction=favorite_fraction,
        rate=rate,
        favorites=favorites,
    )


def class_placement_study(
    n_processors: int = 16, n_buses: int = 4
) -> list[dict[str, object]]:
    """Compare hot-high vs hot-low module placement in a K-class network.

    Classes are K = B equal classes.  ``hot_high`` puts the hot half of
    the modules into the top classes (paper's recommendation),
    ``hot_low`` inverts it.  Returns one record per placement.
    """
    model = skewed_workload(n_processors)
    n = n_processors
    hot = n // 2
    per_class = n // n_buses
    # hot_high: cold modules fill classes 1..K/2, hot modules K/2+1..K.
    order_high = list(range(hot, n)) + list(range(hot))
    # hot_low: hot modules fill the bottom classes.
    order_low = list(range(hot)) + list(range(hot, n))
    records = []
    for name, order in (("hot_high", order_high), ("hot_low", order_low)):
        class_of_module = [0] * n
        for position, module in enumerate(order):
            class_of_module[module] = position // per_class + 1
        network = KClassPartialBusNetwork(
            n, n, n_buses,
            class_sizes=[per_class] * n_buses,
            class_of_module=class_of_module,
        )
        records.append(
            {
                "placement": name,
                "N": n,
                "B": n_buses,
                "K": n_buses,
                "bandwidth": round(analytic_bandwidth(network, model), 4),
            }
        )
    return records


def _arbitration_gap(
    n: int, b: int, n_cycles: int, seed: int
) -> dict[str, object]:
    """Two-step procedure vs optimal matching on the same K-class net."""
    network = build_network("kclass", n, n, b)
    model = paper_model_pair(n, 1.0)["hier"]
    paper_policy = MultiprocessorSimulator(network, model, seed=seed)
    matched = MultiprocessorSimulator(
        network,
        model,
        policy=MatchingBusAssignment(network.memory_bus_matrix()),
        seed=seed,
    )
    two_step = paper_policy.run(n_cycles).bandwidth
    optimal = matched.run(n_cycles).bandwidth
    return {
        "N": n,
        "B": b,
        "two_step": round(two_step, 4),
        "optimal_matching": round(optimal, 4),
        "loss": round(optimal - two_step, 4),
        "rel_loss": round((optimal - two_step) / optimal, 4),
    }


def run(n_cycles: int = 20_000, seed: int = 11) -> ExperimentResult:
    """Run all three ablations and bundle their tables."""
    placement = class_placement_study()

    frontier: list[dict[str, object]] = []
    n, b = 16, 8
    model = paper_model_pair(n, 1.0)["hier"]
    for scheme, kwargs in (
        ("full", {}),
        ("partial", {"n_groups": 2}),
        ("single", {}),
    ):
        network = build_network(scheme, n, n, b, **kwargs)
        for point in degradation_curve(network, model, max_failures=b - 1):
            frontier.append(
                {
                    "scheme": scheme,
                    "failed_buses": point.n_failed,
                    "mean_MBW": round(point.mean, 3),
                    "worst_MBW": round(point.worst, 3),
                    "accessible": round(point.accessible_fraction, 3),
                }
            )

    arbitration = [
        _arbitration_gap(16, 4, n_cycles, seed),
        _arbitration_gap(16, 8, n_cycles, seed + 1),
    ]

    rendered = "\n\n".join(
        [
            render_table(
                placement,
                title=(
                    "Class placement ablation (skewed workload): hot "
                    "modules in high vs low classes"
                ),
            ),
            render_table(
                frontier,
                title=(
                    f"Degraded-mode bandwidth (N={n}, B={b}, hier r=1.0), "
                    "mean/worst over failure placements"
                ),
            ),
            render_table(
                arbitration,
                title=(
                    "K-class two-step procedure vs optimal matching "
                    "(simulated, hier r=1.0)"
                ),
            ),
        ]
    )
    records = (
        [{"study": "placement", **r} for r in placement]
        + [{"study": "frontier", **r} for r in frontier]
        + [{"study": "arbitration", **r} for r in arbitration]
    )
    return ExperimentResult(
        experiment_id="ablation",
        title="E10: design-principle ablations",
        records=records,
        rendered=rendered,
        comparisons=[],
    )
