"""Fault tolerance: verified degrees and degraded-mode bandwidth.

Quantifies what Table I states qualitatively:

* verifies each scheme's degree of fault tolerance by exhaustive
  failure enumeration,
* plots (as text) bandwidth retention as buses fail,
* demonstrates the K-class network's *graded* tolerance — the paper's
  selling point: critical data in high classes survives more failures.

Run:  python examples/fault_tolerance.py
"""

from repro.analysis.tables import render_table
from repro.core.hierarchy import paper_two_level_model
from repro.faults.analysis import (
    degradation_curve,
    verify_fault_tolerance_degree,
)
from repro.faults.injection import fail_buses
from repro.topology.factory import build_network
from repro.topology.kclass import KClassPartialBusNetwork

N, B = 16, 8


def main() -> None:
    model = paper_two_level_model(N, rate=1.0)

    # --- 1. Verify Table I's fault-tolerance column --------------------
    rows = []
    for scheme in ("full", "partial", "kclass", "single"):
        network = build_network(scheme, N, N, B)
        rows.append(
            {
                "scheme": scheme,
                "verified degree": verify_fault_tolerance_degree(network),
            }
        )
    print(render_table(
        rows, title=f"Exhaustively verified fault tolerance (N={N}, B={B})"
    ))

    # --- 2. Bandwidth retention curves ---------------------------------
    print()
    curve_rows = []
    for scheme in ("full", "partial", "single"):
        network = build_network(scheme, N, N, B)
        for point in degradation_curve(network, model, max_failures=4):
            curve_rows.append(
                {
                    "scheme": scheme,
                    "failed": point.n_failed,
                    "mean MBW": round(point.mean, 2),
                    "worst MBW": round(point.worst, 2),
                    "modules reachable": f"{point.accessible_fraction:.0%}",
                }
            )
    print(render_table(
        curve_rows,
        title="Degraded-mode bandwidth (closed forms, hier model r = 1.0)",
    ))

    # --- 3. Graded tolerance of the K-class design ---------------------
    print()
    network = KClassPartialBusNetwork(N, N, B, class_sizes=[4, 4, 4, 4])
    print(
        f"K-class network, K=4, B={B}: class C_j reaches buses 1..(j+4), "
        "so class C_1 owns 5 buses and C_4 all 8."
    )
    grade_rows = []
    for n_failed in (1, 3, 5, 6, 7):
        failures = set(range(n_failed))  # low buses die first: worst case
        degraded = fail_buses(network, failures)
        reachable = degraded.accessible_memories()
        per_class = [
            f"C{j}:{int(reachable[network.modules_of_class(j)].sum())}/4"
            for j in range(1, 5)
        ]
        grade_rows.append(
            {
                "failed buses": f"0..{n_failed - 1}",
                "reachable modules by class": "  ".join(per_class),
            }
        )
    print(render_table(
        grade_rows,
        title="Graded degradation under worst-case (low-bus-first) failures",
    ))

    print(
        "\nClasses die in order: C_1 after 5 failures, C_2 after 6, C_3 "
        "after 7, while C_4 survives anything short of total loss. A "
        "partial bus network with g groups gives every module the same "
        "B/g - 1 tolerance; the K-class design lets the architect grade "
        "it per data criticality — the flexibility the paper claims."
    )


if __name__ == "__main__":
    main()
