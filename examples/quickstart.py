"""Quickstart: analyze a multiple bus multiprocessor in a few lines.

Builds the paper's standard machine (N = 16 processors/modules, B = 8
buses), evaluates every bus-memory connection scheme under both the
hierarchical and the uniform requesting model, and cross-checks one
closed form against the cycle-level simulator.

Run:  python examples/quickstart.py
"""

from repro.analysis.compare import compare_schemes
from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.tables import render_table
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import UniformRequestModel
from repro.simulation.engine import simulate_bandwidth
from repro.topology.cost import cost_report
from repro.topology.full import FullBusMemoryNetwork


def main() -> None:
    n_processors, n_buses = 16, 8

    # --- 1. The two request models of the paper's Section IV ----------
    hier = paper_two_level_model(n_processors, rate=1.0)
    unif = UniformRequestModel(n_processors, n_processors, rate=1.0)
    print("Two-level hierarchical model:", hier)
    print(f"Per-module request probability X: hier="
          f"{hier.symmetric_module_probability():.4f}, "
          f"unif={unif.symmetric_module_probability():.4f}\n")

    # --- 2. Closed-form bandwidth of one network ----------------------
    network = FullBusMemoryNetwork(n_processors, n_processors, n_buses)
    mbw = analytic_bandwidth(network, hier)
    print(f"Full connection {n_processors}x{n_processors}x{n_buses}: "
          f"analytic MBW = {mbw:.3f} requests/cycle (paper Table II: 7.99)")

    # --- 3. Monte-Carlo cross-check ------------------------------------
    result = simulate_bandwidth(network, hier, n_cycles=20_000, seed=42)
    print(f"Simulated: {result.summary()}\n")

    # --- 4. Cost (Table I view) ----------------------------------------
    report = cost_report(network)
    print(f"Cost: {report.connections} connections, max bus load "
          f"{report.max_bus_load}, tolerates {report.degree_of_fault_tolerance}"
          " bus failures\n")

    # --- 5. Every scheme side by side ----------------------------------
    rows = [c.as_row() for c in compare_schemes(n_processors, n_buses, hier)]
    print(render_table(
        rows,
        title=f"All schemes at N={n_processors}, B={n_buses} "
              "(hierarchical model, r = 1.0)",
    ))


if __name__ == "__main__":
    main()
