"""Model accuracy: four answers to "what is the bandwidth?".

For one machine this example compares every estimator the library
offers, from cheapest to most faithful:

1. the paper's closed form (eq. 4) — binomial independence shortcut,
2. exact subset enumeration — same assumptions, no shortcut,
3. Monte-Carlo simulation of the drop model — should match (2),
4. resubmission analysis + simulation — real processors retry blocked
   requests, which the first three ignore.

Run:  python examples/model_accuracy.py
"""

from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.tables import render_table
from repro.core.exact import exact_bandwidth
from repro.core.hierarchy import paper_two_level_model
from repro.core.resubmission import solve_resubmission_equilibrium
from repro.simulation.engine import simulate_bandwidth
from repro.simulation.resubmission import ResubmissionSimulator
from repro.topology.full import FullBusMemoryNetwork

N, B = 12, 6


def main() -> None:
    network = FullBusMemoryNetwork(N, N, B)
    rows = []
    for rate in (0.3, 0.6, 1.0):
        model = paper_two_level_model(N, rate=rate)
        eq4 = analytic_bandwidth(network, model)
        exact = exact_bandwidth(network, model)
        sim = simulate_bandwidth(network, model, n_cycles=30_000, seed=8)
        resub_eq = solve_resubmission_equilibrium(
            model, lambda m: analytic_bandwidth(network, m)
        )
        resub_sim = ResubmissionSimulator(network, model, seed=8).run(20_000)
        rows.append(
            {
                "r": rate,
                "eq.(4)": round(eq4, 3),
                "exact": round(exact, 3),
                "sim (drop)": round(sim.bandwidth, 3),
                "resub analytic": round(resub_eq.bandwidth, 3),
                "resub sim": round(resub_sim.bandwidth, 3),
                "resub wait": round(resub_sim.mean_wait_cycles, 2),
            }
        )
    print(render_table(
        rows,
        title=(
            f"Bandwidth of a {N}x{N}x{B} full connection network, "
            "hierarchical model — five estimators"
        ),
    ))
    print(
        "\nReading guide: eq.(4) slightly undershoots 'exact' (the "
        "binomial independence approximation); the drop-model simulation "
        "lands on 'exact' within noise; resubmission raises throughput "
        "toward saturation at lower nominal rates, at the price of the "
        "queueing delay shown in the last column — the dimension the "
        "paper's drop model cannot express."
    )


if __name__ == "__main__":
    main()
