"""E12 — blocked-request resubmission vs the paper's drop model.

The paper's assumption 5 drops blocked requests; the Markov-model
literature it cites ([11]-[13]) holds and retries them.  This experiment
quantifies the difference on the paper's standard machine: for a sweep
of nominal request rates it reports the drop-model bandwidth (the
paper's eq. 4), the rate-adjusted analytic resubmission prediction, and
the event-level resubmission simulation — including the effective
submission rate and queueing delay the drop model cannot express.

Each rate simulates under its own :class:`~numpy.random.SeedSequence`
child spawned by sweep index from the experiment seed, so the records
are identical in process and across any number of fabric workers.
"""

from __future__ import annotations

from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.tables import render_table
from repro.core.hierarchy import paper_two_level_model
from repro.core.resubmission import solve_resubmission_equilibrium
from repro.experiments.base import ExperimentResult
from repro.fabric.jobs import FabricJob, build_job
from repro.simulation.resubmission import ResubmissionSimulator
from repro.simulation.seeds import spawn_seeds
from repro.topology.factory import build_network

__all__ = ["run", "resubmission_cells"]

_RATES = (0.2, 0.4, 0.6, 0.8, 1.0)


def _resubmission_cell(spec: dict) -> dict[str, object]:
    """Simulate one rate of the sweep."""
    network = build_network(
        "full", spec["N"], spec["N"], spec["B"]
    )
    model = paper_two_level_model(spec["N"], rate=spec["r"])
    drop = analytic_bandwidth(network, model)
    equilibrium = solve_resubmission_equilibrium(
        model, lambda m: analytic_bandwidth(network, m)
    )
    simulated = ResubmissionSimulator(network, model, seed=spec["seed"]).run(
        spec["n_cycles"]
    )
    return {
        "r": spec["r"],
        "drop MBW (paper)": round(drop, 3),
        "resub MBW analytic": round(equilibrium.bandwidth, 3),
        "resub MBW simulated": round(simulated.bandwidth, 3),
        "alpha analytic": round(equilibrium.effective_rate, 3),
        "alpha simulated": round(simulated.effective_rate, 3),
        "wait analytic": round(equilibrium.mean_wait_cycles, 2),
        "wait simulated": round(simulated.mean_wait_cycles, 2),
    }


def resubmission_cells(
    n_processors: int = 16,
    n_buses: int = 4,
    n_cycles: int = 15_000,
    seed: int = 5,
) -> list[dict]:
    """The per-rate work specs of E12, seeds attached, in ``_RATES`` order."""
    cells = [
        {"N": n_processors, "B": n_buses, "r": rate, "n_cycles": n_cycles}
        for rate in _RATES
    ]
    for cell, cell_seed in zip(cells, spawn_seeds(seed, len(cells))):
        cell["seed"] = cell_seed
    return cells


def run(
    n_processors: int = 16,
    n_buses: int = 4,
    n_cycles: int = 15_000,
    seed: int = 5,
    n_workers: int | None = None,
) -> ExperimentResult:
    """Sweep nominal rates on a full connection network.

    ``n_workers > 1`` runs the built fabric job across that many worker
    processes; records are bit-identical to its in-process run.
    """
    job = FabricJob(
        kind="resubmission",
        params={
            "N": n_processors, "B": n_buses, "n_cycles": n_cycles,
            "seed": seed,
        },
    )
    if n_workers is not None and n_workers > 1:
        from repro.fabric.coordinator import FabricConfig, FabricCoordinator

        records = FabricCoordinator(
            job, FabricConfig(n_workers=n_workers)
        ).run().records
    else:
        records = build_job(job).run_in_process()
    rendered = render_table(
        records,
        title=(
            f"Drop model vs resubmission on a {n_processors}x"
            f"{n_processors}x{n_buses} full connection network "
            "(hierarchical model; alpha = effective submission rate, "
            "wait in cycles)"
        ),
    )
    return ExperimentResult(
        experiment_id="resubmission",
        title="E12: relaxing assumption 5 — blocked-request resubmission",
        records=records,
        rendered=rendered,
        comparisons=[],
    )
