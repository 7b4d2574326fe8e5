"""E9 — analytic vs Monte-Carlo agreement for every connection scheme.

The paper's closed forms make one statistical shortcut: the number of
requested modules is treated as a Binomial(M, X) count — i.e. module
request events are assumed *independent* (eq. 3).  With processors
issuing at most one request each, the true events are negatively
correlated, so the formulas are approximations of the processor-driven
system (exact only when bus contention vanishes, e.g. ``B >= M``).

This experiment therefore validates in two modes:

* ``independence`` — a synthetic workload in which each module is
  requested independently with probability X (the identity fraction
  matrix at rate X).  Here the formulas are *exact*, so simulation must
  agree within its confidence interval: this validates the arbitration
  substrate and eqs. (4), (6), (9), (12) end to end.
* ``processor`` — the paper's actual processor-driven workload.  The
  measured gap *is* the binomial-independence approximation error, which
  this experiment quantifies (about 1-2% at the paper's sizes, shrinking
  to zero as B approaches M).

Each (config, mode) cell simulates under its own
:class:`~numpy.random.SeedSequence` child spawned by cell index from the
experiment seed, so results are bit-identical whether cells run serially
or across ``n_workers`` fabric processes.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.evaluate import analytic_bandwidth
from repro.analysis.parallel import parallel_map
from repro.analysis.sweep import paper_model_pair
from repro.analysis.tables import render_table
from repro.core.request_models import MatrixRequestModel
from repro.experiments.base import ExperimentResult
from repro.simulation.engine import MultiprocessorSimulator
from repro.simulation.seeds import spawn_seeds
from repro.topology.factory import build_network

__all__ = ["run", "independence_workload", "validation_cells"]

_CONFIGS = (
    ("full", 8, 4, {}),
    ("full", 16, 8, {}),
    ("single", 16, 4, {}),
    ("partial", 16, 4, {"n_groups": 2}),
    ("kclass", 16, 4, {}),
    ("crossbar", 8, 8, {}),
)

_MODES = ("independence", "processor")


def independence_workload(
    n_memories: int, request_probability: float
) -> MatrixRequestModel:
    """A workload whose modules are requested independently w.p. ``X``.

    Processor ``j`` requests only module ``j`` and does so with
    probability ``X`` per cycle (identity fraction matrix, rate = X) —
    the exact stochastic regime assumed by eq. (3).
    """
    return MatrixRequestModel(
        np.eye(n_memories), rate=request_probability
    )


def _validation_cell(spec: dict) -> dict[str, object]:
    """Worker: simulate one (config, mode) cell (module-level, picklable)."""
    scheme, n, b, kwargs = spec["config"]
    network = build_network(scheme, n, n, b, **kwargs)
    hier = paper_model_pair(n, 1.0)["hier"]
    analytic = analytic_bandwidth(network, hier)
    if spec["mode"] == "independence":
        model = independence_workload(n, hier.symmetric_module_probability())
    else:
        model = hier
    simulator = MultiprocessorSimulator(
        network, model, seed=spec["seed"], backend=spec["backend"]
    )
    # The record reads only the bandwidth and its interval: skip
    # arbitration (bit-identical counts, see ``run_vectorized``).
    result = simulator.run(spec["n_cycles"], views=False)
    record: dict[str, object] = {
        "scheme": scheme,
        "N": n,
        "B": b,
        "mode": spec["mode"],
        "analytic": round(analytic, 4),
        "simulated": round(result.bandwidth, 4),
        "ci95": round(result.bandwidth_ci95, 4),
    }
    if spec["mode"] == "independence":
        record["agrees"] = result.agrees_with(analytic, slack=0.01)
    else:
        gap = result.bandwidth - analytic
        record["approx_error"] = round(gap, 4)
        record["rel_error"] = round(gap / analytic, 4)
    return record


def validation_cells(
    n_cycles: int = 40_000, seed: int = 2024, backend: str = "auto"
) -> list[dict]:
    """The per-cell work specs of E9, seeds attached, config-outer order.

    A pure function of its arguments (per-cell seeds are spawned by
    cell index), so the serial loop and the distributed fabric compute
    bit-identical records from equal specs.
    """
    cells = [
        {"config": config, "mode": mode, "n_cycles": n_cycles,
         "backend": backend}
        for config in _CONFIGS
        for mode in _MODES
    ]
    for cell, cell_seed in zip(cells, spawn_seeds(seed, len(cells))):
        cell["seed"] = cell_seed
    return cells


def run(
    n_cycles: int = 40_000,
    seed: int = 2024,
    n_workers: int | None = None,
    backend: str = "auto",
) -> ExperimentResult:
    """Run both validation modes over representative configurations.

    ``n_workers > 1`` dispatches the cells across that many fabric
    worker *processes* (heartbeats, crash re-sharding —
    see :mod:`repro.fabric`) instead of the in-process loop; records
    are bit-identical either way.
    """
    if n_workers is not None and n_workers > 1:
        from repro.fabric.coordinator import FabricConfig, FabricCoordinator
        from repro.fabric.jobs import FabricJob

        job = FabricJob(
            kind="validation",
            params={"n_cycles": n_cycles, "seed": seed, "backend": backend},
        )
        records = FabricCoordinator(
            job, FabricConfig(n_workers=n_workers)
        ).run().records
    else:
        cells = validation_cells(
            n_cycles=n_cycles, seed=seed, backend=backend
        )
        records = parallel_map(_validation_cell, cells)

    rendered = render_table(
        records,
        title=(
            "Analytic vs Monte-Carlo bandwidth (hier model, r = 1.0); "
            "'independence' mode must agree, 'processor' mode shows the "
            "binomial approximation error"
        ),
    )
    return ExperimentResult(
        experiment_id="validation",
        title="E9: simulation validation of eqs. (4), (6), (9), (12)",
        records=records,
        rendered=rendered,
        comparisons=[],
    )
