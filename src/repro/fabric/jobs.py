"""JSON-safe fabric job descriptions and their grid/cell builders.

A :class:`FabricJob` is a kind plus plain-JSON parameters, and the one
description of a simulated grid.  :func:`build_job` turns it into a
:class:`JobPlan`, which runs either in process
(:meth:`JobPlan.run_in_process`) or on workers: the coordinator builds
the plan once and its forked workers inherit it.  The builders are pure
functions of their parameters, including the per-cell
:class:`~numpy.random.SeedSequence` spawning, so a cell's record does
not depend on which process evaluates it.  Shards are addressed as
:class:`~repro.fabric.gridslice.GridSlice` strings over the job's grid:
a WORK frame carries ``"r=0.25-0.5,B=2-8/2"``, not pickled cell
objects, which keeps frames tiny and makes shard maps diffable.

Job kinds:

* ``sweep`` — the Monte-Carlo bandwidth grid of
  :func:`repro.analysis.parallel.sweep_cell_specs` (``repro-fabric``):
  axes ``(r, B, model)``, cells evaluated by ``_simulated_cell``.
* ``validation`` — experiment E9's (config, mode) grid, evaluated by
  ``_validation_cell``.
* ``resubmission`` — experiment E12's one-axis grid over ``r``,
  evaluated by ``_resubmission_cell``.

``repro-experiments validation resubmission`` builds the last two and
runs them in process, or on ``--workers N`` fabric processes.

Structurally invalid sweep cells (the paper tables' blank entries) are
simply absent from the job's cell map, so the full work slice is the
set of *valid* cells — exactly the records :meth:`JobPlan.run_in_process`
returns.
"""

from __future__ import annotations

import dataclasses
import os
import signal
from collections.abc import Callable
from pathlib import Path

from repro.analysis.sweep import paper_model_pair
from repro.exceptions import ConfigurationError
from repro.fabric.gridslice import Grid

__all__ = ["FabricJob", "JobPlan", "build_job"]


@dataclasses.dataclass(frozen=True)
class FabricJob:
    """One shardable workload: a kind plus JSON-safe parameters."""

    kind: str
    params: dict


@dataclasses.dataclass
class JobPlan:
    """A built job: the grid, the cell map, and how to evaluate a cell.

    ``cells`` maps flat grid indices to evaluation specs.  ``evaluate``
    receives the spec itself: no evaluator changes a spec (per-cell
    seeds are derived without mutating their SeedSequence), so a retry
    sees the spec as built.  ``cache_params`` maps a spec to its JSON-safe
    :class:`~repro.analysis.parallel.ResultCache` identity, or ``None``
    when the kind has no disk-cache story.
    """

    grid: Grid
    cells: dict[int, dict]
    evaluate: Callable[[dict], dict]
    cache_params: Callable[[dict], dict] | None = None

    def run_cell(self, index: int) -> dict:
        """Evaluate one cell by grid index."""
        return self.evaluate(self.cells[index])

    def run_in_process(self) -> list[dict]:
        """Evaluate every cell here, in grid order: the fabric's records."""
        return [self.run_cell(index) for index in sorted(self.cells)]


def _chaos_wrap(evaluate: Callable, kill_marker: str) -> Callable:
    """Chaos-testing hook: whoever claims the marker file SIGKILLs itself.

    The marker is claimed by unlink (atomic — exactly one process
    dies), *before* any work, so the killed cell is retried from
    scratch elsewhere and stays bit-identical.
    """

    def chaotic(spec: dict) -> dict:
        marker = Path(kill_marker)
        try:
            marker.unlink()
        except FileNotFoundError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
        return evaluate(spec)

    return chaotic


def _poison_wrap(evaluate: Callable, poison_marker: str) -> Callable:
    """Chaos hook for the soft-failure path: claim the marker, raise once."""

    def poisoned(spec: dict) -> dict:
        marker = Path(poison_marker)
        try:
            marker.unlink()
        except FileNotFoundError:
            pass
        else:
            raise OSError("transient fabric cell failure (poison marker)")
        return evaluate(spec)

    return poisoned


def _apply_chaos(params: dict, evaluate: Callable) -> Callable:
    if params.get("kill_marker"):
        evaluate = _chaos_wrap(evaluate, str(params["kill_marker"]))
    if params.get("poison_marker"):
        evaluate = _poison_wrap(evaluate, str(params["poison_marker"]))
    return evaluate


def _require_sorted(name: str, values: list) -> None:
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(
            f"fabric sweep {name} must be strictly increasing, got {values!r}"
        )


def _build_sweep(params: dict) -> JobPlan:
    from repro.analysis.parallel import (
        _simulated_cell,
        _simulated_cell_params,
        sweep_cell_specs,
    )

    try:
        scheme = params["scheme"]
        n_processors = int(params["N"])
        bus_counts = [int(b) for b in params["bus_counts"]]
        rates = [float(r) for r in params["rates"]]
    except KeyError as exc:
        raise ConfigurationError(
            f"sweep job missing required parameter {exc.args[0]!r}"
        ) from None
    n_cycles = int(params.get("n_cycles", 20_000))
    if n_processors < 1 or n_cycles < 1:
        raise ConfigurationError(
            f"sweep job needs N >= 1 and n_cycles >= 1, got N={n_processors}, "
            f"n_cycles={n_cycles}"
        )
    _require_sorted("bus_counts", bus_counts)
    _require_sorted("rates", rates)

    specs = sweep_cell_specs(
        scheme,
        n_processors,
        bus_counts=bus_counts,
        rates=rates,
        n_cycles=n_cycles,
        seed=params.get("seed", 0),
        **params.get("network_kwargs", {}),
    )
    model_names = tuple(paper_model_pair(n_processors, rates[0]))
    grid = Grid(
        (
            ("r", tuple(rates)),
            ("B", tuple(bus_counts)),
            ("model", model_names),
        )
    )
    rate_pos = {rate: i for i, rate in enumerate(rates)}
    bus_pos = {bus: i for i, bus in enumerate(bus_counts)}
    name_pos = {name: i for i, name in enumerate(model_names)}
    n_buses, n_models = len(bus_counts), len(model_names)
    cells = {
        (rate_pos[spec["r"]] * n_buses + bus_pos[spec["B"]]) * n_models
        + name_pos[spec["model_name"]]: spec
        for spec in specs
    }
    return JobPlan(
        grid=grid,
        cells=cells,
        evaluate=_apply_chaos(params, _simulated_cell),
        cache_params=_simulated_cell_params,
    )


def _build_validation(params: dict) -> JobPlan:
    from repro.experiments.validation import (
        _CONFIGS,
        _MODES,
        _validation_cell,
        validation_cells,
    )

    specs = validation_cells(
        n_cycles=int(params.get("n_cycles", 40_000)),
        seed=int(params.get("seed", 2024)),
    )
    grid = Grid(
        (
            ("config", tuple(range(len(_CONFIGS)))),
            ("mode", tuple(_MODES)),
        )
    )
    # validation_cells enumerates config-outer, mode-inner: row-major.
    cells = dict(enumerate(specs))
    return JobPlan(
        grid=grid,
        cells=cells,
        evaluate=_apply_chaos(params, _validation_cell),
    )


def _build_resubmission(params: dict) -> JobPlan:
    from repro.experiments.resubmission import (
        _RATES,
        _resubmission_cell,
        resubmission_cells,
    )

    specs = resubmission_cells(
        n_processors=int(params.get("N", 16)),
        n_buses=int(params.get("B", 4)),
        n_cycles=int(params.get("n_cycles", 15_000)),
        seed=int(params.get("seed", 5)),
    )
    return JobPlan(
        grid=Grid((("r", _RATES),)),
        cells=dict(enumerate(specs)),
        evaluate=_apply_chaos(params, _resubmission_cell),
    )


_BUILDERS = {
    "sweep": _build_sweep,
    "validation": _build_validation,
    "resubmission": _build_resubmission,
}


def build_job(job: FabricJob) -> JobPlan:
    """Build the grid and cell map of ``job``; pure in ``job``.

    The coordinator and every worker each call this on the same wire
    description, so cell specs (and their spawned per-cell seeds) agree
    everywhere without ever serializing a spec.
    """
    try:
        builder = _BUILDERS[job.kind]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise ConfigurationError(
            f"unknown fabric job kind {job.kind!r}; known: {known}"
        ) from None
    return builder(job.params)
