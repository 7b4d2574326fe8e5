"""Command-line entry point: ``repro-experiments [ids... | all]``.

Prints each experiment's rendered table and its reproduction verdict,
and exits non-zero if any compared cell misses the paper's printed value
— so the whole reproduction doubles as a shell-level check.

:data:`EXPERIMENTS` maps each experiment id to its ``run`` function and
:func:`run_experiment` runs one by id.

With ``--telemetry PATH`` every experiment runs under a fresh telemetry
registry and writes three artifacts to ``PATH/<experiment_id>/``:

* ``manifest.json`` — diffable run manifest (cache hit rate, backend
  selection and auto-fallbacks, RNG streams, skipped sweep cells,
  per-phase span timings);
* ``events.jsonl`` — the ordered event log, one JSON object per line;
* ``metrics.prom`` — a Prometheus-style text dump of every counter,
  gauge and timing histogram.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.exceptions import ExperimentError
from repro.experiments import (
    ablation,
    approximation,
    arbitration,
    availability,
    claims,
    figures,
    nxm,
    resubmission,
    structures,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    validation,
)
from repro.experiments.base import ExperimentResult
from repro.obs.exporters import write_events_jsonl, write_prometheus
from repro.obs.manifest import write_manifest
from repro.obs.metrics import disable_telemetry, enable_telemetry
from repro.obs.spans import span

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "figures": figures.run,
    "claims": claims.run,
    "validation": validation.run,
    "ablation": ablation.run,
    "nxm": nxm.run,
    "resubmission": resubmission.run,
    "approximation": approximation.run,
    "availability": availability.run,
    "arbitration": arbitration.run,
    "structures": structures.run,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id.

    Keyword arguments not accepted by the experiment's ``run`` function
    (e.g. ``n_workers`` for purely analytic experiments) are silently
    dropped, so callers can pass one option set across the registry.
    Raises :class:`~repro.exceptions.ExperimentError` for unknown ids.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    if kwargs:
        accepted = inspect.signature(runner).parameters
        kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    return runner(**kwargs)


def _run_with_telemetry(
    experiment_id: str,
    telemetry_dir: str | Path | None,
    **run_kwargs,
) -> ExperimentResult:
    """Run one experiment, emitting telemetry artifacts when requested."""
    if telemetry_dir is None:
        return run_experiment(experiment_id, **run_kwargs)
    registry = enable_telemetry()
    try:
        with span(f"experiment.{experiment_id}"):
            result = run_experiment(experiment_id, **run_kwargs)
    finally:
        disable_telemetry()
    out = Path(telemetry_dir) / experiment_id
    write_manifest(
        registry,
        out / "manifest.json",
        run={
            "experiment_id": result.experiment_id,
            "title": result.title,
            "paper_cells_compared": result.n_compared,
            "max_abs_error": round(result.max_abs_error, 4),
            "reproduces": result.all_within_tolerance(),
        },
    )
    write_events_jsonl(registry, out / "events.jsonl")
    write_prometheus(registry, out / "metrics.prom")
    return result


def main(argv: Sequence[str] | None = None) -> int:
    """Run the requested experiments; return a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of Chen & Sheu, "
            "'Performance Analysis of Multiple Bus Interconnection "
            "Networks with Hierarchical Requesting Model' (ICDCS 1988)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help=(
            "experiment ids to run (default: all); known: "
            + ", ".join(sorted(EXPERIMENTS))
        ),
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the per-experiment verdicts",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of rendered tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run simulation-backed experiments across N fabric worker "
            "processes (heartbeats, crash re-sharding; "
            "default: serial; results are identical for any N)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "enable telemetry and write manifest.json / events.jsonl / "
            "metrics.prom per experiment under PATH/<experiment_id>/"
        ),
    )
    args = parser.parse_args(argv)

    requested = list(args.experiments)
    if requested == ["all"] or requested == []:
        requested = sorted(EXPERIMENTS)
    run_kwargs = {}
    if args.workers is not None:
        run_kwargs["n_workers"] = args.workers

    if args.json:
        import json

        payload = []
        failed = False
        for experiment_id in requested:
            result = _run_with_telemetry(
                experiment_id, args.telemetry, **run_kwargs
            )
            ok = result.all_within_tolerance()
            failed = failed or not ok
            payload.append(
                {
                    "experiment_id": result.experiment_id,
                    "title": result.title,
                    "paper_cells_compared": result.n_compared,
                    "max_abs_error": result.max_abs_error,
                    "reproduces": ok,
                    "records": result.records,
                }
            )
        print(json.dumps(payload, indent=2, default=str))
        return 1 if failed else 0

    failed = False
    for experiment_id in requested:
        result = _run_with_telemetry(
            experiment_id, args.telemetry, **run_kwargs
        )
        if not args.quiet:
            print(f"=== {result.title} ===")
            print(result.rendered)
        print(result.summary())
        if args.telemetry:
            print(
                "  telemetry -> "
                f"{Path(args.telemetry) / result.experiment_id}/"
                "{manifest.json,events.jsonl,metrics.prom}"
            )
        if not args.quiet:
            print()
        if not result.all_within_tolerance():
            failed = True
            for mismatch in result.mismatches():
                print(
                    f"  MISMATCH {mismatch.cell}: computed "
                    f"{mismatch.computed:.4f}, paper {mismatch.paper:.4f}",
                    file=sys.stderr,
                )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
