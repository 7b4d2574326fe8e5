"""``repro-fabric`` — run a distributed Monte-Carlo sweep from the shell.

Dispatches one sweep job across fabric worker processes and prints the
records (rendered table or JSON) plus a shard/timing summary.  Axis
flags accept the same compact range syntax GridSlice canonical strings
use: ``--buses 2-16/2`` is buses 2, 4, ..., 16 and ``--rates
0.25-1.0/0.25`` is the paper's rate grid; plain comma lists work too.

With ``--telemetry DIR`` the run executes under a live registry and
writes the standard artifact trio (``manifest.json`` — including the
``fabric`` section with the shard map — ``events.jsonl``,
``metrics.prom``) into DIR, mirroring ``repro-experiments``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.fabric.coordinator import (
    FabricConfig,
    FabricCoordinator,
    FabricLimits,
)
from repro.fabric.jobs import FabricJob
from repro.obs.exporters import write_events_jsonl, write_prometheus
from repro.obs.manifest import write_manifest
from repro.obs.metrics import enable_telemetry
from repro.resilience import chaos
from repro.resilience.deadline import Deadline, deadline_from_env

__all__ = ["build_parser", "parse_axis", "main"]


def parse_axis(text: str, cast=float) -> list:
    """Parse ``2-16/2`` / ``0.25-1.0/0.25`` / ``2,4,8`` axis syntax."""
    values: list = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        # A range is "lo-hi[/step]" where "-" separates two values; a
        # leading "-" would be a sign, but axes here are positive.
        body, _, step_text = token.partition("/")
        lo_text, dash, hi_text = body.partition("-")
        if dash and lo_text:
            lo, hi = cast(lo_text), cast(hi_text)
            step = cast(step_text) if step_text else cast(1)
            if step <= 0 or hi < lo:
                raise ConfigurationError(f"bad axis range {token!r}")
            count = int(round((hi - lo) / step)) + 1
            values.extend(cast(lo + i * step) for i in range(count))
        else:
            values.append(cast(token))
    if not values:
        raise ConfigurationError(f"empty axis specification {text!r}")
    if cast is float:
        values = [round(v, 12) for v in values]
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fabric",
        description=(
            "Run a Monte-Carlo bandwidth sweep across fabric worker "
            "processes; records are bit-identical to the "
            "single-process executor."
        ),
    )
    parser.add_argument("--scheme", default="full",
                        help="connection scheme (default: full)")
    parser.add_argument("--N", type=int, default=16,
                        help="processor count")
    parser.add_argument("--M", type=int, default=None,
                        help="memory-module count (default: N)")
    parser.add_argument("--buses", default="2-8/2", metavar="SPEC",
                        help="bus-count axis, e.g. 2-16/2 or 2,4,8")
    parser.add_argument("--rates", default="0.25-1.0/0.25", metavar="SPEC",
                        help="request-rate axis, e.g. 0.25-1.0/0.25")
    parser.add_argument("--cycles", type=int, default=20_000,
                        help="simulated cycles per cell")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed (per-cell seeds spawn from it "
                        "by grid index)")
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "loop", "vectorized"))
    parser.add_argument("--workers", type=int, default=4,
                        help="fabric worker processes")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="ResultCache directory (cells already "
                        "present are served from disk)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write manifest.json / events.jsonl / "
                        "metrics.prom into DIR")
    parser.add_argument("--chaos-plan", metavar="FILE", default=None,
                        help="install a deterministic fault-injection "
                        "plan (JSON FaultPlan) for this run")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="end-to-end budget for the dispatch+gather "
                        "phase; expiry is a structured error, not a hang "
                        "(default: REPRO_DEADLINE_MS if set)")
    parser.add_argument("--heartbeat-interval", type=float, default=0.5,
                        help="seconds between worker heartbeats")
    parser.add_argument("--heartbeat-timeout", type=float, default=30.0,
                        help="heartbeat silence after which a worker is "
                        "declared dead and its cells re-sharded")
    parser.add_argument("--json", action="store_true",
                        help="emit records as JSON instead of a table")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the rendered table "
                        "(summary line only)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bus_counts = parse_axis(args.buses, int)
        rates = parse_axis(args.rates, float)
    except ConfigurationError as exc:
        print(f"repro-fabric: {exc}", file=sys.stderr)
        return 2

    params: dict = {
        "scheme": args.scheme,
        "N": args.N,
        "bus_counts": bus_counts,
        "rates": rates,
        "n_cycles": args.cycles,
        "seed": args.seed,
        "backend": args.backend,
    }
    if args.M is not None:
        params["M"] = args.M
    try:
        limits = FabricLimits(
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
        )
        plan = (
            chaos.FaultPlan.from_file(args.chaos_plan)
            if args.chaos_plan
            else None
        )
    except ConfigurationError as exc:
        print(f"repro-fabric: {exc}", file=sys.stderr)
        return 2
    coordinator = FabricCoordinator(
        FabricJob(kind="sweep", params=params),
        FabricConfig(n_workers=args.workers, limits=limits),
        cache=args.cache,
    )
    deadline = (
        Deadline(args.deadline_ms)
        if args.deadline_ms is not None
        else deadline_from_env()
    )

    registry = enable_telemetry() if args.telemetry else None
    if plan is not None:
        chaos.install_plan(plan)
    started = time.perf_counter()
    try:
        report = coordinator.run(deadline=deadline)
    except DeadlineExceededError as exc:
        print(f"repro-fabric: deadline exceeded: {exc}", file=sys.stderr)
        return 3
    finally:
        if plan is not None:
            chaos.uninstall_plan()
        if registry is not None:
            write_manifest(
                registry,
                f"{args.telemetry}/manifest.json",
                run={
                    "name": "repro-fabric",
                    "scheme": args.scheme,
                    "N": args.N,
                    "seed": args.seed,
                    "workers": args.workers,
                },
            )
            write_events_jsonl(registry, f"{args.telemetry}/events.jsonl")
            write_prometheus(registry, f"{args.telemetry}/metrics.prom")
    elapsed = time.perf_counter() - started

    if args.json:
        print(json.dumps(report.records, indent=2, default=str))
    elif not args.quiet:
        from repro.analysis.tables import render_table

        print(
            render_table(
                report.records,
                title=(
                    f"Simulated bandwidth, {args.scheme} scheme, "
                    f"N={args.N} ({report.n_workers} fabric workers)"
                ),
            )
        )
    busy = sum(
        t["busy_seconds"] for t in report.worker_timings.values()
    )
    print(
        f"fabric: {report.cells} cells on {report.n_workers} workers "
        f"in {elapsed:.2f}s; "
        f"{len(report.shard_map)} shards, {report.retries} retries, "
        f"{len(report.worker_deaths)} deaths, "
        f"{report.cache_hits} cache hits, busy {busy:.2f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
