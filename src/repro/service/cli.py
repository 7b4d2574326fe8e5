"""``repro-serve`` — run the bandwidth-query service from the shell.

Wires the admission controller, the micro-batching query engine and the
HTTP front-end together from command-line knobs, optionally under
telemetry: with ``--telemetry DIR`` the process enables a live registry
and, on shutdown (Ctrl-C), writes ``manifest.json`` (including the
``service`` section), ``events.jsonl`` and ``metrics.prom`` into the
directory — the same artifact layout ``repro-experiments --telemetry``
produces.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys

from repro.obs.exporters import write_events_jsonl, write_prometheus
from repro.obs.manifest import write_manifest
from repro.obs.metrics import enable_telemetry
from repro.resilience import chaos
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.engine import QueryEngine
from repro.service.http import BandwidthService
from repro.service.protocol import ServiceLimits

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve bandwidth queries over HTTP with request "
        "coalescing, micro-batching and admission control.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8035)
    parser.add_argument(
        "--cache-size", type=int, default=4096,
        help="result-LRU capacity (0 disables result caching)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=64,
        help="micro-batch window flushes at this many queued cells",
    )
    parser.add_argument(
        "--batch-delay", type=float, default=0.0,
        help="seconds the oldest queued cell may wait "
        "(0 = flush every event-loop tick, and answer a lone cell at once)",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None,
        help="token-bucket sustained requests/second (default: unlimited)",
    )
    parser.add_argument(
        "--burst", type=int, default=256,
        help="token-bucket burst capacity",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=1024,
        help="shed requests once this many are in flight or queued",
    )
    parser.add_argument(
        "--max-sweep-cells", type=int, default=512,
        help="largest accepted sweep bus-count vector",
    )
    parser.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="enable telemetry; write manifest/events/metrics into DIR "
        "on shutdown",
    )
    parser.add_argument(
        "--chaos-plan", metavar="FILE", default=None,
        help="install a deterministic fault-injection plan "
        "(JSON FaultPlan) for the lifetime of the server",
    )
    parser.add_argument(
        "--no-brownout", action="store_true",
        help="disable the criticality-aware overload governor "
        "(on by default: shrink batches, then shed by ascending "
        "criticality under sustained overload)",
    )
    parser.add_argument(
        "--brownout-queue-high", type=int, default=16,
        help="queue depth at which the brownout ladder steps up",
    )
    parser.add_argument(
        "--brownout-p95-high", type=float, default=0.5,
        help="p95 latency (seconds) at which the ladder steps up",
    )
    return parser


async def _serve(args: argparse.Namespace) -> None:
    bucket = (
        TokenBucket(args.rate_limit, args.burst)
        if args.rate_limit is not None
        else None
    )
    admission = AdmissionController(
        bucket=bucket, max_queue_depth=args.max_queue_depth
    )
    brownout = None
    if not args.no_brownout:
        brownout = BrownoutGovernor(
            BrownoutPolicy(
                queue_high=args.brownout_queue_high,
                queue_low=min(4, args.brownout_queue_high),
                p95_high_seconds=args.brownout_p95_high,
                p95_low_seconds=min(0.1, args.brownout_p95_high),
            )
        )
    engine = QueryEngine(
        cache_size=args.cache_size,
        batch_max_size=args.batch_size,
        batch_max_delay=args.batch_delay,
        admission=admission,
        limits=ServiceLimits(max_sweep_cells=args.max_sweep_cells),
        brownout=brownout,
        batch_breaker=CircuitBreaker("service.batch"),
    )
    service = BandwidthService(engine, host=args.host, port=args.port)
    port = await service.start()
    print(f"repro-serve listening on http://{args.host}:{port}", flush=True)
    try:
        await service.serve_forever()
    finally:
        await service.stop()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    registry = enable_telemetry() if args.telemetry else None
    plan = (
        chaos.FaultPlan.from_file(args.chaos_plan)
        if args.chaos_plan
        else None
    )
    if plan is not None:
        chaos.install_plan(plan)
    try:
        with contextlib.suppress(KeyboardInterrupt):
            asyncio.run(_serve(args))
    finally:
        if plan is not None:
            chaos.uninstall_plan()
        if registry is not None:
            write_manifest(
                registry,
                f"{args.telemetry}/manifest.json",
                run={"name": "repro-serve"},
            )
            write_events_jsonl(registry, f"{args.telemetry}/events.jsonl")
            write_prometheus(registry, f"{args.telemetry}/metrics.prom")
            print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
