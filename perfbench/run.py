"""Benchmark of ``repro-serve`` and ``repro-fabric``, end to end and per layer.

    python3 perfbench/run.py --workload query-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sweep-sim --seed 1 --seconds 10 --repeat 10

Run from the root of a checkout: the program is imported from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A wrong answer
prints ``"correct": false`` and exits 1; a program that cannot be
driven at all prints no result and exits 2.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import query  # noqa: E402
import sweep  # noqa: E402
from common import (  # noqa: E402
    ROOT, BenchError, import_seconds, log, quartiles, require_program,
)

WORKLOADS = ("query-hot", "query-cold", "sweep-sim")

END_TO_END = {
    "p50_ms": "ms",
    "cpu_us_per_req": "us",
    "sweep_s": "s",
    "cpu_ms_per_cell": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "service.http.cpu_us_per_req": "us",
    "service.protocol.parse_us": "us",
    "service.admission.gate_us": "us",
    "service.engine.tier_us": "us",
    "service.engine.encode_us": "us",
    "service.engine.encode_hit_ratio": "ratio",
    "service.engine.cache_ratio": "ratio",
    "service.engine.computed_ratio": "ratio",
    "service.batching.cells_per_flush": "count",
    "service.batching.wait_us": "us",
    "analysis.batch.profile_us": "us",
    "analysis.batch.calls_per_req": "count",
    "core.cache.pmf_hit_ratio": "ratio",
    "topology.recognize.hit_ratio": "ratio",
    "core.exact.us_per_call": "us",
    "fabric.spawn_s": "s",
    "fabric.worker_busy_s": "s",
    "fabric.overhead_s": "s",
    "fabric.balance": "ratio",
    "fabric.wire_bytes_per_cell": "bytes",
    "simulation.cycles_per_cpu_s": "1/s",
    "simulation.vectorized_ratio": "ratio",
    "analysis.evaluate.reference_us": "us",
    "setup.import_s": "s",
    "setup.warm_s": "s",
    "loadgen.late_ms": "ms",
}


def _measure(workload: str, seed: int, seconds: float, traced: bool):
    if workload == "sweep-sim":
        raw = sweep.measure(seed, seconds, traced)
        return raw, sweep.end_to_end(raw), sweep.report_lines(raw)
    config = query.HOT if workload == "query-hot" else query.COLD
    raw = query.measure(config, seed, seconds, traced)
    return raw, query.end_to_end(raw), query.report_lines(config, raw)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    raw, metrics, lines = _measure(workload, seed, seconds, traced=False)
    for line in lines:
        print(line)
    attempted, failed = raw["attempted"], raw["failed"]
    wrong = list(raw["wrong"])
    if trace:
        traced_raw, traced_metrics, lines = _measure(
            workload, seed, seconds, traced=True)
        for line in lines:
            print("traced " + line)
        attempted += traced_raw["attempted"]
        failed += traced_raw["failed"]
        wrong += traced_raw["wrong"]
        for name, value in metrics.items():
            change = traced_metrics[name] / value - 1.0 if value else 0.0
            print(f"tracing overhead: {name} {value:.6g} untraced, "
                  f"{traced_metrics[name]:.6g} traced ({change:+.1%})")
        layers = {name: 0.0 for name in PER_LAYER}
        if workload == "sweep-sim":
            layers.update(sweep.per_layer(traced_raw))
            layers["setup.import_s"] = import_seconds("repro.fabric.cli")
        else:
            layers.update(query.per_layer(traced_raw))
            layers["setup.import_s"] = import_seconds("repro.service.cli")
        absent = sorted(name for name, value in layers.items() if value is None)
        if absent:
            print("absent layers: " + ", ".join(absent))
        out_metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        out_metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for message in wrong[:5]:
        print(f"WRONG ANSWER: {message}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }


def repeat(args) -> dict:
    """Run the workload ``--repeat`` times (seeds seed, seed+1, ...) in
    fresh processes and summarise each metric as median and quartiles."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    result = {"correct": True, "attempted": 0, "failed": 0}
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, 1) or not lines:
            raise BenchError(f"run {i} exited with {out.returncode}: "
                             f"{out.stderr[-500:]}")
        run = json.loads(lines[-1])
        result["correct"] &= run["correct"]
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]
        summary = []
        for name, metric in run["metrics"].items():
            units[name] = metric["unit"]
            if metric["value"] is not None:
                values.setdefault(name, []).append(metric["value"])
            summary.append(f"{name}={metric['value']}")
        print(f"run {i} seed {args.seed + i}: failed {run['failed']}/"
              f"{run['attempted']} " + " ".join(summary))
    metrics = {}
    for name, series in values.items():
        q1, q2, q3 = quartiles(series)
        spread = (q3 - q1) / q2 if q2 else 0.0
        print(f"{args.workload} {name}: median {q2:.6g} {units[name]}, "
              f"quartiles {q1:.6g} .. {q3:.6g}, spread {spread:.1%} "
              f"over {len(series)} runs")
        metrics[name] = {"value": q2, "unit": units[name], "q1": q1,
                         "q3": q3, "spread": spread}
    result["metrics"] = metrics
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the workload this many times (seeds "
                        "seed, seed+1, ...) and print median and quartiles "
                        "of every metric")
    args = parser.parse_args()
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_program()
        if args.repeat > 1:
            result = repeat(args)
        else:
            result = run_once(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
