"""Traced entry points: wrap the program's layers, then run its own CLI.

    python3 perfbench/launcher.py serve  [repro-serve args]
    python3 perfbench/launcher.py fabric [repro-fabric args]
    python3 perfbench/launcher.py sample CYCLES CELLS_JSON

``serve`` and ``fabric`` install :class:`tracing.Tracer` spans on the
public functions each layer is called through, then hand over to
``repro.service.cli.main`` / ``repro.fabric.cli.main`` unchanged.  On
exit they print one line, ``PERFBENCH-TRACE {json}``, on stdout.  A
``serve`` process resets its spans on SIGUSR1 (and answers with a
``PERFBENCH-MARK`` line), so warm-up stays out of the window.

``sample`` times ``simulate_bandwidth`` and ``reference_bandwidth`` on
a sample of sweep cells in this process: fabric workers are separate
interpreters that a wrapper here cannot reach.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import TRACE_MARKER  # noqa: E402
from tracing import Tracer  # noqa: E402

MARK_LINE = "PERFBENCH-MARK"


def _emit(payload: dict) -> None:
    sys.stdout.flush()
    print(TRACE_MARKER + json.dumps(payload), flush=True)


def _pmf_counts() -> list[int] | None:
    try:
        from repro.core.cache import pmf_cache
        info = pmf_cache.cache_info()
    except (ImportError, AttributeError):
        return None
    return [int(info.hits), int(info.misses)]


def serve(argv: list[str]) -> int:
    import repro.service.cli as cli

    tracer = Tracer()
    eng = "repro.service.engine"
    tracer.wrap("service.protocol", eng, "parse_query", "parse")
    tracer.wrap_coroutine("service.engine", eng, "QueryEngine.execute_payload",
                          "execute_payload")
    tracer.wrap_coroutine("service.engine", eng, "QueryEngine.execute", "execute")
    tracer.wrap("service.engine.encode", eng, "QueryEngine.encoded_payload", "encode")
    tracer.wrap("service.engine.encode", eng, "QueryResponse.payload", "payload_build")
    tracer.wrap("service.engine", eng, "build_model", "build_model")
    tracer.wrap("service.admission", "repro.service.admission",
                "AdmissionController.admit", "gate")
    for method in ("evaluate", "should_shed", "batch_limits", "observe_latency"):
        tracer.wrap("resilience.brownout", "repro.resilience.brownout",
                    f"BrownoutGovernor.{method}", "gate")

    # Batch wait: enqueue time of each submission until its window's
    # flush reaches the kernel.  Both run on the event-loop thread.
    pending: list[float] = []

    def enqueued(_args):
        pending.append(time.perf_counter())

    def flushing(args):
        now = time.perf_counter()
        for started in pending:
            tracer.add("batch_wait", now - started)
        pending.clear()
        tracer.add("flush_cells", float(len(args[0])))

    tracer.wrap("service.batching", "repro.service.batching",
                "BatchWindow.submit", "submit", before=enqueued)
    tracer.wrap("analysis.batch", eng, "evaluate_cells", "kernel", before=flushing)
    tracer.wrap("analysis.batch", eng, "scheme_bus_profile", "kernel")
    tracer.wrap("topology.recognize", "repro.topology.recognize",
                "recognize_cached", "recognize_lookup")
    tracer.wrap("topology.recognize", "repro.topology.recognize",
                "recognize", "recognize_miss")
    tracer.wrap("core.exact", "repro.core.exact", "exact_bandwidth", "exact")
    if _pmf_counts() is None:
        tracer.absent.append("core.cache")

    window = {"pmf": _pmf_counts()}

    def mark(_signum, _frame):
        tracer.reset()
        window["pmf"] = _pmf_counts()
        print(MARK_LINE, flush=True)

    signal.signal(signal.SIGUSR1, mark)
    try:
        return cli.main(argv)
    finally:
        out = tracer.snapshot()
        end = _pmf_counts()
        if end is not None and window["pmf"] is not None:
            out["pmf"] = [end[0] - window["pmf"][0], end[1] - window["pmf"][1]]
        _emit(out)


def fabric(argv: list[str]) -> int:
    import repro.fabric.cli as cli

    tracer = Tracer()
    timeline: dict = {"spawn": None, "ready": [], "run": [], "report": None}

    def spawning(_args):
        if timeline["spawn"] is None:
            timeline["spawn"] = time.perf_counter()

    def decoding(args):
        tracer.add("wire_bytes", float(len(args[0])))

    def decoded(frame):
        if isinstance(frame, dict) and frame.get("type") == "ready":
            timeline["ready"].append(time.perf_counter())

    def run_started(_args):
        timeline["run"].append(time.perf_counter())

    def run_finished(report):
        timeline["run"].append(time.perf_counter())
        timeline["report"] = report

    tracer.wrap("fabric.spawn", "repro.fabric.coordinator", "spawn_child",
                "spawn_child", before=spawning)
    tracer.wrap("fabric.wire", "repro.fabric.wire", "decode_payload",
                "decode", before=decoding, after=decoded)
    tracer.wrap("fabric.coordinator", "repro.fabric.coordinator",
                "FabricCoordinator.run", "coordinator_run",
                before=run_started, after=run_finished)
    try:
        return cli.main(argv)
    finally:
        out = tracer.snapshot()
        report = timeline["report"]
        if report is not None:
            ready = timeline["ready"]
            out["fabric"] = {
                "cells": report.cells,
                "wall_s": timeline["run"][1] - timeline["run"][0],
                "spawn_s": (max(ready) - timeline["spawn"])
                if ready and timeline["spawn"] is not None else None,
                "busy_s": [
                    float(t["busy_seconds"])
                    for t in report.worker_timings.values()
                ],
            }
        _emit(out)


def sample(cycles: int, cells: list) -> int:
    """Time the simulation and reference layers on ``cells`` in-process."""
    tracer = Tracer()
    tracer.wrap("simulation.vectorized", "repro.simulation.engine",
                "run_vectorized", "run_vectorized")
    ok = tracer.wrap("simulation.engine", "repro.simulation.engine",
                     "simulate_bandwidth", "simulate")
    ok &= tracer.wrap("analysis.evaluate", "repro.analysis.evaluate",
                      "reference_bandwidth", "reference")
    if ok:
        from repro.analysis.evaluate import reference_bandwidth
        from repro.analysis.sweep import paper_model_pair
        from repro.simulation.engine import simulate_bandwidth
        from repro.topology.factory import build_network

        for index, (scheme, n, b, rate, model_name) in enumerate(cells):
            network = build_network(scheme, n, n, b)
            model = paper_model_pair(n, rate)[model_name]
            simulate_bandwidth(network, model, n_cycles=cycles, seed=index)
            reference_bandwidth(network, model)
    out = tracer.snapshot()
    out["sample"] = {"cells": len(cells), "cycles": cycles}
    _emit(out)
    return 0


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode == "serve":
        return serve(argv)
    if mode == "fabric":
        return fabric(argv)
    if mode == "sample":
        return sample(int(argv[0]), json.loads(argv[1]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main())
