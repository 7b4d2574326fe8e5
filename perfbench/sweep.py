"""sweep-sim: the ``repro-fabric`` command, launch to records."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import universe
from common import (
    BENCH_DIR, ROOT, SRC, TRACE_MARKER, BenchError, child_env,
    children_cpu_seconds, children_peak_rss_mb, median, n_cores, now,
)

#: One-cell commands per run; setup_s is their median.
SETUP_RUNS = 3
#: The timed phase runs at least this many sweep commands.
MIN_COMMANDS = 3
#: Sweep cells the traced run re-times in-process per run.
SAMPLE_CELLS = 12


def workers() -> int:
    return min(2, n_cores())


def _command(args: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, os.path.join(BENCH_DIR, "launcher.py"),
                "fabric", *args]
    return [sys.executable, "-m", "repro.fabric.cli", *args]


def _run(args: list[str], traced: bool):
    """One command: (wall s, CPU s of it and its workers, records, trace)."""
    cpu_before = children_cpu_seconds()
    started = now()
    out = subprocess.run(
        _command(args, traced), cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=170,
    )
    wall = now() - started
    cpu = children_cpu_seconds() - cpu_before
    if out.returncode != 0:
        raise BenchError(
            f"repro-fabric exited with {out.returncode}: {out.stderr[-500:]}"
        )
    text, trace = out.stdout, None
    if TRACE_MARKER in text:
        text, _, tail = text.partition(TRACE_MARKER)
        trace = json.loads(tail.splitlines()[0])
    try:
        records = json.loads(text)
    except ValueError:
        records = []
    return wall, cpu, records, trace


def _exact_references(records: list) -> dict:
    """Exact enumeration of every distinct (B, r, model) in ``records``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.analysis.sweep import paper_model_pair
    from repro.core.exact import exact_bandwidth
    from repro.topology.factory import build_network

    out = {}
    for record in records:
        key = (record["B"], record["r"], record["model"])
        if key not in out:
            network = build_network(record["scheme"], record["N"], record["M"],
                                    record["B"])
            model = paper_model_pair(record["N"], record["r"])[record["model"]]
            out[key] = exact_bandwidth(network, model)
    return out


def measure(seed: int, seconds: float, traced: bool) -> dict:
    n_workers = workers()
    expected = universe.sweep_cells()
    setups = []
    for _ in range(SETUP_RUNS):
        wall, _, records, _ = _run(
            universe.sweep_args(seed, n_workers, one_cell=True), traced=False)
        if len(records) != universe.sweep_cells(one_cell=True):
            raise BenchError(f"one-cell sweep returned {len(records)} records")
        setups.append(wall)

    args = universe.sweep_args(seed, n_workers)
    walls, cpus, traces, outputs = [], [], [], []
    started = now()
    while len(walls) < MIN_COMMANDS or now() - started < seconds:
        wall, cpu, records, trace = _run(args, traced)
        walls.append(wall)
        cpus.append(cpu)
        traces.append(trace)
        outputs.append(records)

    attempted = expected * len(outputs)
    failed = sum(max(0, expected - len(records)) for records in outputs)
    wrong = []
    reference = _exact_references([r for records in outputs for r in records])
    for records in outputs:
        try:
            checks.check_sweep_records(records, reference, universe.SWEEP_CYCLES)
        except (checks.WrongAnswer, KeyError, TypeError) as exc:
            wrong.append(str(exc))
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "walls": walls,
        "cpus": cpus,
        "setups": setups,
        "rss_mb": children_peak_rss_mb(),
        "traces": traces,
        "records": outputs[0],
        "workers": n_workers,
    }


def end_to_end(raw: dict) -> dict[str, float]:
    cpu = median(raw["cpus"])
    wall = median(raw["walls"])
    return {
        "p50_ms": wall * 1e3,
        "cpu_us_per_req": cpu * 1e6,
        "sweep_s": wall,
        "cpu_ms_per_cell": cpu / universe.sweep_cells() * 1e3,
        "setup_s": median(raw["setups"]),
        "peak_rss_mb": raw["rss_mb"],
    }


def report_lines(raw: dict) -> list[str]:
    walls = ", ".join(f"{w:.3f}" for w in raw["walls"])
    return [
        f"sweep-sim: {len(raw['walls'])} commands of "
        f"{universe.sweep_cells()} cells ({universe.SWEEP_CYCLES} cycles, "
        f"N=M={universe.SWEEP_N}) on {raw['workers']} workers; attempted "
        f"{raw['attempted']} cells, failed {raw['failed']}, wrong "
        f"{len(raw['wrong'])}",
        f"sweep-sim: command wall times (s) {walls}",
    ]


def _sample(records: list) -> dict | None:
    """Re-time ``SAMPLE_CELLS`` of the sweep's cells in-process."""
    step = max(1, len(records) // SAMPLE_CELLS)
    cells = [
        [r["scheme"], r["N"], r["B"], r["r"], r["model"]]
        for r in records[::step][:SAMPLE_CELLS]
    ]
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "launcher.py"), "sample",
         str(universe.SWEEP_CYCLES), json.dumps(cells)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise BenchError(f"sample run failed: {out.stderr[-500:]}")
    for line in out.stdout.splitlines():
        if line.startswith(TRACE_MARKER):
            return json.loads(line[len(TRACE_MARKER):])
    return None


def per_layer(raw: dict) -> dict[str, float | None]:
    fabric = [t.get("fabric") for t in raw["traces"] if t and t.get("fabric")]
    absent = set()
    for trace in raw["traces"]:
        absent |= set((trace or {}).get("absent", ["launcher"]))
    busy = [sum(f["busy_s"]) for f in fabric]
    overhead = [f["wall_s"] - max(f["busy_s"]) for f in fabric if f["busy_s"]]
    balance = [min(f["busy_s"]) / max(f["busy_s"]) for f in fabric
               if f["busy_s"] and max(f["busy_s"]) > 0]
    spawn = [f["spawn_s"] for f in fabric if f["spawn_s"] is not None]
    wire = [t["stats"].get("wire_bytes", (0, 0.0))[1] / t["fabric"]["cells"]
            for t in raw["traces"] if t and t.get("fabric")]
    sample = _sample(raw["records"]) or {"stats": {}, "absent": ["launcher"]}
    stats = sample["stats"]
    sims, sim_s = stats.get("simulate", (0, 0.0))
    vectorized, _ = stats.get("run_vectorized", (0, 0.0))
    references, reference_s = stats.get("reference", (0, 0.0))
    out = {
        "fabric.spawn_s": median(spawn) if spawn else None,
        "fabric.worker_busy_s": median(busy) if busy else None,
        "fabric.overhead_s": median(overhead) if overhead else None,
        "fabric.balance": median(balance) if balance else None,
        "fabric.wire_bytes_per_cell": median(wire) if wire else None,
        "simulation.cycles_per_cpu_s":
            sims * universe.SWEEP_CYCLES / sim_s if sim_s else None,
        "simulation.vectorized_ratio": vectorized / sims if sims else None,
        "analysis.evaluate.reference_us":
            reference_s / references * 1e6 if references else None,
    }
    if "fabric.wire" in absent:
        out["fabric.wire_bytes_per_cell"] = None
    if "fabric.spawn" in absent:
        out["fabric.spawn_s"] = None
    if "simulation.vectorized" in sample["absent"]:
        out["simulation.vectorized_ratio"] = None
    return out
