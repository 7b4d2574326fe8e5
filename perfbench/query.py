"""query-hot and query-cold: ``repro-serve`` over loopback, open loop."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import select
import signal
import subprocess
import sys

import checks
import loadgen
import universe
from common import (
    BENCH_DIR, ROOT, TRACE_MARKER, BenchError, child_env, median, n_cores,
    now, percentile, proc_cpu_seconds, proc_peak_rss_mb, stop_process,
)


@dataclasses.dataclass(frozen=True)
class QueryConfig:
    name: str
    rate: float  #: offered requests per second
    boots: int  #: server launches per run; setup_s is their median
    warm: int  #: query-cold: distinct warm-up requests per boot


HOT = QueryConfig("query-hot", rate=1000.0, boots=5, warm=0)
COLD = QueryConfig("query-cold", rate=300.0, boots=5, warm=96)

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class _Lines:
    """Line reader over a child's stdout pipe with a timeout."""

    def __init__(self, stream):
        self._fd = stream.fileno()
        self._buffer = b""

    def readline(self, timeout: float) -> str | None:
        deadline = now() + timeout
        while b"\n" not in self._buffer:
            left = deadline - now()
            if left <= 0:
                raise BenchError("timed out waiting for the server")
            ready, _, _ = select.select([self._fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                if self._buffer:
                    break
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode()


class Server:
    """One ``repro-serve`` process (traced through the launcher or not)."""

    def __init__(self, traced: bool):
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "launcher.py"), "serve"]
        else:
            cmd = [sys.executable, "-m", "repro.service.cli"]
        self.proc = subprocess.Popen(
            cmd + ["--port", "0"], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        self._lines = _Lines(self.proc.stdout)
        try:
            self.port = self._wait_for(_LISTENING, 120.0)
        except BaseException:
            self.stop()
            raise

    def _wait_for(self, pattern, timeout: float) -> int:
        while True:
            line = self._lines.readline(timeout)
            if line is None:
                raise BenchError(f"server exited with {self.proc.wait()}")
            match = pattern.search(line)
            if match:
                return int(match.group(1))

    def mark(self) -> None:
        """Start the traced window (the launcher resets its spans)."""
        self.proc.send_signal(signal.SIGUSR1)
        while True:
            line = self._lines.readline(30.0)
            if line is None or line.strip() == "PERFBENCH-MARK":
                return

    def stop(self) -> dict | None:
        """Stop the server; return the launcher's trace, if any."""
        stop_process(self.proc)
        trace = None
        try:
            while True:
                line = self._lines.readline(10.0)
                if line is None:
                    break
                if line.startswith(TRACE_MARKER):
                    trace = json.loads(line[len(TRACE_MARKER):])
        except BenchError:
            pass
        self.proc.stdout.close()
        return trace


@contextlib.contextmanager
def share_one_core(pid: int):
    """Pin this process (the generator) and every thread of ``pid`` to
    one core for the timed phase.

    On a virtual machine with heavy CPU steal, a wake-up sent to a
    halted sibling core costs a variable delay: unpinned, query-hot's
    p50 moved between 0.4 and 1.4 ms from run to run; on one shared
    core it stayed within 0.36-0.49 ms.
    """
    mine = os.sched_getaffinity(0)
    core = {min(mine)}
    tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    before = {tid: os.sched_getaffinity(tid) for tid in tids}
    os.sched_setaffinity(0, core)
    for tid in tids:
        os.sched_setaffinity(tid, core)
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)
        for tid, cpus in before.items():
            try:
                os.sched_setaffinity(tid, cpus)
            except ProcessLookupError:
                pass


def _check_all(config, requests, statuses, bodies, tolerance) -> list[str]:
    """Check every 200 answer; return the wrong ones (first few)."""
    wrong = []
    for request, status, body in zip(requests, statuses, bodies):
        if status != 200:
            continue
        try:
            payload = json.loads(body)
            if config is HOT:
                checks.check_hot(request, payload, tolerance)
            else:
                checks.check_cold(request, payload)
        except (checks.WrongAnswer, ValueError, KeyError, TypeError) as exc:
            wrong.append(str(exc))
    return wrong


def _boot(config: QueryConfig, seed: int, traced: bool, tolerance: float):
    """Launch, wait until ready, warm up; returns (server, setup, warm, wrong)."""
    started = now()
    server = Server(traced)
    try:
        warm_started = now()
        if config is HOT:
            # Twice: the first pass fills the result LRU, the second the
            # encoded-bytes LRU (computed answers are not kept encoded).
            singles, sweeps = universe.hot_universe()
            warm_set = (singles + sweeps) * 2
        else:
            warm_set = universe.cold_requests(seed, config.warm, "warm")
        answers = loadgen.closed_loop(server.port, [r.wire for r in warm_set])
        finished = now()
        statuses = [code for code, _ in answers]
        if any(code != 200 for code in statuses):
            raise BenchError(f"warm-up answered {sorted(set(statuses))}")
        wrong = _check_all(config, warm_set, statuses,
                           [body for _, body in answers], tolerance)
    except BaseException:
        server.stop()
        raise
    return server, finished - started, finished - warm_started, wrong


def measure(config: QueryConfig, seed: int, seconds: float, traced: bool) -> dict:
    """One set-up plus one timed phase; returns raw figures."""
    tolerance, _ = universe.paper_cells()
    count = int(round(config.rate * seconds))
    if config is HOT:
        schedule = universe.hot_schedule(seed, count)
    else:
        schedule = universe.cold_requests(seed, count, "timed")
    wires = [request.wire for request in schedule]

    setups, warms, wrong = [], [], []
    for boot in range(config.boots):
        server, setup, warm, bad = _boot(config, seed, traced, tolerance)
        setups.append(setup)
        warms.append(warm)
        wrong += bad
        if boot < config.boots - 1:
            server.stop()
    try:
        if traced:
            server.mark()
        with share_one_core(server.proc.pid):
            cpu_before = proc_cpu_seconds(server.proc.pid)
            load = loadgen.run(server.port, wires, config.rate, n_conns=n_cores())
            cpu = proc_cpu_seconds(server.proc.pid) - cpu_before
        rss = proc_peak_rss_mb(server.proc.pid)
    finally:
        trace = server.stop()
    wrong += _check_all(config, schedule, load.status, load.body, tolerance)

    ok = [i for i, status in enumerate(load.status) if status == 200]
    if not ok:
        raise BenchError(f"{config.name}: no request was answered")
    sources: dict[str, int] = {}
    for i in ok:
        try:
            source = json.loads(load.body[i]).get("source", "?")
        except ValueError:
            source = "?"
        sources[source] = sources.get(source, 0) + 1
    latencies = [load.latency[i] for i in ok]
    sweeps = [load.latency[i] for i in ok if schedule[i].is_sweep]
    cells = sum(schedule[i].cells for i in ok)
    lateness = load.lateness
    return {
        "attempted": len(schedule),
        "failed": len(schedule) - len(ok),
        "wrong": wrong,
        "answered": len(ok),
        "cells": cells,
        "cpu_s": cpu,
        "latencies": latencies,
        "sweep_latencies": sweeps,
        "lateness": lateness,
        "setups": setups,
        "warms": warms,
        "rss_mb": rss,
        "sources": sources,
        "trace": trace,
    }


def end_to_end(raw: dict) -> dict[str, float]:
    return {
        "p50_ms": median(raw["latencies"]) * 1e3,
        "cpu_us_per_req": raw["cpu_s"] / raw["answered"] * 1e6,
        "sweep_s": median(raw["sweep_latencies"]),
        "cpu_ms_per_cell": raw["cpu_s"] / raw["cells"] * 1e3,
        "setup_s": median(raw["setups"]),
        "peak_rss_mb": raw["rss_mb"],
    }


def report_lines(config: QueryConfig, raw: dict) -> list[str]:
    """Reference figures that are not end-to-end metrics."""
    lat = raw["latencies"]
    late = raw["lateness"]
    return [
        f"{config.name}: offered {config.rate:g} req/s open loop on "
        f"{n_cores()} connection(s); attempted {raw['attempted']}, "
        f"failed {raw['failed']}, wrong {len(raw['wrong'])}",
        f"{config.name}: p99 latency {percentile(lat, 99) * 1e3:.3f} ms over "
        f"{len(lat)} samples ({max(0, len(lat) - int(len(lat) * 0.99))} "
        f"beyond it); p50 {median(lat) * 1e3:.3f} ms",
        f"{config.name}: generator lateness median "
        f"{median(late) * 1e3:.3f} ms, p99 {percentile(late, 99) * 1e3:.3f} ms",
        f"{config.name}: answer sources {raw['sources']}",
    ]


def per_layer(raw: dict) -> dict[str, float | None]:
    """Per-layer metrics of a traced run (``None`` for an absent layer)."""
    trace = raw["trace"] or {"stats": {}, "absent": ["launcher"]}
    stats, absent = trace["stats"], set(trace["absent"])

    def get(name):
        calls, seconds = stats.get(name, (0, 0.0))
        return calls, seconds

    def per(value, count):
        return value / count if count else 0.0

    requests, payload_s = get("execute_payload")
    executes, execute_s = get("execute")
    _, gate_s = get("gate")
    _, parse_s = get("parse")
    parses = get("parse")[0]
    encodes, encode_s = get("encode")
    builds, _ = get("payload_build")
    kernels, kernel_s = get("kernel")
    _, model_s = get("build_model")
    flushes, flushed_cells = get("flush_cells")
    waits, wait_s = get("batch_wait")
    lookups, _ = get("recognize_lookup")
    misses, _ = get("recognize_miss")
    exacts, exact_s = get("exact")
    engine_s = payload_s + encode_s + kernel_s + model_s
    pmf = trace.get("pmf")
    answered = raw["answered"]
    out = {
        "service.http.cpu_us_per_req": per(raw["cpu_s"] - engine_s, requests) * 1e6,
        "service.protocol.parse_us": per(parse_s, parses) * 1e6,
        "service.admission.gate_us": per(gate_s, requests) * 1e6,
        "service.engine.tier_us": per(execute_s - gate_s, executes) * 1e6,
        "service.engine.encode_us": per(encode_s, encodes) * 1e6,
        "service.engine.encode_hit_ratio": per(encodes - builds, encodes),
        "service.engine.cache_ratio": per(raw["sources"].get("cache", 0), answered),
        "service.engine.computed_ratio": per(raw["sources"].get("computed", 0), answered),
        "service.batching.cells_per_flush": per(flushed_cells, flushes),
        "service.batching.wait_us": per(wait_s, waits) * 1e6,
        "analysis.batch.profile_us": per(kernel_s, kernels) * 1e6,
        "analysis.batch.calls_per_req": per(kernels, requests),
        "core.cache.pmf_hit_ratio": per(pmf[0], pmf[0] + pmf[1]) if pmf else None,
        "topology.recognize.hit_ratio": per(lookups - misses, lookups),
        "core.exact.us_per_call": per(exact_s, exacts) * 1e6,
        "setup.warm_s": median(raw["warms"]),
        "loadgen.late_ms": median(raw["lateness"]) * 1e3,
    }
    needs = {
        "service.http.cpu_us_per_req": ("service.engine", "service.engine.encode",
                                        "analysis.batch"),
        "service.protocol.parse_us": ("service.protocol",),
        "service.admission.gate_us": ("service.admission", "resilience.brownout"),
        "service.engine.tier_us": ("service.engine", "service.admission"),
        "service.engine.encode_us": ("service.engine.encode",),
        "service.engine.encode_hit_ratio": ("service.engine.encode",),
        "service.batching.cells_per_flush": ("analysis.batch",),
        "service.batching.wait_us": ("service.batching", "analysis.batch"),
        "analysis.batch.profile_us": ("analysis.batch",),
        "analysis.batch.calls_per_req": ("analysis.batch", "service.engine"),
        "core.cache.pmf_hit_ratio": ("core.cache",),
        "topology.recognize.hit_ratio": ("topology.recognize",),
        "core.exact.us_per_call": ("core.exact",),
    }
    for metric, layers in needs.items():
        if absent & set(layers) or "launcher" in absent:
            out[metric] = None
    return out
