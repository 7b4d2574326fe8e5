"""Shared helpers: checkout paths, child processes, /proc readings, stats."""

from __future__ import annotations

import os
import resource
import signal
import statistics
import subprocess
import sys
import time

#: The checkout root: the benchmark runs from here and imports the
#: program from ``src`` without installing it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")

#: Marker that prefixes the launcher's trace line on its stdout.
TRACE_MARKER = "PERFBENCH-TRACE "

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The program could not be driven at all (no result is printed)."""


def require_program() -> None:
    """Refuse to run in a directory that does not hold the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program to measure: {SRC}/repro is missing"
        )


def child_env() -> dict[str, str]:
    """Environment for every child: the program from ``src``, no
    user-site packages, and one BLAS thread so two cores are not
    oversubscribed.

    Bytecode caching is forced on, as in an installed program: with
    ``PYTHONDONTWRITEBYTECODE`` inherited, every interpreter would
    recompile the whole package and set-up time would depend on the
    caller's environment.  The caches land in ``src/**/__pycache__``.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONNOUSERSITE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def n_cores() -> int:
    return len(os.sched_getaffinity(0))


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of one process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def children_cpu_seconds() -> float:
    """User + system CPU of every waited-for descendant so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for descendants, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGINT, then SIGKILL after ``timeout``; always reaps the child."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    else:
        proc.wait()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def import_seconds(module: str, runs: int = 3) -> float:
    """Median wall time to import ``module`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


now = time.perf_counter
