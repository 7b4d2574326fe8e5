"""The fabric worker process: ``python -m repro.fabric.worker``.

A worker is configured entirely by the HELLO frame on stdin (node id,
heartbeat interval, optional deadline, and the
:class:`~repro.fabric.jobs.FabricJob`), so the command line is bare.
The coordinator spawns every worker itself (nodes ``1..n``) and reads
each one's stdout pipe.

Data flow:

* **down** — WORK frames (``{"to": k}``) addressed to this node are
  queued for evaluation; ``shutdown`` (or EOF on stdin) stops it.
* **up** — RESULT / DONE / ERROR / HEARTBEAT / READY frames on stdout.

Evaluation runs on a separate thread against a
:class:`~repro.fabric.jobs.JobPlan` built locally from the HELLO's job
description; every cell is evaluated on a fresh deep copy of its spec,
so a retried cell can never observe a consumed SeedSequence.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.fabric import wire
from repro.fabric.gridslice import GridSlice
from repro.fabric.jobs import FabricJob, build_job
from repro.resilience.deadline import Deadline, deadline_from_env

__all__ = [
    "spawn_child",
    "run_worker",
    "main",
]


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    """The child's environment: inherited, plus a robust import path.

    The tier-1 invocation sets a *relative* ``PYTHONPATH=src``, which
    would break if a child's working directory ever differed; pinning
    the absolute location of the installed/checked-out ``repro``
    package makes spawns location-independent.  Everything else passes
    through.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    parts = [package_root] + ([existing] if existing else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


#: Spawn command body: importing the module (rather than ``-m``) avoids
#: runpy's double-execution warning, since the fabric package itself
#: imports this module.
_SPAWN_SNIPPET = (
    "import repro.fabric.worker as w; raise SystemExit(w.main())"
)


def spawn_child(
    hello: dict, extra_env: dict[str, str] | None = None
) -> subprocess.Popen:
    """Spawn one worker process and send it its HELLO frame.

    ``extra_env`` overlays the inherited environment — the coordinator
    uses it to hand the remaining request budget down as
    ``REPRO_DEADLINE_MS``.
    """
    env = _child_env()
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SPAWN_SNIPPET],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=None,  # passes through for debuggability
        env=env,
    )
    wire.write_frame(proc.stdin, hello)
    return proc


# ---------------------------------------------------------------------------
# The worker node
# ---------------------------------------------------------------------------


class _WorkerNode:
    def __init__(self, inp, out):
        self._in = inp
        self._out = out
        self._out_lock = threading.Lock()
        self._stop = threading.Event()
        self._work_queue: queue.Queue = queue.Queue()
        self._done_cells = 0
        self.node = -1
        self.deadline: Deadline | None = None

    def _send(self, message: dict) -> None:
        try:
            wire.write_frame(self._out, message, lock=self._out_lock)
        except (BrokenPipeError, ValueError, OSError):
            # Parent is gone; we are about to notice EOF and exit.
            self._stop.set()

    # -- threads ------------------------------------------------------

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self._send(
                {
                    "type": "heartbeat",
                    "node": self.node,
                    "done": self._done_cells,
                }
            )

    def _evaluate_loop(self, plan) -> None:
        while True:
            item = self._work_queue.get()
            if item is None:
                return
            work_id, slice_text = item["work"], item["slice"]
            grid_slice = GridSlice.parse(plan.grid, slice_text)
            started = time.perf_counter()
            completed = 0
            for index in grid_slice:
                if self._stop.is_set():
                    return
                if self.deadline is not None and self.deadline.expired:
                    # Budget spent: stop burning CPU.  The coordinator
                    # holds the same deadline and raises the structured
                    # 504 itself; this worker just refuses to block the
                    # request path past its budget.
                    break
                try:
                    record = plan.run_cell(index)
                except KeyError:
                    self._send(
                        {
                            "type": "error",
                            "node": self.node,
                            "work": work_id,
                            "index": index,
                            "error": f"no cell at grid index {index}",
                        }
                    )
                    continue
                except Exception as exc:
                    self._send(
                        {
                            "type": "error",
                            "node": self.node,
                            "work": work_id,
                            "index": index,
                            "error": repr(exc),
                        }
                    )
                    continue
                completed += 1
                self._done_cells += 1
                self._send(
                    {
                        "type": "result",
                        "node": self.node,
                        "work": work_id,
                        "index": index,
                        "record": record,
                    }
                )
            self._send(
                {
                    "type": "done",
                    "node": self.node,
                    "work": work_id,
                    "cells": completed,
                    "busy_seconds": time.perf_counter() - started,
                }
            )

    # -- lifecycle ----------------------------------------------------

    def run(self) -> int:
        hello = wire.read_frame(self._in)
        if hello is None or hello.get("type") != "hello":
            return 1
        self.node = int(hello["node"])
        interval = float(hello.get("heartbeat_interval", 0.5))
        budget_ms = hello.get("deadline_ms")
        if budget_ms is not None:
            # The budget started ticking at the coordinator; starting a
            # fresh Deadline from the HELLO value is conservative only
            # by the spawn latency already spent.
            self.deadline = Deadline(float(budget_ms))
        else:
            self.deadline = deadline_from_env()

        try:
            plan = build_job(FabricJob.from_wire(hello["job"]))
        except Exception as exc:
            self._send(
                {
                    "type": "error",
                    "node": self.node,
                    "fatal": True,
                    "error": repr(exc),
                }
            )
            return 1

        self._send({"type": "ready", "node": self.node, "pid": os.getpid()})
        threading.Thread(
            target=self._heartbeat_loop,
            args=(interval,),
            daemon=True,
            name="heartbeat",
        ).start()
        evaluator = threading.Thread(
            target=self._evaluate_loop,
            args=(plan,),
            daemon=True,
            name="evaluator",
        )
        evaluator.start()

        while True:
            try:
                frame = wire.read_frame(self._in)
            except wire.FrameError:
                break
            if frame is None or frame.get("type") == "shutdown":
                break
            if frame.get("type") == "work" and int(frame["to"]) == self.node:
                self._work_queue.put(frame)

        self._stop.set()
        self._work_queue.put(None)
        evaluator.join(timeout=1.0)
        return 0


def run_worker(inp, out) -> int:
    """Run one worker node over the given binary streams."""
    return _WorkerNode(inp, out).run()


def main() -> int:
    """Process entrypoint: frames on stdin/stdout, logs on stderr."""
    return run_worker(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main())
