"""The fabric worker process, forked from the coordinator.

:func:`spawn_child` forks the coordinator, which has already imported
``repro`` and numpy and built the job's
:class:`~repro.fabric.jobs.JobPlan`, so a worker starts without an
interpreter launch, an import or a plan build: the child evaluates the
plan it inherits.  The HELLO frame on its stdin carries the rest (node
id, heartbeat interval, optional deadline).  The coordinator spawns
every worker itself (nodes ``1..n``) and reads each one's stdout pipe.

Data flow:

* **down** — WORK frames (``{"to": k}``) addressed to this node are
  queued for evaluation; ``shutdown`` (or EOF on stdin) stops it.
* **up** — RESULT / DONE / ERROR / HEARTBEAT / READY frames on stdout.

Evaluation runs on a separate thread against the inherited plan.  The
coordinator forks before it evaluates any cell itself, and no evaluator
changes a spec, so every worker's plan is the one
:func:`~repro.fabric.jobs.build_job` returned.

Forking needs a POSIX ``os.fork``.  Python 3.12 warns
(``DeprecationWarning``) on every ``os.fork`` in a process with more
than one OS thread, and numpy's OpenBLAS thread pool always makes it
more than one.  The warning is left in place: the coordinator forks
before it starts any reader thread, and OpenBLAS's own ``atfork``
handler quiesces its pool, so the child starts with one consistent
thread.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
import traceback
from typing import BinaryIO, NoReturn

from repro.fabric import wire
from repro.fabric.gridslice import GridSlice
from repro.fabric.jobs import JobPlan
from repro.obs.metrics import disable_telemetry
from repro.resilience import chaos
from repro.resilience.deadline import Deadline, deadline_from_env

__all__ = [
    "WorkerProcess",
    "spawn_child",
    "run_worker",
]


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------


class WorkerProcess:
    """A forked worker, with the part of ``subprocess.Popen`` the
    coordinator uses: ``pid``, ``stdin``, ``stdout``, ``poll``,
    ``wait`` and ``kill``.

    ``poll`` and ``wait`` reap the child with ``waitpid``, so a worker
    never lingers as a zombie and its CPU time is added to the
    coordinator's ``RUSAGE_CHILDREN``.
    """

    def __init__(self, pid: int, stdin: BinaryIO, stdout: BinaryIO):
        self.pid = pid
        self.stdin = stdin
        self.stdout = stdout
        self.returncode: int | None = None

    def poll(self) -> int | None:
        """The exit code if the child has exited (reaping it), else None."""
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        """Reap the child; raise ``subprocess.TimeoutExpired`` if it is
        still running after ``timeout`` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(
                    f"fabric worker {self.pid}", timeout
                )
            delay = min(delay * 2, 0.05)
            time.sleep(delay)
        return self.returncode

    def kill(self) -> None:
        """SIGKILL the child unless it has already been reaped.

        An exited but unreaped child keeps its pid, so the signal can
        never reach a different process.
        """
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


def spawn_child(
    hello: dict, plan: JobPlan, extra_env: dict[str, str] | None = None
) -> WorkerProcess:
    """Fork one worker process that evaluates ``plan``; send it HELLO.

    ``extra_env`` overlays the child's environment — the coordinator
    uses it to hand the remaining request budget down as
    ``REPRO_DEADLINE_MS``.  The caller must fork every worker before it
    starts any thread of its own, so the child copies no lock another
    thread holds.
    """
    child_in, parent_out = os.pipe()
    parent_in, child_out = os.pipe()
    # Whatever is still buffered would otherwise be written twice.
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        _worker_main(child_in, child_out, plan, extra_env)
    os.close(child_in)
    os.close(child_out)
    proc = WorkerProcess(
        pid, os.fdopen(parent_out, "wb"), os.fdopen(parent_in, "rb")
    )
    wire.write_frame(proc.stdin, hello)
    return proc


def _worker_main(
    stdin_fd: int,
    stdout_fd: int,
    plan: JobPlan,
    extra_env: dict[str, str] | None,
) -> NoReturn:
    """The forked child: become a bare worker process, run, and exit.

    It leaves through ``os._exit`` and never returns into the frames
    it was forked from, whose ``finally`` blocks, ``atexit`` handlers
    and buffered output belong to the coordinator.
    """
    code = 1
    try:
        os.dup2(stdin_fd, 0)
        os.dup2(stdout_fd, 1)
        # Keeping a copy of its own or a sibling's pipe end would hide
        # the coordinator's EOF from that worker.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        if extra_env:
            os.environ.update(extra_env)
        disable_telemetry()
        chaos.uninstall_plan()
        code = run_worker(os.fdopen(0, "rb"), os.fdopen(1, "wb"), plan)
    except BaseException:
        # Report like the interpreter would, then exit below regardless.
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# The worker node
# ---------------------------------------------------------------------------


class _WorkerNode:
    def __init__(self, inp, out, plan: JobPlan):
        self._in = inp
        self._out = out
        self._plan = plan
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

        self._send({"type": "ready", "node": self.node, "pid": os.getpid()})
        threading.Thread(
            target=self._heartbeat_loop,
            args=(interval,),
            daemon=True,
            name="heartbeat",
        ).start()
        evaluator = threading.Thread(
            target=self._evaluate_loop,
            args=(self._plan,),
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


def run_worker(inp, out, plan: JobPlan) -> int:
    """Run one worker node evaluating ``plan`` over the given streams."""
    return _WorkerNode(inp, out, plan).run()
