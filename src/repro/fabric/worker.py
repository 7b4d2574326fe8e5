"""The fabric worker process: ``python -m repro.fabric.worker``.

A worker is one node of the fabric tree.  It is configured entirely by
the HELLO frame on stdin (node id, worker count, tree arity,
heartbeat interval, and the :class:`~repro.fabric.jobs.FabricJob`), so
the command line is bare and the process is spawnable by either the
coordinator or another worker.

Tree shape: the coordinator is node ``0``; workers are nodes ``1..n``
in heap order, so node ``k``'s children are ``arity*k + 1 ..
arity*k + arity`` (capped at ``n``).  Each worker spawns its own
children, which is what makes deep trees cost O(arity) spawns per node
instead of O(n) at the coordinator.

Data flow:

* **down** — frames addressed by node id (``{"to": k}``); a worker
  consumes frames addressed to itself and routes the rest to the child
  whose subtree contains the target.  ``shutdown`` broadcasts.
* **up** — RESULT / DONE / ERROR / HEARTBEAT / READY frames; relay
  threads forward children's raw frames verbatim (gather up the tree),
  and a child pipe hitting EOF emits a ``dead`` frame so the
  coordinator can re-shard the lost subtree's slices.

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
    "children_of",
    "parent_of",
    "route_step",
    "subtree_of",
    "spawn_child",
    "run_worker",
    "main",
]


# ---------------------------------------------------------------------------
# Tree topology (heap numbering, coordinator = node 0)
# ---------------------------------------------------------------------------


def children_of(node: int, arity: int, n_workers: int) -> list[int]:
    """Direct children of ``node`` in an ``arity``-ary heap of workers."""
    first = arity * node + 1
    return [c for c in range(first, first + arity) if c <= n_workers]


def parent_of(node: int, arity: int) -> int:
    """The parent node id (node 0 is the coordinator and has none)."""
    if node < 1:
        raise ValueError(f"node {node} has no parent")
    return (node - 1) // arity


def route_step(node: int, target: int, arity: int) -> int:
    """The direct child of ``node`` whose subtree contains ``target``."""
    hop = target
    while hop > 0:
        parent = parent_of(hop, arity)
        if parent == node:
            return hop
        hop = parent
    raise ValueError(f"node {target} is not in the subtree of {node}")


def subtree_of(node: int, arity: int, n_workers: int) -> list[int]:
    """``node`` and every descendant worker, ascending."""
    members = [node] if node >= 1 else []
    frontier = children_of(node, arity, n_workers)
    while frontier:
        members.extend(frontier)
        frontier = [
            grandchild
            for child in frontier
            for grandchild in children_of(child, arity, n_workers)
        ]
    return sorted(members)


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
        self._children: dict[int, subprocess.Popen] = {}
        self._done_cells = 0
        self.node = -1
        self.arity = 1
        self.n_workers = 0
        self.deadline: Deadline | None = None

    def _send(self, message: dict) -> None:
        try:
            wire.write_frame(self._out, message, lock=self._out_lock)
        except (BrokenPipeError, ValueError, OSError):
            # Parent is gone; we are about to notice EOF and exit.
            self._stop.set()

    def _forward_raw(self, raw: bytes) -> None:
        try:
            wire.write_raw_frame(self._out, raw, lock=self._out_lock)
        except (BrokenPipeError, ValueError, OSError):
            self._stop.set()

    # -- threads ------------------------------------------------------

    def _relay_loop(self, child_node: int, proc: subprocess.Popen) -> None:
        """Forward one child's frames verbatim; report EOF as a death."""
        stream = proc.stdout
        while True:
            try:
                raw = wire.read_raw_frame(stream)
            except wire.FrameError:
                raw = None  # killed mid-frame: same as EOF
            if raw is None:
                break
            self._forward_raw(raw)
        if not self._stop.is_set():
            self._send({"type": "dead", "node": child_node})

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
        self.n_workers = int(hello["n_workers"])
        self.arity = int(hello["arity"])
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

        for child_node in children_of(self.node, self.arity, self.n_workers):
            child_hello = dict(hello, node=child_node)
            proc = spawn_child(child_hello)
            self._children[child_node] = proc
            threading.Thread(
                target=self._relay_loop,
                args=(child_node, proc),
                daemon=True,
                name=f"relay-{child_node}",
            ).start()

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
            if frame is None:
                break
            kind = frame.get("type")
            if kind == "shutdown":
                self._broadcast(frame)
                break
            if kind == "work":
                target = int(frame["to"])
                if target == self.node:
                    self._work_queue.put(frame)
                else:
                    self._route_down(target, frame)

        self._shutdown(evaluator)
        return 0

    def _broadcast(self, frame: dict) -> None:
        for proc in self._children.values():
            self._child_write(proc, frame)

    def _route_down(self, target: int, frame: dict) -> None:
        try:
            hop = route_step(self.node, target, self.arity)
            proc = self._children[hop]
        except (ValueError, KeyError):
            self._send(
                {
                    "type": "error",
                    "node": self.node,
                    "error": f"no route from node {self.node} to {target}",
                }
            )
            return
        self._child_write(proc, frame)

    def _child_write(self, proc: subprocess.Popen, frame: dict) -> None:
        try:
            wire.write_frame(proc.stdin, frame)
        except (BrokenPipeError, ValueError, OSError):
            pass  # the relay thread reports the death

    def _shutdown(self, evaluator: threading.Thread) -> None:
        self._stop.set()
        self._work_queue.put(None)
        for proc in self._children.values():
            try:
                proc.stdin.close()
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for proc in self._children.values():
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        evaluator.join(timeout=1.0)


def run_worker(inp, out) -> int:
    """Run one worker node over the given binary streams."""
    return _WorkerNode(inp, out).run()


def main() -> int:
    """Process entrypoint: frames on stdin/stdout, logs on stderr."""
    return run_worker(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main())
