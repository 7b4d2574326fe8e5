"""Spans around calls into the program's layers, installed from outside.

:class:`Tracer` replaces a public function or method of the program —
at the module attribute its caller looks it up through — with a wrapper
that accumulates call counts and time per layer.
Nothing inside the program changes.  A layer whose module or attribute
no longer exists is recorded as *absent* instead of failing the run, so
a change that deletes or renames a layer still gets measured.

Coroutine methods are timed per resumption: only the slices in which
the coroutine itself runs count, not the time it waits suspended while
the event loop serves other requests.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: Spans read the vDSO wall clock: a CPU-time clock costs a system call
#: per read on this kind of virtual machine, several microseconds a
#: span.  The slices timed are synchronous, so wall time is busy time
#: unless the process is preempted inside one.
_clock = time.perf_counter


class _Timed:
    """Drive ``coro`` step by step, adding the time of each step to a span."""

    __slots__ = ("_coro", "_add", "_name")

    def __init__(self, coro, add, name):
        self._coro, self._add, self._name = coro, add, name

    def __await__(self):
        coro, busy = self._coro, 0.0
        value, error = None, None
        try:
            while True:
                started = _clock()
                try:
                    if error is None:
                        step = coro.send(value)
                    else:
                        step = coro.throw(error)
                except StopIteration as stop:
                    busy += _clock() - started
                    return stop.value
                busy += _clock() - started
                try:
                    value, error = (yield step), None
                except BaseException as exc:  # re-raised inside ``coro``
                    value, error = None, exc
        finally:
            self._add(self._name, busy)


class Tracer:
    """Per-layer call counts and seconds, plus a list of absent layers."""

    def __init__(self):
        self._lock = threading.Lock()
        self.stats: dict[str, list] = {}
        self.absent: list[str] = []

    def reset(self) -> None:
        """Start a fresh window (atomic swap; safe in a signal handler)."""
        self.stats = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                self.stats[name] = [calls, seconds]
            else:
                entry[0] += calls
                entry[1] += seconds

    # -- installation ---------------------------------------------------

    def _resolve(self, layer: str, module: str, path: str):
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if layer not in self.absent:
                self.absent.append(layer)
            return None, None, None
        return owner, attr, original

    def wrap(self, layer: str, module: str, path: str, name: str | None = None,
             before=None, after=None):
        """Time every call of ``module.path`` under span ``name``.

        ``before(args)`` runs ahead of the call and ``after(result)``
        after it, both outside the timed slice, for counts that need the
        arguments or the result.  Returns False if the target is absent.
        """
        owner, attr, original = self._resolve(layer, module, path)
        if owner is None:
            return False
        span = name or path
        add = self.add

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            started = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                add(span, _clock() - started)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        return True

    def wrap_coroutine(self, layer: str, module: str, path: str,
                       name: str | None = None):
        """Time the running slices of the coroutine function ``module.path``."""
        owner, attr, original = self._resolve(layer, module, path)
        if owner is None:
            return False
        span = name or path
        add = self.add

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            return await _Timed(original(*args, **kwargs), add, span)

        setattr(owner, attr, wrapper)
        return True

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(entry) for name, entry in self.stats.items()},
            "absent": list(self.absent),
        }
