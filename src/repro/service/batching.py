"""Event-loop micro-batching: collect submissions, flush them together.

:class:`BatchWindow` is the scheduler between the query engine's
per-request path and the whole-grid analytic kernels.  Submissions
enqueue into the current *window*; the window flushes as one call when
either bound trips:

* **max_size** — the window is full, flush immediately;
* **max_delay** — the oldest submission has waited long enough.  A delay
  of ``0.0`` (the default) flushes on the next event-loop tick via
  ``call_soon``, so requests that arrive in the same tick — exactly the
  concurrent-burst shape coalescing and batching exploit — share one
  grid call while an isolated request never waits on a timer.

The query engine submits a cell here only when grouping can pay: when
the caller runs inside a task (its same-tick siblings can join the
window), when cells are already pending, or when the delay is nonzero.
A lone cell read by the HTTP front-end outside any task finds the
window empty and is evaluated in place by the engine, without a window
tick.

The flush callable receives the batched items and returns one result per
item (or an exception instance to fail just that item); each submitter's
future resolves accordingly.  A flush that *raises* fails the whole
window — every submitter sees the error, and the window is reset so the
next submission starts clean (errors never poison the scheduler).
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["BatchWindow"]


class BatchWindow:
    """Accumulate submissions and flush them as one batch.

    Parameters
    ----------
    flush:
        Synchronous callable mapping the batched items to a sequence of
        per-item results, aligned with the input.  A result that is an
        ``Exception`` instance rejects that item's future; anything else
        resolves it.
    max_size:
        Flush as soon as this many items are pending.
    max_delay:
        Seconds the oldest pending item may wait; ``0.0`` flushes on the
        next event-loop tick.
    """

    def __init__(
        self,
        flush: Callable[[list], Sequence[object]],
        max_size: int = 64,
        max_delay: float = 0.0,
    ):
        if max_size < 1:
            raise ConfigurationError(
                f"max_size must be >= 1, got {max_size}"
            )
        if max_delay < 0:
            raise ConfigurationError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self._flush_fn = flush
        self._max_size = int(max_size)
        self._max_delay = float(max_delay)
        self._items: list[object] = []
        self._futures: list[asyncio.Future] = []
        self._handle: asyncio.TimerHandle | asyncio.Handle | None = None
        self._flushes = 0

    @property
    def pending(self) -> int:
        """Items waiting in the current window."""
        return len(self._items)

    @property
    def max_size(self) -> int:
        """Current size bound (mutable via :meth:`set_limits`)."""
        return self._max_size

    @property
    def max_delay(self) -> float:
        """Current delay bound (mutable via :meth:`set_limits`)."""
        return self._max_delay

    def set_limits(self, max_size: int, max_delay: float) -> None:
        """Retune the window bounds (validated like the constructor).

        The brownout governor shrinks both under overload so queued work
        drains in smaller, faster bites; already-scheduled flushes keep
        their timer — the new bounds apply from the next submission.
        """
        if max_size < 1:
            raise ConfigurationError(
                f"max_size must be >= 1, got {max_size}"
            )
        if max_delay < 0:
            raise ConfigurationError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self._max_size = int(max_size)
        self._max_delay = float(max_delay)

    @property
    def flushes(self) -> int:
        """Total windows flushed since construction."""
        return self._flushes

    def submit(self, item: object) -> asyncio.Future:
        """Enqueue ``item``; the returned future resolves at flush time.

        Must be called from a running event loop.  The first submission
        of a window schedules the flush; reaching ``max_size`` flushes
        immediately (still delivering through the futures).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._items.append(item)
        self._futures.append(future)
        if len(self._items) >= self._max_size:
            self._cancel_timer()
            self._flush()
        elif self._handle is None:
            if self._max_delay == 0.0:
                self._handle = loop.call_soon(self._flush)
            else:
                self._handle = loop.call_later(self._max_delay, self._flush)
        return future

    def _cancel_timer(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _flush(self) -> None:
        self._handle = None
        if not self._items:
            return
        items, futures = self._items, self._futures
        self._items, self._futures = [], []
        self._flushes += 1
        try:
            results = self._flush_fn(items)
        except Exception as exc:
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
                    # Mark retrieved so an abandoned waiter cannot turn
                    # into an "exception was never retrieved" warning.
                    future.exception()
            return
        if len(results) != len(items):
            mismatch = ConfigurationError(
                f"flush returned {len(results)} results for "
                f"{len(items)} items"
            )
            for future in futures:
                if not future.done():
                    future.set_exception(mismatch)
                    future.exception()
            return
        for future, result in zip(futures, results):
            if future.done():
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
                future.exception()
            else:
                future.set_result(result)

    def fail_pending(self, exc_factory: Callable[[], Exception]) -> None:
        """Fail every pending submission with a *fresh* typed exception.

        Graceful shutdown uses this to complete queued waiters with a
        structured :class:`~repro.exceptions.ServiceStoppingError`
        (→ 503 envelope) instead of a bare cancellation.  ``exc_factory``
        builds one instance per future — exception instances must not be
        shared across raises, or their tracebacks cross-contaminate.
        """
        self._cancel_timer()
        futures = self._futures
        self._items, self._futures = [], []
        for future in futures:
            if not future.done():
                future.set_exception(exc_factory())
                future.exception()

    def close(self) -> None:
        """Cancel any scheduled flush and fail the pending submissions."""
        self._cancel_timer()
        items, futures = self._items, self._futures
        self._items, self._futures = [], []
        for future in futures:
            if not future.done():
                future.cancel()
        del items
