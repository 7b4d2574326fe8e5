"""The asyncio query engine: response cache -> LRU -> coalescing -> kernels.

Chen & Sheu's closed forms make a bandwidth cell cheap to compute but
highly repetitive across callers — millions of users sweep the same
handful of machine shapes.  :class:`QueryEngine` exploits that shape
with a tiered pipeline.  The first tier is keyed on the raw request
bytes, the others on the normalized
:class:`~repro.service.protocol.Query`:

0. **Response cache** — a repeat of a request body already answered
   from the result LRU returns that answer's encoded ``source="cache"``
   envelope without decoding or validating the body again.
1. **Result LRU** — finished answers, returned instantly
   (``source="cache"``).
2. **In-flight coalescing map** — a query identical to one currently
   computing awaits the *same* future instead of recomputing
   (``source="coalesced"``): a thundering herd of identical cold
   requests costs one evaluation.  Failures propagate to every waiter
   but are evicted immediately — an error can never poison the map or
   the LRU.
3. **The batched analytic engine** — a sweep calls
   :func:`~repro.analysis.batch.scheme_bus_profile` at once, in the
   caller's own step; single cells go through
   :func:`~repro.analysis.batch.evaluate_cells`.  A cell from a caller
   outside any task (the HTTP front-end's synchronous step) that finds
   the batch window empty with no delay is evaluated at once too, with
   no task and no window tick.  Otherwise a cell enqueues into a
   :class:`~repro.service.batching.BatchWindow`, and distinct queries
   arriving in the same event-loop tick that share a profile signature
   are answered by **one** grid call.

Every request, whichever tier answers it, passes the same gate first:
the ``service.engine`` chaos site, the shutdown and deadline checks,
admission and the brownout governor's criticality-class shedding.

Values served from any tier are bit-identical to direct
:func:`~repro.analysis.evaluate.analytic_bandwidth` /
:func:`~repro.analysis.batch.scheme_bus_profile` calls — the grid
kernels are elementwise in the bus count, and the differential suite
pins all four paths.

The engine is single-event-loop by design: state is only touched from
the loop thread, and the analytic kernels are fast enough (micro- to
milliseconds against a warm pmf cache) to run inline without starving
the loop.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import OrderedDict

import asyncio

from repro.analysis.batch import (
    GridCell,
    SkippedCell,
    evaluate_cells,
    scheme_bus_profile,
)
from repro.core.request_models import RequestModel
from repro.exceptions import (
    AdmissionError,
    ConfigurationError,
    DeadlineExceededError,
    ServiceStoppingError,
)
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.resilience import chaos
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.brownout import BrownoutGovernor
from repro.resilience.deadline import Deadline
from repro.service.admission import AdmissionController
from repro.service.batching import BatchWindow
from repro.service.protocol import (
    Query,
    ServiceLimits,
    build_model,
    parse_query,
)

__all__ = ["QueryResponse", "QueryEngine"]

#: Longest request body the response cache keeps as a key (a 512-cell
#: sweep body is about 2.5 KiB).
_MAX_REMEMBERED_BODY = 4096


@dataclasses.dataclass
class QueryResponse:
    """One answered query: the values, the audit trail, and the tier."""

    query: Query
    values: dict[int, float]
    skipped: list[dict[str, object]]
    #: ``"cache"`` | ``"coalesced"`` | ``"computed"``
    source: str
    #: The JSON envelope's bytes, kept by :meth:`QueryEngine.encoded_payload`
    #: on ``"cache"`` responses.  A response-cache hit returns the same
    #: instance to every request, so treat a response as read-only.
    encoded: bytes | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def value(self) -> float:
        """The single-cell bandwidth (only for non-sweep queries)."""
        return self.values[self.query.bus_counts[0]]

    def payload(self) -> dict[str, object]:
        """JSON-ready success envelope."""
        query = self.query
        if query.is_sweep:
            result: dict[str, object] = {
                "scheme": query.scheme,
                "N": query.n_processors,
                "M": query.n_memories,
                "r": query.rate,
                "model": query.model,
                "values": {str(b): v for b, v in sorted(self.values.items())},
                "skipped": self.skipped,
            }
        else:
            result = {
                "scheme": query.scheme,
                "N": query.n_processors,
                "M": query.n_memories,
                "B": query.bus_counts[0],
                "r": query.rate,
                "model": query.model,
                "bandwidth": self.value,
            }
        return {"ok": True, "source": self.source, "result": result}


def _skip_record(cell: SkippedCell) -> dict[str, object]:
    return {
        "scheme": cell.scheme,
        "B": cell.n_buses,
        "reason": cell.reason,
        "reason_code": cell.reason_code,
    }


class QueryEngine:
    """Serve bandwidth queries through cache, coalescing and batching.

    Parameters
    ----------
    cache_size:
        Capacity of the result LRU and of the response cache; ``0``
        disables both (every request either coalesces onto an
        in-flight computation or computes — the configuration the
        coalescing benchmarks use).
    batch_max_size / batch_max_delay:
        :class:`~repro.service.batching.BatchWindow` bounds for
        single-cell micro-batching.  The default delay of ``0.0``
        batches per event-loop tick: cells submitted from tasks in one
        tick share a flush, while a cell from outside any task that
        finds the window empty is evaluated in place (see
        :meth:`execute`).  A nonzero delay batches every cell.
    admission:
        Optional :class:`~repro.service.admission.AdmissionController`;
        checked before any other tier with the engine's current queue
        depth.
    limits:
        :class:`~repro.service.protocol.ServiceLimits` applied when
        parsing payloads through :meth:`execute_payload`.
    brownout:
        Optional :class:`~repro.resilience.brownout.BrownoutGovernor`
        evaluated per request: it may shed the request by criticality
        class (429, ``reason="brownout"``) and shrink the batch window
        under overload.
    batch_breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        guarding the batch-evaluation tier; while open, batched queries
        fail fast with a 503-mapped
        :class:`~repro.exceptions.BreakerOpenError`.
    """

    def __init__(
        self,
        cache_size: int = 4096,
        batch_max_size: int = 64,
        batch_max_delay: float = 0.0,
        admission: AdmissionController | None = None,
        limits: ServiceLimits | None = None,
        model_cache_size: int = 512,
        brownout: BrownoutGovernor | None = None,
        batch_breaker: CircuitBreaker | None = None,
    ):
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if model_cache_size < 1:
            raise ConfigurationError(
                f"model_cache_size must be >= 1, got {model_cache_size}"
            )
        self._cache_size = int(cache_size)
        self._admission = admission
        self.limits = limits or ServiceLimits()
        #: (sweep, raw body) -> its "cache" response, encoded lazily.
        self._responses: OrderedDict[tuple[bool, bytes], QueryResponse] = (
            OrderedDict()
        )
        self._results: OrderedDict[Query, dict] = OrderedDict()
        self._inflight: dict[Query, asyncio.Future] = {}
        self._models: OrderedDict[tuple, RequestModel] = OrderedDict()
        self._model_cache_size = int(model_cache_size)
        self._batch = BatchWindow(
            self._flush_cells,
            max_size=batch_max_size,
            max_delay=batch_max_delay,
        )
        #: Base batch bounds the brownout governor shrinks from/recovers to.
        self._batch_base = (int(batch_max_size), float(batch_max_delay))
        self.brownout = brownout
        self.batch_breaker = batch_breaker
        self._stopping = False
        self._tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """In-flight computations plus cells queued in the batch window."""
        return len(self._inflight) + self._batch.pending

    @property
    def inflight_count(self) -> int:
        """Queries currently computing (coalescing-map size)."""
        return len(self._inflight)

    @property
    def cache_size(self) -> int:
        """Finished results currently held by the LRU."""
        return len(self._results)

    # ------------------------------------------------------------------
    # The three-tier request path
    # ------------------------------------------------------------------

    async def execute_payload(
        self,
        payload: object,
        sweep: bool = False,
        deadline: Deadline | None = None,
    ) -> QueryResponse:
        """Parse a JSON payload and execute it.

        ``payload`` is either a decoded JSON object or the raw request
        body bytes.  A raw body that repeats one already answered from
        the result LRU is served from the response cache: it skips
        ``json.loads`` and :func:`~repro.service.protocol.parse_query`
        but passes the same gate as every other request.
        """
        key = None
        if isinstance(payload, bytes):
            key = (sweep, payload)
            registry = get_registry()
            hit = self._responses.get(key)
            if hit is not None:
                self._responses.move_to_end(key)
                registry.increment("service.encode.hits")
                return await self.execute(hit.query, deadline, cached=hit)
            registry.increment("service.encode.misses")
            try:
                payload = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"request body is not valid JSON: {exc}"
                ) from exc
        query = parse_query(payload, sweep=sweep, limits=self.limits)
        response = await self.execute(query, deadline=deadline)
        if key is not None and response.source == "cache":
            self._remember(key, response)
        return response

    async def execute(
        self,
        query: Query,
        deadline: Deadline | None = None,
        *,
        cached: QueryResponse | None = None,
    ) -> QueryResponse:
        """Answer ``query`` from the cheapest tier that can serve it.

        ``deadline`` is the request's remaining end-to-end budget:
        checked on entry, and bounding the wait on any (own or
        coalesced-onto) computation — expiry surfaces as a typed
        :class:`~repro.exceptions.DeadlineExceededError` (→ 504) while
        the computation itself runs to completion for other waiters and
        the LRU.

        ``cached`` is a response-cache entry for ``query``: the request
        passes the same gate (chaos site, shutdown and deadline checks,
        admission, brownout) and is then answered with it.

        A sweep is evaluated in this step, and so is a cell when the
        caller runs outside any task and finds the batch window empty
        with a zero delay: a one-cell flush with the same breaker, chaos
        site and ``service.batch.*`` counters.  The answer's future stays
        in the coalescing map until the tick ends, so identical requests
        in the same tick coalesce onto it.
        """
        registry = get_registry()
        kind = "sweep" if query.is_sweep else "query"
        await chaos.ainject("service.engine")
        if self._stopping:
            raise ServiceStoppingError(
                "service is shutting down; not accepting new queries"
            )
        if deadline is not None:
            deadline.check("service.engine")
        if self._admission is not None:
            self._admission.admit(queue_depth=self.queue_depth)
        brownout = self.brownout
        if brownout is not None:
            level = brownout.evaluate(self.queue_depth)
            if brownout.should_shed(query.criticality):
                raise AdmissionError(
                    f"brownout level {level} shed criticality-class-"
                    f"{query.criticality} request",
                    retry_after_seconds=0.05 * level,
                    reason="brownout",
                )
            self._batch.set_limits(
                *brownout.batch_limits(*self._batch_base)
            )
        registry.increment("service.requests", kind=kind)

        started = time.perf_counter()
        try:
            with registry.time_block("service.latency_seconds", kind=kind):
                if cached is not None:
                    registry.increment("service.cache.hits", kind=kind)
                    return cached
                return await self._execute_tiers(
                    query, kind, registry, deadline
                )
        finally:
            if brownout is not None:
                brownout.observe_latency(time.perf_counter() - started)

    async def _execute_tiers(
        self, query, kind, registry, deadline
    ) -> QueryResponse:
        cached = self._lru_get(query)
        if cached is not None:
            registry.increment("service.cache.hits", kind=kind)
            return self._response(query, cached, "cache")
        registry.increment("service.cache.misses", kind=kind)

        inflight = self._inflight.get(query)
        if inflight is not None:
            registry.increment("service.coalesced", kind=kind)
            result = await self._await_result(inflight, deadline)
            return self._response(query, result, "coalesced")

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[query] = future
        if self._inline(query):
            # Answered in this step, but left in the coalescing map until
            # the tick ends: identical requests read in the same tick
            # coalesce onto it, and queue_depth counts the burst.
            loop.call_soon(self._inflight.pop, query, None)
            try:
                result = self._evaluate_now(query)
            except Exception as exc:
                self._fail(future, exc)
                raise
            self._succeed(query, future, result, kind)
            return self._response(query, result, "computed")
        # The computation runs in its own task so a leader that times
        # out (deadline) or disconnects cannot abandon the coalesced
        # waiters: the task fulfills the shared future regardless, and
        # the finished result still lands in the LRU.
        task = loop.create_task(self._fulfill(query, future, kind))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        result = await self._await_result(future, deadline)
        return self._response(query, result, "computed")

    async def _await_result(
        self, future: asyncio.Future, deadline: Deadline | None
    ) -> dict:
        """Await a shared in-flight future, bounded by the deadline.

        Neither a timeout nor caller cancellation cancels the shared
        computation (``shield``, or a separate waiter under a deadline)
        — other coalesced waiters and the result LRU still get the
        answer.  A future already settled (an answer evaluated in place
        earlier in this tick) is read without suspending.
        """
        if future.done():
            return future.result()
        if deadline is None:
            return await asyncio.shield(future)
        # A timer and a done-callback rather than ``asyncio.wait_for``,
        # which needs a current task: the HTTP front-end runs a request
        # outside any task until it first suspends.
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()

        def wake(_=None):
            if not waiter.done():
                waiter.set_result(None)

        timer = loop.call_later(deadline.remaining_seconds(), wake)
        future.add_done_callback(wake)
        try:
            await waiter
        finally:
            timer.cancel()
            future.remove_done_callback(wake)
        if future.done():
            return future.result()
        deadline.check("service.engine")
        raise DeadlineExceededError(
            f"deadline of {deadline.budget_ms:.0f}ms exceeded at "
            f"service.engine",
            site="service.engine",
            budget_ms=deadline.budget_ms,
        )

    async def _fulfill(
        self, query: Query, future: asyncio.Future, kind: str
    ) -> None:
        """Compute ``query`` and resolve its coalescing future.

        Failures resolve the future too (every waiter sees the typed
        error) and are evicted immediately — an error can never poison
        the coalescing map or the LRU.
        """
        try:
            result = await self._compute(query)
        except asyncio.CancelledError:
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:
            self._fail(future, exc)
        else:
            self._succeed(query, future, result, kind)
        finally:
            self._inflight.pop(query, None)

    @staticmethod
    def _fail(future: asyncio.Future, exc: Exception) -> None:
        if not future.done():
            future.set_exception(exc)
            future.exception()

    def _succeed(
        self, query: Query, future: asyncio.Future, result: dict, kind: str
    ) -> None:
        if not future.done():
            future.set_result(result)
        self._lru_put(query, result)
        get_registry().increment("service.computed", kind=kind)

    def _response(
        self, query: Query, result: dict, source: str
    ) -> QueryResponse:
        return QueryResponse(
            query=query,
            values=dict(result["values"]),
            skipped=list(result["skipped"]),
            source=source,
        )

    # ------------------------------------------------------------------
    # Tier 3: computation through the batched analytic engine
    # ------------------------------------------------------------------

    def _model_for(self, query: Query) -> RequestModel:
        """One shared model instance per model signature (LRU-capped).

        Reusing the instance is what lets the micro-batcher group
        same-model cells into one grid call — and it skips rebuilding
        the N x M fraction matrix on every request.
        """
        signature = query.model_signature()
        model = self._models.get(signature)
        if model is None:
            model = build_model(query)
            self._models[signature] = model
            while len(self._models) > self._model_cache_size:
                self._models.popitem(last=False)
        else:
            self._models.move_to_end(signature)
        return model

    def _inline(self, query: Query) -> bool:
        """Whether to evaluate ``query`` at once, in the caller's step.

        A sweep never joins the batch window, so it always is.  A cell
        is when nothing could join its window: the caller runs outside
        any task (the HTTP front-end's synchronous step, where a lone
        cell would otherwise pay for a task and a window tick), the
        window is empty and its delay is zero.  Cells read from several
        connections in one tick are then each evaluated in place, not
        grouped.  A caller inside a task (an ``asyncio.gather``) keeps
        same-tick batching: its siblings are tasks that run later in
        the same tick and join the window.
        """
        if query.is_sweep:
            return True
        batch = self._batch
        return (
            not batch.pending
            and batch.max_delay == 0.0
            and asyncio.current_task() is None
        )

    def _evaluate_now(self, query: Query) -> dict:
        """Evaluate ``query`` at once: the sweep, or a one-cell flush."""
        model = self._model_for(query)
        if query.is_sweep:
            with span("service.sweep", scheme=query.scheme):
                profile = scheme_bus_profile(
                    query.scheme,
                    query.n_processors,
                    query.n_memories,
                    list(query.bus_counts),
                    model,
                    **dict(query.network_kwargs),
                )
            return {
                "values": dict(profile.values),
                "skipped": [_skip_record(cell) for cell in profile.skipped],
            }
        (value,) = self._flush_cells([(query, model)], inline=True)
        if isinstance(value, Exception):
            raise value
        return {"values": {query.bus_counts[0]: value}, "skipped": []}

    async def _compute(self, query: Query) -> dict:
        """Evaluate the cell ``query`` through the batch window."""
        value = await self._batch.submit((query, self._model_for(query)))
        return {"values": {query.bus_counts[0]: value}, "skipped": []}

    def _flush_cells(self, items: list, inline: bool = False) -> list:
        """Batch-window flush: one grid call per profile-signature group.

        Infeasible cells come back as per-item
        :class:`~repro.exceptions.ConfigurationError` rejections carrying
        the audited skip reason, exactly what the per-cell constructor
        path would have raised.  The optional batch breaker guards the
        *tier*: flush-level failures trip it (every waiter in the window
        then fails fast with a 503-mapped
        :class:`~repro.exceptions.BreakerOpenError` while it is open);
        per-item skips are organic rejections and never count.

        ``inline`` marks a one-cell flush evaluated in the requesting
        step without the window (counted in ``service.batch.inline``).
        """
        breaker = self.batch_breaker
        if breaker is not None:
            breaker.check()
        registry = get_registry()
        # A query's network kwargs are already GridCell's canonical
        # sorted, hashable form.
        cells = [
            GridCell(
                query.scheme,
                query.n_processors,
                query.n_memories,
                query.bus_counts[0],
                model,
                query.network_kwargs,
            )
            for query, model in items
        ]
        groups = len({cell.profile_signature() for cell in cells})
        registry.increment("service.batch.flushes")
        if inline:
            registry.increment("service.batch.inline")
        registry.increment("service.batch.cells", len(cells))
        registry.increment("service.batch.groups", groups)
        try:
            # Inside the try so an injected batch-tier fault is a
            # recorded breaker failure, like any real flush failure.
            chaos.inject("service.batch")
            with span("service.batch_flush", cells=len(cells), groups=groups):
                raw = evaluate_cells(cells)
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return [
            ConfigurationError(result.reason)
            if isinstance(result, SkippedCell)
            else result
            for result in raw
        ]

    # ------------------------------------------------------------------
    # Tier 1: the result LRU
    # ------------------------------------------------------------------

    def _lru_get(self, query: Query) -> dict | None:
        result = self._results.get(query)
        if result is not None:
            self._results.move_to_end(query)
        return result

    def _lru_put(self, query: Query, result: dict) -> None:
        if self._cache_size == 0:
            return
        self._results[query] = result
        self._results.move_to_end(query)
        while len(self._results) > self._cache_size:
            self._results.popitem(last=False)
            get_registry().increment("service.cache.evictions")

    # ------------------------------------------------------------------
    # Tier 0: the response cache (raw request bytes -> encoded envelope)
    # ------------------------------------------------------------------

    def _remember(
        self, key: tuple[bool, bytes], response: QueryResponse
    ) -> None:
        """Keep a result-LRU answer for repeats of its exact request body.

        Only ``"cache"`` responses are kept: a ``"computed"`` or
        ``"coalesced"`` envelope names a tier a repeat would not use.
        Bodies over :data:`_MAX_REMEMBERED_BODY` bytes are not kept, so
        padded bodies cannot fill memory through the keys.
        """
        if self._cache_size == 0 or len(key[1]) > _MAX_REMEMBERED_BODY:
            return
        self._responses[key] = response
        while len(self._responses) > self._cache_size:
            self._responses.popitem(last=False)
            get_registry().increment("service.encode.evictions")

    def encoded_payload(self, response: QueryResponse) -> bytes:
        """The response's JSON envelope as bytes.

        A ``"cache"`` response keeps its bytes, so a response-cache hit
        is written out without rebuilding the envelope or running
        ``json.dumps``; the first caller to ask encodes it.
        """
        encoded = response.encoded
        if encoded is None:
            encoded = json.dumps(response.payload()).encode()
            if response.source == "cache":
                response.encoded = encoded
        return encoded

    def clear_cache(self) -> None:
        """Drop every finished result (in-flight computations are kept)."""
        self._results.clear()
        self._responses.clear()

    @property
    def stopping(self) -> bool:
        """True once graceful shutdown has begun."""
        return self._stopping

    def begin_shutdown(self) -> None:
        """Start graceful shutdown: fail every waiter with a typed 503.

        New queries are rejected, queued batch submissions and in-flight
        coalescing futures are *completed* with
        :class:`~repro.exceptions.ServiceStoppingError` — a waiter is
        never left pending.  Each future gets its own exception instance
        (instances must not be shared across raises).  Idempotent.
        """
        if self._stopping:
            return
        self._stopping = True
        get_registry().record_event(
            "service.shutdown_begun",
            inflight=len(self._inflight),
            batched=self._batch.pending,
        )
        self._batch.fail_pending(
            lambda: ServiceStoppingError(
                "service is shutting down; batched query abandoned"
            )
        )
        for future in tuple(self._inflight.values()):
            if not future.done():
                future.set_exception(
                    ServiceStoppingError(
                        "service is shutting down; in-flight query failed"
                    )
                )
                future.exception()
        self._inflight.clear()

    def close(self) -> None:
        """Tear down the batch window, cancelling queued submissions."""
        self._batch.close()
        for task in tuple(self._tasks):
            if not task.done():
                try:
                    task.cancel()
                except RuntimeError:
                    # The owning loop is already closed; the task can
                    # never run again, so there is nothing to cancel.
                    pass
        self._tasks.clear()
