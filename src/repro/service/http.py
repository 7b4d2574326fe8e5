"""Stdlib HTTP/1.1 front-end over the query engine (one asyncio.Protocol).

No web framework: a long-lived ``asyncio`` server parses minimal
HTTP/1.1 requests (request line, headers, ``Content-Length`` body) in
place from each connection's buffer and maps four routes onto the
engine::

    POST /query    one (scheme, N, M, B, r, model) cell
    POST /sweep    one scheme over a bus-count vector
    GET  /healthz  liveness + engine occupancy
    GET  /metrics  Prometheus text dump of the active telemetry registry

A connection answers its requests one at a time in arrival order
(pipelined requests wait in the buffer), with keep-alive until the
client sends ``Connection: close``.  A request's handler runs at once,
outside any task, until it first suspends: a repeat answered from the
engine's response cache, and a lone cold cell or sweep the engine
evaluates in place, is written back from the same callback that read
it, and only a request that must wait (a batch window already holding
cells or with a delay, a coalesced computation still running) gets an
:class:`asyncio.Task`.  While the
transport's write buffer is full, no further request is parsed.

The body of a ``/query`` or ``/sweep`` goes to the engine as raw bytes,
so a repeat is looked up in the engine's response cache before it is
decoded.

Success responses are the engine's JSON envelopes; every failure —
malformed JSON, oversized bodies, invalid parameters, shed requests,
expired deadlines, tripped breakers, shutdown — is a structured JSON
error envelope from :func:`repro.service.protocol.error_envelope` with
the matching status code (400/413/429/503/504), never a traceback.
Shed and breaker-open responses additionally carry a ``Retry-After``
header with the deterministic hint rounded up to whole seconds.

Requests may carry an ``X-Repro-Deadline-Ms`` header: the remaining
end-to-end budget in milliseconds.  It is parsed into a
:class:`~repro.resilience.deadline.Deadline` at ingress and threaded
through the engine; expiry anywhere along the path returns a structured
504 naming the site that observed it.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import types

from repro.exceptions import (
    AdmissionError,
    BreakerOpenError,
    ConfigurationError,
    QueryTooLargeError,
    ServiceStoppingError,
)
from repro.obs.metrics import get_registry
from repro.obs.exporters import prometheus_text
from repro.resilience import chaos
from repro.resilience.deadline import (
    DEADLINE_HEADER,
    Deadline,
    parse_deadline_header,
)
from repro.service.engine import QueryEngine
from repro.service.protocol import error_envelope

__all__ = ["BandwidthService"]

_MAX_HEADER_BYTES = 16 * 1024
#: Longest request line accepted (the asyncio streams line limit).
_MAX_LINE_BYTES = 64 * 1024
#: Buffered bytes past which a busy connection stops reading.
_READ_HIGH_WATER = 256 * 1024

_DEADLINE_HEADER_LOWER = DEADLINE_HEADER.lower().encode("latin-1")
#: The empty line that ends a request head (lines may end in CRLF or LF).
_HEAD_END = re.compile(rb"\n\r?\n")


class _BadRequest(ConfigurationError):
    """Framing-level rejection (malformed request line or headers)."""


def _parse_request_line(line: bytes) -> tuple[str, str]:
    try:
        method, path, _version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _BadRequest("malformed HTTP request line") from None
    return method, path


def _parse_headers(
    block: bytes, max_body: int
) -> tuple[int, bool, Deadline | None]:
    """``(content_length, close, deadline)`` from the header lines.

    The deadline starts ticking here, when the whole head has arrived:
    time spent sending the head counts against the budget.
    """
    content_length = 0
    close = False
    deadline: Deadline | None = None
    for line in block.split(b"\n"):
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            try:
                content_length = int(value)
            except ValueError:
                raise _BadRequest(
                    f"bad Content-Length: {value.decode('latin-1').strip()!r}"
                ) from None
        elif name == b"connection":
            close = value.strip().lower() == b"close"
        elif name == _DEADLINE_HEADER_LOWER:
            deadline = parse_deadline_header(value.decode("latin-1"))
    if content_length < 0:
        raise _BadRequest(f"bad Content-Length: {content_length}")
    if content_length > max_body:
        raise QueryTooLargeError(
            f"request body of {content_length} bytes exceeds the "
            f"{max_body}-byte limit"
        )
    return content_length, close, deadline


@types.coroutine
def _carry_on(coro, waiting):
    """Drive ``coro`` on from ``waiting``, what its first step yielded.

    The first step ran outside any task; the task awaiting this resumes
    the coroutine where that step left it, passing on every value sent
    and every exception (a cancellation) thrown in.
    """
    while True:
        try:
            sent = yield waiting
        except BaseException as exc:
            step, arg = coro.throw, exc
        else:
            step, arg = coro.send, sent
        try:
            waiting = step(arg)
        except StopIteration as done:
            return done.value


async def _finish(coro, waiting):
    return await _carry_on(coro, waiting)


class _Connection(asyncio.Protocol):
    """One client connection: requests parsed in place, answered in order."""

    def __init__(self, service: BandwidthService):
        self._service = service
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        #: Parsed head of the request whose body is still arriving:
        #: ``(method, path, body_start, length, close, deadline)``.
        self._head: tuple | None = None
        #: Buffer offset the search for the end of the head resumes at.
        self._searched = 0
        #: The request being answered, once it has suspended.
        self._task: asyncio.Task | None = None
        #: Set while the rest of the pipeline waits for the next tick.
        self._next_tick: asyncio.Handle | None = None
        self._writable = True
        self._eof = False

    # -- transport callbacks -------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._service._connections.add(self)

    def connection_lost(self, exc) -> None:
        self._service._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()
        if (
            self._task is not None
            or self._next_tick is not None
            or not self._writable
        ):
            if len(self._buffer) > _READ_HIGH_WATER:
                self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._serve()
        return True  # keep writing until the buffered requests are answered

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._serve()

    def close(self) -> None:
        self._transport.close()

    # -- requests ------------------------------------------------------

    def _serve(self) -> None:
        """Answer each whole buffered request in turn until one suspends.

        A request the engine computed in place leaves its entry in the
        engine's coalescing map until the tick ends.  The rest of the
        pipeline then waits for the next tick, as it did behind a
        suspended computation, so this connection's own answers never
        count towards the queue depth its later requests are admitted
        against.
        """
        transport = self._transport
        engine = self._service.engine
        while (
            self._task is None
            and self._next_tick is None
            and self._writable
            and not transport.is_closing()
        ):
            try:
                request = self._next_request()
            except Exception as exc:
                self._write(_error_response(exc), close=True)
                return
            if request is None:
                if self._eof:
                    transport.close()
                else:
                    transport.resume_reading()
                return
            method, path, body, close, deadline = request
            inflight = engine.inflight_count
            coro = self._service._answer(method, path, body, deadline)
            try:
                waiting = coro.send(None)
            except StopIteration as done:
                self._write(done.value, close)
                if engine.inflight_count > inflight:
                    self._next_tick = asyncio.get_running_loop().call_soon(
                        self._resume
                    )
                continue
            task = asyncio.get_running_loop().create_task(
                _finish(coro, waiting)
            )
            self._task = task
            self._service._requests.add(task)
            task.add_done_callback(
                lambda task, close=close: self._finished(task, close)
            )

    def _resume(self) -> None:
        self._next_tick = None
        self._serve()

    def _finished(self, task: asyncio.Task, close: bool) -> None:
        self._service._requests.discard(task)
        self._task = None
        if task.cancelled() or task.exception() is not None:
            self._transport.close()
            return
        self._write(task.result(), close)
        self._serve()

    def _next_request(self) -> tuple | None:
        """Split the next whole request off the buffer (None: incomplete).

        Returns ``(method, path, body, close, deadline)``; raises for a
        request that must be refused (400, 413).
        """
        buf = self._buffer
        if self._head is None:
            if not buf:
                return None
            line_end = buf.find(b"\n")
            if line_end < 0:
                if len(buf) > _MAX_LINE_BYTES:
                    raise _BadRequest("request line too long")
                return None
            method, path = _parse_request_line(buf[:line_end])
            found = _HEAD_END.search(buf, max(line_end, self._searched))
            head_end = len(buf) if found is None else found.end()
            if head_end - line_end - 1 > _MAX_HEADER_BYTES:
                raise _BadRequest("headers too large")
            if found is None:
                self._searched = max(line_end, len(buf) - 2)
                return None
            length, close, deadline = _parse_headers(
                bytes(buf[line_end + 1 : found.start()]),
                self._service.engine.limits.max_body_bytes,
            )
            self._head = (method, path, head_end, length, close, deadline)
        method, path, start, length, close, deadline = self._head
        end = start + length
        if len(buf) < end:
            return None
        body = bytes(buf[start:end])
        del buf[:end]
        self._head = None
        self._searched = 0
        return method, path, body, close, deadline

    def _write(
        self, response: tuple[int, bytes, dict[str, str]], close: bool
    ) -> None:
        transport = self._transport
        if transport.is_closing():
            return
        transport.write(_response_bytes(*response))
        if close:  # client sent Connection: close
            transport.close()


class BandwidthService:
    """Bind a :class:`~repro.service.engine.QueryEngine` to a TCP port."""

    def __init__(
        self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0
    ):
        self.engine = engine
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        #: Answers of requests that suspended (the others need no task).
        self._requests: set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is not None:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    async def start(self) -> int:
        """Start accepting connections; returns the bound port."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self._host, self._port
        )
        return self.port

    async def stop(self, grace_seconds: float = 1.0) -> None:
        """Graceful shutdown: drain, complete every waiter, tear down.

        Ordering matters: (1) stop accepting connections, (2) begin
        engine shutdown — every in-flight coalesced waiter and queued
        batch submission is *completed* with a structured 503
        (:class:`~repro.exceptions.ServiceStoppingError`), never left
        pending — then (3) give suspended requests ``grace_seconds``
        to write those envelopes out before cancelling stragglers, and
        (4) close every connection, idle keep-alives included.
        """
        server = self._server
        if server is not None:
            server.close()
        self.engine.begin_shutdown()
        loop = asyncio.get_running_loop()
        until = loop.time() + grace_seconds
        # A request answered in the grace period may start the next
        # pipelined one, so wait until none is left or time is up.
        while self._requests and loop.time() < until:
            await asyncio.wait(
                tuple(self._requests), timeout=until - loop.time()
            )
        pending = tuple(self._requests)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for connection in tuple(self._connections):
            connection.close()
        if server is not None:
            await server.wait_closed()
            self._server = None
        self.engine.close()

    async def serve_forever(self) -> None:
        """Serve requests until cancelled; then call :meth:`stop`."""
        if self._server is None:
            await self.start()
        await asyncio.get_running_loop().create_future()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _answer(
        self,
        method: str,
        path: str,
        body: bytes,
        deadline: Deadline | None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """``(status, payload, headers)`` for one request; never raises."""
        try:
            return await self._dispatch(method, path, body, deadline)
        except Exception as exc:
            get_registry().increment(
                "service.http.errors", type=type(exc).__name__
            )
            return _error_response(exc)

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        deadline: Deadline | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        registry = get_registry()
        registry.increment("service.http.requests", path=path)
        await chaos.ainject("service.http")
        if path == "/healthz" and method == "GET":
            health = {
                "ok": True,
                "status": (
                    "stopping" if self.engine.stopping else "serving"
                ),
                "inflight": self.engine.inflight_count,
                "queue_depth": self.engine.queue_depth,
                "cached_results": self.engine.cache_size,
            }
            return 200, json.dumps(health).encode(), {}
        if path == "/metrics" and method == "GET":
            text = prometheus_text(registry)
            return 200, text.encode(), {"Content-Type": "text/plain"}
        if path in ("/query", "/sweep"):
            if method != "POST":
                raise _BadRequest(f"{path} requires POST, got {method}")
            if self.engine.stopping:
                raise ServiceStoppingError(
                    "service is shutting down; not accepting new queries"
                )
            response = await self.engine.execute_payload(
                body, sweep=(path == "/sweep"), deadline=deadline
            )
            return 200, self.engine.encoded_payload(response), {}
        envelope = {
            "ok": False,
            "error": {
                "status": 404,
                "type": "NotFound",
                "message": f"no route for {method} {path}",
            },
        }
        return 404, json.dumps(envelope).encode(), {}


_STATUS_TEXT = {
    200: b"OK",
    400: b"Bad Request",
    404: b"Not Found",
    413: b"Payload Too Large",
    429: b"Too Many Requests",
    500: b"Internal Server Error",
    503: b"Service Unavailable",
    504: b"Gateway Timeout",
}


def _error_response(exc: Exception) -> tuple[int, bytes, dict[str, str]]:
    """The structured error envelope for ``exc``, with its headers."""
    status, envelope = error_envelope(exc)
    headers = {}
    if isinstance(exc, (AdmissionError, BreakerOpenError)):
        headers["Retry-After"] = str(math.ceil(exc.retry_after_seconds))
    return status, json.dumps(envelope).encode(), headers


def _response_bytes(
    status: int, payload: bytes, headers: dict[str, str]
) -> bytes:
    head = b"HTTP/1.1 %d %s\r\nContent-Length: %d\r\n" % (
        status, _STATUS_TEXT.get(status, b"Unknown"), len(payload)
    )
    if not any(name.lower() == "content-type" for name in headers):
        head += b"Content-Type: application/json\r\n"
    for name, value in headers.items():
        head += f"{name}: {value}\r\n".encode("latin-1")
    return head + b"\r\n" + payload
