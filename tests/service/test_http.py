"""The stdlib HTTP front-end over a real loopback socket.

Every test starts a :class:`~repro.service.http.BandwidthService` on an
ephemeral port, speaks raw HTTP/1.1 over ``asyncio.open_connection``,
and asserts on the full response — status line, headers and the JSON
envelope.  The negative-path tests pin the contract that *no* failure
mode ever emits a traceback: malformed framing, malformed JSON, invalid
parameters, oversized bodies and shed requests all come back as
structured envelopes.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.engine import QueryEngine
from repro.service.http import BandwidthService, _Connection
from repro.service.protocol import ServiceLimits


async def _roundtrip(port, raw: bytes, keep_reader=None):
    """Send one raw request; return ``(status, headers, body_bytes)``."""
    if keep_reader is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = keep_reader
    writer.write(raw)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ")[1])
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    if keep_reader is None:
        writer.close()
    return status, headers, body


def _post(path: str, payload, raw_body: bytes | None = None) -> bytes:
    body = raw_body if raw_body is not None else json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _serve(test, engine: QueryEngine | None = None):
    """Run ``await test(port)`` against a live service, then tear down."""

    async def main():
        service = BandwidthService(engine or QueryEngine())
        port = await service.start()
        try:
            return await test(port)
        finally:
            await service.stop()

    return asyncio.run(main())


def test_query_roundtrip():
    async def scenario(port):
        return await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5,
        }))

    status, headers, body = _serve(scenario)
    envelope = json.loads(body)
    assert status == 200
    assert headers["content-type"] == "application/json"
    assert envelope["ok"] is True
    assert envelope["source"] == "computed"
    assert envelope["result"]["B"] == 8
    assert isinstance(envelope["result"]["bandwidth"], float)


def test_sweep_roundtrip_with_audited_skips():
    async def scenario(port):
        return await _roundtrip(port, _post("/sweep", {
            "scheme": "kclass", "N": 16, "M": 16, "B": [2, 4, 20],
        }))

    status, _, body = _serve(scenario)
    envelope = json.loads(body)
    assert status == 200
    assert sorted(envelope["result"]["values"]) == ["2", "4"]
    (skipped,) = envelope["result"]["skipped"]
    assert skipped["B"] == 20
    assert skipped["reason_code"] == "bus_count_exceeds_modules"


def test_healthz_reports_engine_occupancy():
    async def scenario(port):
        return await _roundtrip(port, b"GET /healthz HTTP/1.1\r\n\r\n")

    status, _, body = _serve(scenario)
    health = json.loads(body)
    assert status == 200
    assert health["ok"] is True
    assert health["inflight"] == 0
    assert health["queue_depth"] == 0


def test_metrics_exports_service_series():
    async def scenario(port):
        await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 8, "B": 4,
        }))
        return await _roundtrip(port, b"GET /metrics HTTP/1.1\r\n\r\n")

    from repro.obs.metrics import telemetry

    async def run(port):
        return await scenario(port)

    engine = QueryEngine()

    async def main():
        service = BandwidthService(engine)
        port = await service.start()
        try:
            return await run(port)
        finally:
            await service.stop()

    with telemetry():
        status, headers, body = asyncio.run(main())
    text = body.decode()
    assert status == 200
    assert headers["content-type"] == "text/plain"
    assert 'service_requests{kind="query"} 1' in text
    assert 'service_http_requests{path="/query"} 1' in text


def test_keepalive_serves_multiple_requests_per_connection():
    async def scenario(port):
        reader_writer = await asyncio.open_connection("127.0.0.1", port)
        first = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": 8,
        }), keep_reader=reader_writer)
        second = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": 8,
        }), keep_reader=reader_writer)
        reader_writer[1].close()
        return first, second

    (s1, _, b1), (s2, _, b2) = _serve(scenario)
    assert s1 == s2 == 200
    one, two = json.loads(b1), json.loads(b2)
    assert one["source"] == "computed"
    assert two["source"] == "cache"
    assert one["result"]["bandwidth"] == two["result"]["bandwidth"]


# ----------------------------------------------------------------------
# Negative paths: structured envelopes, never a traceback
# ----------------------------------------------------------------------


def _assert_envelope(body: bytes, status: int, exc_type: str):
    text = body.decode()
    assert "Traceback" not in text
    envelope = json.loads(text)
    assert envelope["ok"] is False
    assert envelope["error"]["status"] == status
    assert envelope["error"]["type"] == exc_type
    return envelope


def test_connection_close_header_ends_the_connection():
    """``Connection: close`` lets EOF-reading clients finish promptly."""

    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = json.dumps({"scheme": "full", "N": 16, "B": 8}).encode()
        writer.write(
            (
                f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode() + body
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        return raw

    raw = _serve(scenario)
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert json.loads(payload)["ok"] is True


def test_malformed_json_is_400():
    async def scenario(port):
        return await _roundtrip(
            port, _post("/query", None, raw_body=b"{not json!")
        )

    status, _, body = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "ConfigurationError")


def test_nan_rate_in_raw_json_is_400():
    # Python's json.loads accepts bare NaN: the parser must still reject
    async def scenario(port):
        return await _roundtrip(port, _post(
            "/query", None,
            raw_body=b'{"scheme": "full", "N": 8, "B": 4, "r": NaN}',
        ))

    status, _, body = _serve(scenario)
    assert status == 400
    envelope = _assert_envelope(body, 400, "ConfigurationError")
    assert "finite" in envelope["error"]["message"]


def test_invalid_parameters_are_400():
    async def scenario(port):
        return await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 0, "B": 4,
        }))

    status, _, body = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "ConfigurationError")


def test_unknown_route_is_404():
    async def scenario(port):
        return await _roundtrip(port, b"GET /nope HTTP/1.1\r\n\r\n")

    status, _, body = _serve(scenario)
    assert status == 404
    envelope = json.loads(body)
    assert envelope["error"]["type"] == "NotFound"


def test_get_on_query_route_is_400():
    async def scenario(port):
        return await _roundtrip(port, b"GET /query HTTP/1.1\r\n\r\n")

    status, _, body = _serve(scenario)
    assert status == 400
    assert b"requires POST" in body


def test_declared_oversized_body_is_413_without_reading_it():
    engine = QueryEngine(limits=ServiceLimits(max_body_bytes=1024))

    async def scenario(port):
        return await _roundtrip(
            port,
            b"POST /query HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n",
        )

    status, _, body = _serve(scenario, engine)
    assert status == 413
    _assert_envelope(body, 413, "QueryTooLargeError")


def test_oversized_sweep_is_413():
    engine = QueryEngine(limits=ServiceLimits(max_sweep_cells=4))

    async def scenario(port):
        return await _roundtrip(port, _post("/sweep", {
            "scheme": "full", "N": 8, "B": [1, 2, 3, 4, 5],
        }))

    status, _, body = _serve(scenario, engine)
    assert status == 413
    _assert_envelope(body, 413, "QueryTooLargeError")


def test_malformed_request_line_is_400():
    async def scenario(port):
        return await _roundtrip(port, b"BANANAS\r\n\r\n")

    status, _, body = _serve(scenario)
    assert status == 400
    assert b"Traceback" not in body


def test_bad_content_length_is_400():
    async def scenario(port):
        return await _roundtrip(
            port, b"POST /query HTTP/1.1\r\nContent-Length: lots\r\n\r\n"
        )

    status, _, body = _serve(scenario)
    assert status == 400
    assert b"Traceback" not in body


def test_shed_request_is_429_with_retry_after_header():
    engine = QueryEngine(
        admission=AdmissionController(TokenBucket(rate_per_second=0.5,
                                                  burst=1))
    )

    async def scenario(port):
        ok = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 8, "B": 4,
        }))
        shed = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 8, "B": 2,
        }))
        return ok, shed

    (ok_status, _, _), (status, headers, body) = _serve(scenario, engine)
    assert ok_status == 200
    assert status == 429
    envelope = _assert_envelope(body, 429, "AdmissionError")
    assert envelope["error"]["reason"] == "rate"
    assert envelope["error"]["retry_after_s"] > 0.0
    # header hint is the envelope hint rounded up to whole seconds
    assert int(headers["retry-after"]) >= envelope["error"]["retry_after_s"]


def test_parse_failures_do_not_poison_subsequent_requests():
    async def scenario(port):
        bad = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": "eight",
        }))
        good = await _roundtrip(port, _post("/query", {
            "scheme": "full", "N": 16, "B": 8,
        }))
        return bad, good

    (bad_status, _, _), (good_status, _, good_body) = _serve(scenario)
    assert bad_status == 400
    assert good_status == 200
    assert json.loads(good_body)["ok"] is True


# ----------------------------------------------------------------------
# Framing: the protocol front-end parses requests in place
# ----------------------------------------------------------------------


async def _read_response(reader):
    """Read one response off ``reader``; returns ``(status, body)``."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.decode("latin-1").split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def _cell_body(b: int) -> dict:
    return {"scheme": "full", "N": 16, "B": b, "r": 0.5}


def test_pipelined_requests_in_one_write_are_answered_in_order():
    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"".join(
            _post("/query", _cell_body(b)) for b in (2, 8, 4)
        ))
        await writer.drain()
        answers = [await _read_response(reader) for _ in range(3)]
        writer.close()
        return answers

    answers = _serve(scenario)
    assert [status for status, _ in answers] == [200, 200, 200]
    assert [json.loads(body)["result"]["B"] for _, body in answers] == [
        2, 8, 4
    ]


def test_request_fed_one_byte_at_a_time():
    async def scenario(port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in _post("/query", _cell_body(8)):
            writer.write(bytes([byte]))
            await writer.drain()
            await asyncio.sleep(0)
        answer = await _read_response(reader)
        writer.close()
        return answer

    status, body = _serve(scenario)
    assert status == 200
    assert json.loads(body)["result"]["B"] == 8


def test_bare_lf_line_ends_are_accepted():
    body = json.dumps(_cell_body(8)).encode()
    raw = f"POST /query HTTP/1.1\nContent-Length: {len(body)}\n\n".encode()

    async def scenario(port):
        return await _roundtrip(port, raw + body)

    status, _, payload = _serve(scenario)
    assert status == 200
    assert json.loads(payload)["result"]["B"] == 8


async def _answer_then_eof(port, raw: bytes):
    """Send ``raw``; return the one response and what follows it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    answer = await _read_response(reader)
    rest = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    return answer, rest


def test_oversized_headers_are_400_then_the_connection_closes():
    raw = (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (17 * 1024)
        + b"\r\n\r\n" + b"GET /healthz HTTP/1.1\r\n\r\n"
    )

    async def scenario(port):
        return await _answer_then_eof(port, raw)

    (status, body), rest = _serve(scenario)
    assert status == 400
    _assert_envelope(body, 400, "_BadRequest")
    assert b"headers too large" in body
    assert rest == b""


def test_body_over_max_body_is_413_then_the_connection_closes():
    engine = QueryEngine(limits=ServiceLimits(max_body_bytes=64))
    body = json.dumps({**_cell_body(8), "pad": "x" * 64}).encode()
    raw = f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"

    async def scenario(port):
        return await _answer_then_eof(
            port, raw.encode() + body + b"GET /healthz HTTP/1.1\r\n\r\n"
        )

    (status, payload), rest = _serve(scenario, engine)
    assert status == 413
    _assert_envelope(payload, 413, "QueryTooLargeError")
    assert rest == b""


def test_connection_close_stops_a_pipelined_connection():
    first = _post("/query", _cell_body(8)).replace(
        b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1
    )

    async def scenario(port):
        return await _answer_then_eof(
            port, first + _post("/query", _cell_body(4))
        )

    (status, body), rest = _serve(scenario)
    assert status == 200
    assert json.loads(body)["result"]["B"] == 8
    assert rest == b""  # the pipelined second request is never answered


def test_eof_in_the_middle_of_a_request_closes_quietly(caplog):
    async def scenario(port):
        partial = _post("/query", _cell_body(8))[:-5]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(partial)
        writer.write_eof()
        rest = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        # The server is unharmed: a fresh connection is served.
        after = await _roundtrip(port, _post("/query", _cell_body(8)))
        return rest, after

    with caplog.at_level("DEBUG", logger="asyncio"):
        rest, (status, _, _) = _serve(scenario)
    assert rest == b""
    assert status == 200
    assert not [
        r for r in caplog.records if r.levelname in ("ERROR", "WARNING")
    ]


def test_stop_closes_idle_keepalive_connections():
    async def main():
        service = BandwidthService(QueryEngine())
        port = await service.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
        status, _ = await _read_response(reader)
        started = time.perf_counter()
        await service.stop(grace_seconds=5.0)
        stopped = time.perf_counter() - started
        rest = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        return status, stopped, rest

    status, stopped, rest = asyncio.run(main())
    assert status == 200
    assert rest == b""  # the server closed the idle connection
    assert stopped < 1.0  # without waiting out the grace period


class _FakeTransport(asyncio.Transport):
    def __init__(self):
        super().__init__()
        self.written = bytearray()
        self.closing = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


def test_paused_transport_stops_parsing_until_it_resumes():
    service = BandwidthService(QueryEngine())
    connection = _Connection(service)
    transport = _FakeTransport()
    connection.connection_made(transport)
    connection.pause_writing()
    connection.data_received(b"GET /healthz HTTP/1.1\r\n\r\n" * 2)
    assert transport.written == b""
    connection.resume_writing()
    assert transport.written.count(b"HTTP/1.1 200 OK") == 2
    service.engine.close()
