"""Graceful shutdown: every waiter completed, never abandoned.

Satellite contract of the resilience PR: once shutdown begins, new
queries get a structured 503, and requests already sitting in the batch
window or the coalescing map are *completed* with
:class:`~repro.exceptions.ServiceStoppingError` inside the grace window
— a client blocked on a response always gets one.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import ServiceStoppingError
from repro.service.engine import QueryEngine
from repro.service.http import BandwidthService
from repro.service.protocol import parse_query

QUERY = {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5}


def _post(path: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    status = int(status_line.split(" ")[1])
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, headers, body


class TestHttpShutdown:
    def test_inflight_request_completes_with_structured_503(self):
        # A huge batch delay parks the query in the batch window; stop()
        # must complete the pending waiter with a 503 envelope during
        # the grace period rather than leaving the client hanging.
        async def main():
            engine = QueryEngine(batch_max_delay=30.0)
            service = BandwidthService(engine)
            port = await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(_post("/query", QUERY))
            await writer.drain()
            await asyncio.sleep(0.2)  # request reaches the batch window
            assert engine.queue_depth >= 1
            await service.stop(grace_seconds=2.0)
            status, _, body = await _read_response(reader)
            writer.close()
            return status, json.loads(body)

        status, envelope = asyncio.run(main())
        assert status == 503
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "ServiceStoppingError"

    def test_new_queries_rejected_while_stopping(self):
        async def main():
            engine = QueryEngine()
            service = BandwidthService(engine)
            port = await service.start()
            try:
                engine.begin_shutdown()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(_post("/query", QUERY))
                await writer.drain()
                status, _, body = await _read_response(reader)
                writer.close()
                return status, json.loads(body)
            finally:
                await service.stop()

        status, envelope = asyncio.run(main())
        assert status == 503
        assert envelope["error"]["type"] == "ServiceStoppingError"

    def test_healthz_reports_stopping(self):
        async def main():
            engine = QueryEngine()
            service = BandwidthService(engine)
            port = await service.start()
            try:
                engine.begin_shutdown()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                status, _, body = await _read_response(reader)
                writer.close()
                return status, json.loads(body)
            finally:
                await service.stop()

        status, health = asyncio.run(main())
        assert status == 200
        assert health["status"] == "stopping"


class TestEngineShutdown:
    def test_batched_waiters_complete_with_typed_error(self):
        async def main():
            engine = QueryEngine(batch_max_delay=30.0)
            try:
                task = asyncio.ensure_future(
                    engine.execute(parse_query(QUERY))
                )
                await asyncio.sleep(0.05)
                assert engine.queue_depth >= 1
                engine.begin_shutdown()
                with pytest.raises(ServiceStoppingError):
                    await asyncio.wait_for(task, timeout=1.0)
                assert engine.queue_depth == 0
            finally:
                engine.close()

        asyncio.run(main())

    def test_execute_rejects_after_shutdown_begins(self):
        async def main():
            engine = QueryEngine()
            try:
                engine.begin_shutdown()
                assert engine.stopping
                with pytest.raises(ServiceStoppingError):
                    await engine.execute(parse_query(QUERY))
            finally:
                engine.close()

        asyncio.run(main())

    def test_begin_shutdown_is_idempotent(self):
        engine = QueryEngine()
        engine.begin_shutdown()
        engine.begin_shutdown()
        assert engine.stopping
        engine.close()
