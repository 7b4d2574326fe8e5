"""Resilience envelopes over live HTTP: 504, 429, 503, 500 — no tracebacks.

Pins the status-code contract of the resilience control plane end to
end: a request-scoped deadline that expires mid-batch comes back as a
structured 504 *within* its budget (not after the batch timer); a
brownout governor under synthetic overload sheds low-criticality
requests as 429 while class 0 is still served; a tripped batch breaker
maps to 503 with a Retry-After hint; a chaos ``error`` rule surfaces as
a typed 500 envelope.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.resilience import chaos
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan
from repro.resilience.deadline import DEADLINE_HEADER
from repro.service.engine import QueryEngine
from repro.service.http import BandwidthService

QUERY = {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5}


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    chaos.uninstall_plan()


def _post(path: str, payload, headers: dict | None = None) -> bytes:
    body = json.dumps(payload).encode()
    lines = [f"POST {path} HTTP/1.1", f"Content-Length: {len(body)}"]
    lines.extend(f"{k}: {v}" for k, v in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


async def _roundtrip(port, raw: bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
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
    writer.close()
    return status, headers, body


def _serve(test, engine: QueryEngine | None = None):
    async def main():
        service = BandwidthService(engine or QueryEngine())
        port = await service.start()
        try:
            return await test(port)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestDeadline504:
    def test_expired_deadline_is_a_504_within_budget(self):
        # The 1-second batch window would hold the answer for ~1s; the
        # 50ms budget must cut the wait short with a structured 504.
        engine = QueryEngine(batch_max_delay=1.0)

        async def scenario(port):
            started = time.perf_counter()
            result = await _roundtrip(
                port, _post("/query", QUERY, {DEADLINE_HEADER: "50"})
            )
            return result, time.perf_counter() - started

        (status, _, body), elapsed = _serve(scenario, engine)
        envelope = json.loads(body)
        assert status == 504
        assert envelope["error"]["type"] == "DeadlineExceededError"
        assert envelope["error"]["site"] == "service.engine"
        assert envelope["error"]["budget_ms"] == 50.0
        # Well under the batch timer: the deadline bounded the wait.
        assert elapsed < 0.9

    def test_generous_deadline_is_served_normally(self):
        async def scenario(port):
            return await _roundtrip(
                port, _post("/query", QUERY, {DEADLINE_HEADER: "30000"})
            )

        status, _, body = _serve(scenario)
        envelope = json.loads(body)
        assert status == 200
        assert envelope["ok"] is True

    def test_malformed_deadline_header_is_a_400(self):
        async def scenario(port):
            return await _roundtrip(
                port, _post("/query", QUERY, {DEADLINE_HEADER: "soon"})
            )

        status, _, body = _serve(scenario)
        envelope = json.loads(body)
        assert status == 400
        assert DEADLINE_HEADER in envelope["error"]["message"]


class TestBrownout429:
    def _overloaded_engine(self):
        governor = BrownoutGovernor(BrownoutPolicy(
            criticality_classes=4,
            queue_high=10,
            queue_low=2,
            recovery_updates=50,  # pin the level for the whole test
        ))
        for _ in range(3):
            governor.evaluate(queue_depth=100)
        assert governor.level == 3
        return QueryEngine(brownout=governor)

    def test_low_criticality_shed_high_criticality_served(self):
        engine = self._overloaded_engine()

        async def scenario(port):
            shed = await _roundtrip(
                port, _post("/query", dict(QUERY, criticality=3))
            )
            served = await _roundtrip(
                port, _post("/query", dict(QUERY, criticality=0))
            )
            return shed, served

        shed, served = _serve(scenario, engine)
        status, headers, body = shed
        envelope = json.loads(body)
        assert status == 429
        assert envelope["error"]["type"] == "AdmissionError"
        assert envelope["error"]["reason"] == "brownout"
        assert int(headers["retry-after"]) >= 1
        status, _, body = served
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_invalid_criticality_is_a_400(self):
        async def scenario(port):
            return await _roundtrip(
                port, _post("/query", dict(QUERY, criticality=16))
            )

        status, _, body = _serve(scenario)
        envelope = json.loads(body)
        assert status == 400
        assert "criticality" in envelope["error"]["message"]


class TestBreaker503:
    def test_open_batch_breaker_maps_to_503(self):
        breaker = CircuitBreaker(
            "service.batch",
            policy=BreakerPolicy(failure_threshold=1, window_size=4),
        )
        breaker.record_failure()  # tripped before the request arrives
        engine = QueryEngine(batch_breaker=breaker)

        async def scenario(port):
            return await _roundtrip(port, _post("/query", QUERY))

        status, headers, body = _serve(scenario, engine)
        envelope = json.loads(body)
        assert status == 503
        assert envelope["error"]["type"] == "BreakerOpenError"
        assert envelope["error"]["breaker"] == "service.batch"
        assert "retry-after" in headers

    def test_chaos_flush_failures_trip_the_breaker(self):
        # The service.batch injection site sits inside the flush's
        # failure accounting: two injected flush faults (500s to their
        # waiters) open the breaker, and the third request fails fast
        # with a 503 without ever reaching the evaluation tier.
        breaker = CircuitBreaker(
            "service.batch",
            policy=BreakerPolicy(failure_threshold=2, window_size=4),
        )
        engine = QueryEngine(cache_size=0, batch_breaker=breaker)
        plan = FaultPlan(rules=(
            FaultRule(site="service.batch", kind="error", every=1),
        ))

        async def scenario(port):
            with chaos_plan(plan):
                first = await _roundtrip(port, _post("/query", QUERY))
                second = await _roundtrip(
                    port, _post("/query", dict(QUERY, B=9))
                )
                third = await _roundtrip(
                    port, _post("/query", dict(QUERY, B=10))
                )
            return first, second, third

        first, second, third = _serve(scenario, engine)
        assert first[0] == 500
        assert json.loads(first[2])["error"]["type"] == "ChaosError"
        assert second[0] == 500
        status, headers, body = third
        envelope = json.loads(body)
        assert status == 503
        assert envelope["error"]["type"] == "BreakerOpenError"
        assert breaker.state == "open"


class TestChaos500:
    def test_injected_http_error_is_a_typed_500(self):
        plan = FaultPlan(rules=(
            FaultRule(site="service.http", kind="error", calls=(1,)),
        ))

        async def scenario(port):
            with chaos_plan(plan):
                injected = await _roundtrip(port, _post("/query", QUERY))
            healthy = await _roundtrip(port, _post("/query", QUERY))
            return injected, healthy

        injected, healthy = _serve(scenario)
        status, _, body = injected
        envelope = json.loads(body)
        assert status == 500
        assert envelope["error"]["type"] == "ChaosError"
        # The injected message never leaks: 500s are scrubbed.
        assert envelope["error"]["message"] == "internal error"
        status, _, body = healthy
        assert status == 200
        assert json.loads(body)["ok"] is True
