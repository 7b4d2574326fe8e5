"""A response-cache hit passes every gate a computed answer passes.

The engine answers a repeated raw request body from its response cache
without decoding it again, but the request still goes through the same
gate as any other: the ``service.engine`` chaos site, the shutdown and
deadline checks, admission and criticality-class brownout shedding.
Each test here first makes the request a response-cache hit, then
checks one gate.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import ServiceStoppingError
from repro.obs import telemetry
from repro.resilience import chaos
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan
from repro.resilience.deadline import DEADLINE_HEADER
from repro.service import BandwidthService, QueryEngine

QUERY = {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5}


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    chaos.uninstall_plan()


def _post(payload, headers: dict | None = None) -> bytes:
    body = json.dumps(payload).encode()
    lines = ["POST /query HTTP/1.1", f"Content-Length: {len(body)}"]
    lines.extend(f"{k}: {v}" for k, v in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


async def _exchange(port, requests: list[bytes]):
    """Send each request in turn on one connection.

    Returns ``(status, headers, body)`` per request.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    answers = []
    for raw in requests:
        writer.write(raw)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5.0)
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        answers.append((int(status_line.split(" ")[1]), headers, body))
    writer.close()
    return answers


def _serve(engine, requests):
    async def main():
        service = BandwidthService(engine)
        port = await service.start()
        try:
            return await _exchange(port, requests)
        finally:
            await service.stop()

    return asyncio.run(main())


def _warm(engine, payload):
    """Make ``payload``'s body a response-cache hit on ``engine``."""

    async def main():
        body = json.dumps(payload).encode()
        return [await engine.execute_payload(body) for _ in range(2)]

    _, second = asyncio.run(main())
    assert second.source == "cache"
    assert second in engine._responses.values()


def test_brownout_sheds_a_low_criticality_hit():
    governor = BrownoutGovernor(BrownoutPolicy(
        criticality_classes=4, queue_high=10, queue_low=2,
        recovery_updates=50,  # pin the level for the whole test
    ))
    engine = QueryEngine(brownout=governor)
    low, high = dict(QUERY, criticality=3), dict(QUERY, criticality=0)
    _warm(engine, low)
    _warm(engine, high)
    for _ in range(3):
        governor.evaluate(queue_depth=100)
    assert governor.level == 3
    with telemetry() as registry:
        (shed_status, shed_headers, shed_body), (status, _, body) = _serve(
            engine, [_post(low), _post(high)]
        )
    assert shed_status == 429
    error = json.loads(shed_body)["error"]
    assert (error["type"], error["reason"]) == ("AdmissionError", "brownout")
    assert int(shed_headers["retry-after"]) >= 1
    assert status == 200
    assert json.loads(body)["source"] == "cache"
    # Both were response-cache hits; only the low class was shed.
    assert registry.counter_total("service.encode.hits") == 2
    assert registry.counter_total("brownout.shed") == 1


def test_expired_deadline_on_a_hit_is_a_504_at_the_engine():
    engine = QueryEngine()
    _warm(engine, QUERY)
    # The delay at the HTTP site spends the whole 5 ms budget before the
    # request reaches the engine's gate.
    plan = FaultPlan(rules=(
        FaultRule(site="service.http", kind="delay", delay_ms=30.0,
                  calls=(1,)),
    ))
    with telemetry() as registry, chaos_plan(plan):
        ((status, _, body),) = _serve(
            engine, [_post(QUERY, {DEADLINE_HEADER: "5"})]
        )
    assert status == 504
    error = json.loads(body)["error"]
    assert error["type"] == "DeadlineExceededError"
    assert error["site"] == "service.engine"
    assert registry.counter_total("service.encode.hits") == 1


def test_stopping_engine_refuses_a_hit_with_503():
    engine = QueryEngine()
    _warm(engine, QUERY)
    engine.begin_shutdown()

    async def main():
        return await engine.execute_payload(json.dumps(QUERY).encode())

    with pytest.raises(ServiceStoppingError):
        asyncio.run(main())
    engine.close()


@pytest.mark.parametrize("cache_size", [0, 4096])
def test_chaos_sees_the_same_engine_visits_for_hits_and_misses(cache_size):
    # cache_size=0: every request computes.  Default: from the third
    # request on, every 200 is a response-cache hit.
    plan = FaultPlan(rules=(
        FaultRule(site="service.engine", kind="error", calls=(2, 4)),
    ))
    engine = QueryEngine(cache_size=cache_size)
    with telemetry() as registry, chaos_plan(plan):
        answers = _serve(engine, [_post(QUERY)] * 5)
        injections = chaos.active_injections()
    assert [status for status, _, _ in answers] == [200, 500, 200, 500, 200]
    assert injections == [
        {"site": "service.engine", "kind": "error", "call": 2},
        {"site": "service.engine", "kind": "error", "call": 4},
    ]
    hits = registry.counter_total("service.encode.hits")
    # Requests 4 (injected) and 5 reached the gate as hits.
    assert hits == (2 if cache_size else 0)


def test_differently_spelled_body_is_a_result_lru_hit():
    engine = QueryEngine()
    _warm(engine, QUERY)
    respelled = b'{"r":0.5,"B":8,"M":16,"N":16,"scheme":"full"}'
    with telemetry() as registry:
        (status, _, body), (again, _, cached) = _serve(engine, [
            _post(QUERY),
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(respelled), respelled),
        ])
    assert status == again == 200
    assert cached == body  # same "cache" envelope, byte for byte
    assert registry.counter_total("service.encode.hits") == 1
    assert registry.counter_total("service.encode.misses") == 1
    assert registry.counter_total("service.cache.hits") == 2
