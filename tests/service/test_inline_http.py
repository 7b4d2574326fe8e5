"""Lone cold requests answered in the front-end's own step, over HTTP.

The HTTP front-end runs each request outside any task until it first
suspends.  A cold ``/sweep``, and a cold ``/query`` that finds the batch
window empty with a zero delay, is evaluated in that step: no window
submission, no ``asyncio.Task``.  These tests pin that path over a real
loopback socket against the batched path it replaces for a lone cell
(a window with a nonzero delay):

* lone cold queries and sweeps never touch ``BatchWindow.submit`` and
  never create a request task, and they are counted in
  ``service.batch.inline``;
* chaos faults at ``service.batch`` and an open batch breaker give the
  same typed envelopes inline as batched;
* a burst read in one event-loop tick is still gated by queue depth and
  still coalesces identical requests, and leaves nothing in flight;
* a deep pipeline on one connection is answered one computed request
  per tick, so it is never shed against its own earlier answers.

A same-tick burst is made by opening every connection first, then
writing every request without yielding: the client shares the server's
event loop, so one ``select`` hands the server all of them at once.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.batch import scheme_bus_profile
from repro.core.request_models import UniformRequestModel
from repro.obs import telemetry
from repro.resilience import chaos
from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy
from repro.resilience.chaos import FaultPlan, FaultRule, chaos_plan
from repro.service import AdmissionController, BandwidthService, QueryEngine
from repro.service.batching import BatchWindow

QUERY = {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5}
SWEEP = {"scheme": "kclass", "N": 16, "M": 16, "B": [2, 4, 8, 20], "r": 0.75}

#: Window delays: 0 evaluates a lone cell in place, >0 batches it.
INLINE, BATCHED = 0.0, 0.001


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    chaos.uninstall_plan()


class _RecordingSet(set):
    """A set that remembers everything ever added to it."""

    def __init__(self):
        super().__init__()
        self.added = []

    def add(self, item):
        self.added.append(item)
        super().add(item)


def _post(path: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", 0)))
    return int(status_line.split(" ")[1]), headers, json.loads(body)


async def _roundtrip(port, raw: bytes):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    response = await _read_response(reader)
    writer.close()
    return response


def _serve(scenario, engine: QueryEngine):
    """Run ``await scenario(service, port)``; return it and the tasks made."""

    async def main():
        service = BandwidthService(engine)
        service._requests = _RecordingSet()
        port = await service.start()
        try:
            return await scenario(service, port), service._requests.added
        finally:
            await service.stop()

    return asyncio.run(main())


async def _same_tick_burst(service, port, requests: list[bytes]):
    """Send ``requests`` on one connection each, read in one server tick."""
    connections = [
        await asyncio.open_connection("127.0.0.1", port) for _ in requests
    ]
    while len(service._connections) < len(requests):
        await asyncio.sleep(0)
    for (_, writer), raw in zip(connections, requests):
        writer.write(raw)  # no await in between: one select sees them all
    responses = await asyncio.gather(
        *[_read_response(reader) for reader, _ in connections]
    )
    for _, writer in connections:
        writer.close()
    return responses


@pytest.fixture
def submits(monkeypatch):
    """Every item passed to ``BatchWindow.submit`` during the test."""
    calls = []
    submit = BatchWindow.submit

    def recording(self, item):
        calls.append(item)
        return submit(self, item)

    monkeypatch.setattr(BatchWindow, "submit", recording)
    return calls


def test_lone_cold_query_and_sweep_need_no_window_and_no_task(submits):
    async def scenario(service, port):
        query = await _roundtrip(port, _post("/query", QUERY))
        sweep = await _roundtrip(port, _post("/sweep", SWEEP))
        return query, sweep

    engine = QueryEngine(batch_max_delay=INLINE)
    with telemetry() as registry:
        (query, sweep), tasks = _serve(scenario, engine)
    assert submits == []
    assert tasks == []
    status, _, envelope = query
    assert status == 200 and envelope["source"] == "computed"
    model = UniformRequestModel(16, 16, rate=0.5)
    expected = scheme_bus_profile("full", 16, 16, [8], model).values[8]
    assert envelope["result"]["bandwidth"] == expected
    status, _, envelope = sweep
    assert status == 200 and envelope["source"] == "computed"
    profile = scheme_bus_profile(
        "kclass", 16, 16, [2, 4, 8, 20], UniformRequestModel(16, 16, 0.75)
    )
    assert envelope["result"]["values"] == {
        str(b): v for b, v in profile.values.items()
    }
    assert registry.counter_total("service.batch.inline") == 1
    assert registry.counter_total("service.batch.flushes") == 1
    assert registry.counter_total("service.computed") == 2
    assert engine.inflight_count == 0


def test_a_window_delay_keeps_the_batched_path(submits):
    async def scenario(service, port):
        return await _roundtrip(port, _post("/query", QUERY))

    with telemetry() as registry:
        (status, _, envelope), tasks = _serve(
            scenario, QueryEngine(batch_max_delay=BATCHED)
        )
    assert status == 200 and envelope["source"] == "computed"
    assert len(submits) == 1 and len(tasks) == 1
    assert registry.counter_total("service.batch.inline") == 0
    assert registry.counter_total("service.batch.flushes") == 1


def test_inline_count_is_exported_in_metrics():
    async def scenario(service, port):
        await _roundtrip(port, _post("/query", QUERY))
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        text = (await reader.readexactly(length)).decode()
        writer.close()
        return text

    with telemetry():
        text, _ = _serve(scenario, QueryEngine())
    assert "service_batch_inline 1" in text
    assert "service_batch_flushes 1" in text


@pytest.mark.parametrize("delay", [INLINE, BATCHED], ids=["inline", "batched"])
def test_chaos_flush_faults_trip_the_breaker_on_either_path(delay):
    breaker = CircuitBreaker(
        "service.batch",
        policy=BreakerPolicy(failure_threshold=2, window_size=4),
    )
    engine = QueryEngine(
        cache_size=0, batch_max_delay=delay, batch_breaker=breaker
    )
    plan = FaultPlan(rules=(
        FaultRule(site="service.batch", kind="error", every=1),
    ))

    async def scenario(service, port):
        with chaos_plan(plan):
            return [
                await _roundtrip(port, _post("/query", dict(QUERY, B=b)))
                for b in (8, 9, 10)
            ]

    with telemetry() as registry:
        responses, _ = _serve(scenario, engine)
    statuses = [status for status, _, _ in responses]
    types = [envelope["error"]["type"] for _, _, envelope in responses]
    assert statuses == [500, 500, 503]
    assert types == ["ChaosError", "ChaosError", "BreakerOpenError"]
    assert responses[0][2]["error"]["message"] == "internal error"
    assert responses[2][2]["error"]["breaker"] == "service.batch"
    assert "retry-after" in responses[2][1]
    assert breaker.state == "open"
    # The breaker rejects the third cell before it is counted as a flush.
    assert registry.counter_total("service.batch.flushes") == 2
    inline = 2 if delay == INLINE else 0
    assert registry.counter_total("service.batch.inline") == inline
    assert engine.inflight_count == 0


@pytest.mark.parametrize("delay", [INLINE, BATCHED], ids=["inline", "batched"])
def test_open_breaker_is_the_same_typed_503_on_either_path(delay):
    breaker = CircuitBreaker(
        "service.batch",
        policy=BreakerPolicy(failure_threshold=1, window_size=4),
    )
    breaker.record_failure()  # tripped before the request arrives
    engine = QueryEngine(batch_max_delay=delay, batch_breaker=breaker)

    async def scenario(service, port):
        return await _roundtrip(port, _post("/query", QUERY))

    (status, headers, envelope), _ = _serve(scenario, engine)
    assert status == 503
    assert envelope["error"]["type"] == "BreakerOpenError"
    assert envelope["error"]["breaker"] == "service.batch"
    assert "retry-after" in headers
    assert engine.cache_size == 0


def test_same_tick_burst_is_still_gated_by_queue_depth():
    # Each admitted cold cell stays in the coalescing map until the tick
    # ends, so queue depth sees the burst exactly as when every cell
    # waited for a window flush: 8 admitted, the rest shed.
    engine = QueryEngine(admission=AdmissionController(max_queue_depth=8))
    requests = [
        _post("/query", dict(QUERY, r=round(0.02 * (i + 1), 2)))
        for i in range(40)
    ]

    async def scenario(service, port):
        responses = await _same_tick_burst(service, port, requests)
        return responses, engine.inflight_count

    (responses, inflight_after), _ = _serve(scenario, engine)
    statuses = [status for status, _, _ in responses]
    assert statuses == [200] * 8 + [429] * 32
    assert all(
        envelope["error"]["reason"] == "queue_depth"
        for status, _, envelope in responses if status == 429
    )
    assert inflight_after == 0


def test_identical_same_tick_requests_coalesce_onto_the_inline_answer():
    engine = QueryEngine(cache_size=0)  # no LRU: isolate coalescing

    async def scenario(service, port):
        responses = await _same_tick_burst(
            service, port, [_post("/query", QUERY)] * 6
        )
        return responses, engine.inflight_count

    with telemetry() as registry:
        (responses, inflight_after), tasks = _serve(scenario, engine)
    sources = [envelope["source"] for _, _, envelope in responses]
    assert sources == ["computed"] + ["coalesced"] * 5
    assert len({envelope["result"]["bandwidth"] for _, _, envelope in responses}) == 1
    assert registry.counter_total("service.computed") == 1
    assert registry.counter_total("service.coalesced") == 5
    assert tasks == []  # coalescing onto a settled answer does not suspend
    assert inflight_after == 0


def test_deep_pipeline_is_not_shed_against_its_own_answers():
    # 40 distinct cold cells in one write on one connection: each is
    # computed in place, and the next waits for the tick in which the
    # previous one leaves the coalescing map, so neither admission nor
    # the brownout ladder ever sees more than one of them.
    governor = BrownoutGovernor(BrownoutPolicy(queue_high=4, queue_low=1))
    engine = QueryEngine(
        admission=AdmissionController(max_queue_depth=2), brownout=governor
    )
    pipeline = b"".join(
        _post("/query", dict(QUERY, r=round(0.02 * (i + 1), 2), criticality=1))
        for i in range(40)
    )

    async def scenario(service, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(pipeline)
        responses = [await _read_response(reader) for _ in range(40)]
        writer.close()
        return responses

    responses, tasks = _serve(scenario, engine)
    assert [status for status, _, _ in responses] == [200] * 40
    assert [envelope["result"]["r"] for _, _, envelope in responses] == [
        round(0.02 * (i + 1), 2) for i in range(40)
    ]
    assert governor.level == 0
    assert tasks == []
