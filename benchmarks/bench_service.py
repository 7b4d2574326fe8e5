"""Load harness: the query service vs a naive per-request loop.

Drives the :class:`~repro.service.engine.QueryEngine` (and the full
HTTP front-end) with a Zipf-distributed query mix — a few hot machine
shapes dominating a long tail, the shape a public bandwidth-query
endpoint would see — and records these phases to ``BENCH_service.json``:

* **throughput** — a sequential stream of requests answered by the
  engine vs the naive baseline that rebuilds the model, the network
  and the pmf for every request (one computation per request, no
  sharing).  Asserts the >= 5x speedup floor; typical machines land
  orders of magnitude above it thanks to the result LRU.
* **http_latency** — concurrent keep-alive clients over a real
  loopback socket, reporting p50/p95 per-request latency.
* **coalescing** — concurrent identical bursts against a cache-less
  engine; reports the fraction of requests served by joining an
  in-flight computation.
* **shedding** — a deliberately tiny token bucket; reports the shed
  rate and checks every shed carried a positive retry-after hint.
* **overload** — offered load beyond capacity against a brownout
  governor held at its top rung: sheds are counted per criticality
  class (class 0 must never shed) and class-0 p95 is compared with the
  governor disabled — brownout must not regress the highest class.

Run directly (``python -m pytest benchmarks/bench_service.py -s``); the
CI job uploads the JSON report as an artifact.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from pathlib import Path

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.cache import pmf_cache
from repro.exceptions import AdmissionError
from repro.obs.metrics import telemetry
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.engine import QueryEngine
from repro.service.http import BandwidthService
from repro.service.protocol import build_model, parse_query
from repro.topology.factory import build_network

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

SEED = 987
UNIVERSE_SIZE = 32
REQUESTS = 2000
ZIPF_EXPONENT = 1.1


def _query_universe():
    """Distinct queries a fleet of clients keeps re-asking."""
    rng = random.Random(SEED)
    payloads = []
    seen = set()
    while len(payloads) < UNIVERSE_SIZE:
        scheme = rng.choice(["full", "single", "partial", "kclass"])
        n = rng.choice([32, 64, 128])
        payload = {"scheme": scheme, "N": n, "M": n,
                   "r": rng.choice([0.5, 1.0])}
        if scheme == "partial":
            payload["n_groups"] = 4
            payload["B"] = 4 * rng.randint(1, n // 4)
        else:
            payload["B"] = rng.randint(1, n)
        if rng.random() < 0.3:
            payload["model"] = "hier"
        query = parse_query(payload)
        if query in seen:
            continue
        seen.add(query)
        payloads.append(payload)
    return payloads


def _zipf_stream(payloads, count, seed=SEED + 1):
    """``count`` requests, rank-weighted ~ 1/rank^s over the universe."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(payloads))]
    return rng.choices(payloads, weights=weights, k=count)


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _report_section(name, section):
    report = {}
    if RESULT_PATH.exists():
        report = json.loads(RESULT_PATH.read_text())
    report[name] = section
    report["config"] = {
        "universe": UNIVERSE_SIZE, "requests": REQUESTS,
        "zipf_exponent": ZIPF_EXPONENT, "seed": SEED,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _naive_serve(stream):
    """One computation per request: no model, network or pmf sharing."""
    return _naive_serve_queries([parse_query(p) for p in stream])


def _naive_serve_queries(queries):
    results = []
    with pmf_cache.disabled():
        for query in queries:
            model = build_model(query)
            network = build_network(
                query.scheme, query.n_processors, query.n_memories,
                query.bus_counts[0], **dict(query.network_kwargs),
            )
            results.append(analytic_bandwidth(network, model))
    return results


def test_engine_throughput_vs_naive_loop():
    universe = _query_universe()
    stream = _zipf_stream(universe, REQUESTS)

    start = time.perf_counter()
    naive = _naive_serve(stream)
    naive_seconds = time.perf_counter() - start

    engine = QueryEngine()
    latencies = []

    async def serve():
        values = []
        for payload in stream:
            t0 = time.perf_counter()
            response = await engine.execute_payload(payload)
            latencies.append(time.perf_counter() - t0)
            values.append(response.value)
        return values

    start = time.perf_counter()
    with telemetry() as registry:
        served = asyncio.run(serve())
    engine_seconds = time.perf_counter() - start
    engine.close()

    for naive_value, engine_value in zip(naive, served):
        assert abs(naive_value - engine_value) <= 1e-9

    speedup = naive_seconds / engine_seconds
    hits = registry.counter_total("service.cache.hits")
    section = {
        "naive_seconds": round(naive_seconds, 4),
        "engine_seconds": round(engine_seconds, 4),
        "speedup": round(speedup, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 4),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 4),
        "cache_hit_rate": round(hits / REQUESTS, 4),
    }
    _report_section("throughput", section)
    print(f"\nservice throughput: {json.dumps(section)}")
    assert speedup >= 5, (
        f"engine {engine_seconds:.3f}s vs naive {naive_seconds:.3f}s: "
        f"only {speedup:.1f}x (floor 5x; see {RESULT_PATH.name})"
    )


def test_http_latency_under_concurrent_clients():
    universe = _query_universe()
    clients = 8
    per_client = 40

    async def client(port, payloads, latencies):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for payload in payloads:
                body = json.dumps(payload).encode()
                t0 = time.perf_counter()
                writer.write(
                    b"POST /query HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(
                    [line for line in head.decode().split("\r\n")
                     if line.lower().startswith("content-length")][0]
                    .split(":")[1]
                )
                raw = await reader.readexactly(length)
                latencies.append(time.perf_counter() - t0)
                assert json.loads(raw)["ok"] is True
        finally:
            writer.close()

    async def main(engine):
        service = BandwidthService(engine)
        port = await service.start()
        latencies: list[float] = []
        try:
            await asyncio.gather(*[
                client(port, _zipf_stream(universe, per_client,
                                          seed=SEED + 10 + i), latencies)
                for i in range(clients)
            ])
        finally:
            await service.stop()
        return latencies

    latencies = asyncio.run(main(QueryEngine()))
    section = {
        "clients": clients,
        "requests": clients * per_client,
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 4),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 4),
    }
    _report_section("http_latency", section)
    print(f"\nservice http latency: {json.dumps(section)}")
    assert len(latencies) == clients * per_client


def test_coalesce_rate_under_identical_bursts():
    universe = _query_universe()
    engine = QueryEngine(cache_size=0)  # force coalescing, not caching
    burst_width = 16
    bursts = 40
    rng = random.Random(SEED + 2)

    async def main():
        for _ in range(bursts):
            payload = rng.choice(universe)
            await asyncio.gather(*[
                engine.execute_payload(payload) for _ in range(burst_width)
            ])

    with telemetry() as registry:
        asyncio.run(main())
    engine.close()
    coalesced = registry.counter_total("service.coalesced")
    computed = registry.counter_total("service.computed")
    total = bursts * burst_width
    rate = coalesced / total
    section = {
        "bursts": bursts,
        "burst_width": burst_width,
        "coalesced": int(coalesced),
        "computed": int(computed),
        "coalesce_rate": round(rate, 4),
        "grid_calls": int(registry.counter_total("service.batch.flushes")),
    }
    _report_section("coalescing", section)
    print(f"\nservice coalescing: {json.dumps(section)}")
    assert coalesced + computed == total
    assert computed == bursts  # exactly one evaluation per burst
    assert rate == (burst_width - 1) / burst_width


def test_shed_rate_with_tiny_token_bucket():
    universe = _query_universe()
    engine = QueryEngine(
        admission=AdmissionController(
            TokenBucket(rate_per_second=50.0, burst=20),
            max_queue_depth=256,
        )
    )
    stream = _zipf_stream(universe, 200, seed=SEED + 3)

    async def main():
        served = shed = 0
        hints = []
        for payload in stream:
            try:
                await engine.execute_payload(payload)
                served += 1
            except AdmissionError as exc:
                shed += 1
                hints.append(exc.retry_after_seconds)
        return served, shed, hints

    with telemetry() as registry:
        served, shed, hints = asyncio.run(main())
    engine.close()
    section = {
        "requests": len(stream),
        "served": served,
        "shed": shed,
        "shed_rate": round(shed / len(stream), 4),
        "shed_counter": int(registry.counter_total("service.shed")),
        "min_retry_after_s": round(min(hints), 6) if hints else None,
    }
    _report_section("shedding", section)
    print(f"\nservice shedding: {json.dumps(section)}")
    assert served + shed == len(stream)
    assert shed == registry.counter_total("service.shed")
    assert shed > 0, "tiny bucket must shed under a full-speed stream"
    assert all(hint > 0.0 for hint in hints)


def _overload_payloads(count=200, classes=4):
    """``count`` distinct single-cell queries, round-robin criticality."""
    rates = [0.25, 0.5, 0.75, 1.0]
    return [
        {
            "scheme": "full", "N": 64, "M": 64,
            "B": (i % 50) + 1, "r": rates[i // 50],
            "criticality": i % classes,
        }
        for i in range(count)
    ]


def _overload_run(brownout):
    """One concurrent burst; per-class latencies and shed counts."""
    engine = QueryEngine(
        cache_size=0,
        batch_max_size=4096,      # the window timer is the only trigger
        batch_max_delay=0.02,
        brownout=brownout,
    )
    payloads = _overload_payloads()
    latencies = {cls: [] for cls in range(4)}
    shed = {cls: 0 for cls in range(4)}

    async def one(payload):
        cls = payload["criticality"]
        t0 = time.perf_counter()
        try:
            await engine.execute_payload(payload)
        except AdmissionError:
            shed[cls] += 1
            return
        latencies[cls].append(time.perf_counter() - t0)

    async def main():
        await asyncio.gather(*[one(payload) for payload in payloads])

    asyncio.run(main())
    engine.close()
    return latencies, shed


def test_overload_brownout_protects_high_criticality():
    from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy

    # Baseline: no governor — every request rides the full batch window.
    base_latencies, base_shed = _overload_run(brownout=None)

    # Sustained overload: the governor is already at its top rung (as a
    # long burst would leave it) and pinned there for the whole phase.
    governor = BrownoutGovernor(BrownoutPolicy(
        criticality_classes=4,
        queue_high=24,
        queue_low=8,
        recovery_updates=10_000,
        batch_shrink_factor=0.25,
    ))
    while governor.level < governor.policy.max_level:
        governor.evaluate(queue_depth=10_000)
    brown_latencies, brown_shed = _overload_run(brownout=governor)

    p95_class0_base = _percentile(base_latencies[0], 0.95)
    p95_class0_brown = _percentile(brown_latencies[0], 0.95)
    section = {
        "requests": 200,
        "shed_by_class_no_brownout": base_shed,
        "shed_by_class_brownout": brown_shed,
        "served_class0_brownout": len(brown_latencies[0]),
        "p95_ms_class0_no_brownout": round(p95_class0_base * 1e3, 4),
        "p95_ms_class0_brownout": round(p95_class0_brown * 1e3, 4),
        "brownout_level": governor.level,
    }
    _report_section("overload", section)
    print(f"\nservice overload: {json.dumps(section)}")

    assert base_shed == {0: 0, 1: 0, 2: 0, 3: 0}  # nothing sheds unaided
    # Class 0 is shed last (here: never); lower classes all shed.
    assert brown_shed[0] == 0
    assert all(brown_shed[cls] > 0 for cls in (1, 2, 3))
    assert len(brown_latencies[0]) == 50  # every class-0 request served
    # The headline guarantee: brownout must not regress the top class.
    assert p95_class0_brown <= p95_class0_base, (
        f"class-0 p95 regressed under brownout: "
        f"{p95_class0_brown * 1e3:.2f}ms > {p95_class0_base * 1e3:.2f}ms"
    )


def test_chaos_callouts_are_free_when_disabled():
    from repro.resilience import chaos

    assert chaos.active_plan() is None
    start = time.perf_counter()
    for _ in range(100_000):
        chaos.inject("service.engine")
    elapsed = time.perf_counter() - start
    section = {
        "calls": 100_000,
        "ns_per_call": round(elapsed / 100_000 * 1e9, 1),
    }
    _report_section("chaos_overhead", section)
    print(f"\nchaos overhead (disabled): {json.dumps(section)}")
    # One global load and a compare: generously under 2us per call even
    # on a loaded CI box.
    assert elapsed / 100_000 < 2e-6
