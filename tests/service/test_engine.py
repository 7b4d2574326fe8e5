"""QueryEngine tiers: result LRU, in-flight coalescing, micro-batching.

Each test drives the engine on a private event loop via ``asyncio.run``
(the suite has no async test runner) and, where tier accounting
matters, under an enabled telemetry registry so the ``service.*``
counters can be asserted exactly.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.batch import scheme_bus_profile
from repro.analysis.evaluate import analytic_bandwidth
from repro.core.request_models import UniformRequestModel
from repro.exceptions import AdmissionError, ConfigurationError
from repro.obs.metrics import telemetry
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.engine import QueryEngine
from repro.service.protocol import parse_query
from repro.topology.factory import build_network


def _cell(b, scheme="full", n=16, r=1.0, **extra):
    return parse_query({"scheme": scheme, "N": n, "B": b, "r": r, **extra})


def test_cold_compute_then_cache_hit():
    engine = QueryEngine()

    async def main():
        cold = await engine.execute(_cell(8))
        warm = await engine.execute(_cell(8))
        return cold, warm

    cold, warm = asyncio.run(main())
    engine.close()
    model = UniformRequestModel(16, 16, rate=1.0)
    grid = scheme_bus_profile("full", 16, 16, [8], model).values[8]
    scalar = analytic_bandwidth(build_network("full", 16, 16, 8), model)
    assert cold.source == "computed"
    assert warm.source == "cache"
    assert cold.value == grid  # bit-identical to the batch engine
    assert cold.value == pytest.approx(scalar, abs=1e-9)
    assert warm.value == cold.value


def test_sweep_matches_scheme_bus_profile_exactly():
    engine = QueryEngine()
    payload = {"scheme": "kclass", "N": 16, "M": 16, "B": [2, 4, 8, 20],
               "r": 0.75}

    async def main():
        return await engine.execute_payload(payload, sweep=True)

    response = asyncio.run(main())
    engine.close()
    profile = scheme_bus_profile(
        "kclass", 16, 16, [2, 4, 8, 20], UniformRequestModel(16, 16, rate=0.75)
    )
    assert response.values == profile.values
    assert [s["B"] for s in response.skipped] == [
        cell.n_buses for cell in profile.skipped
    ]
    assert response.skipped[0]["reason_code"] == "bus_count_exceeds_modules"


def test_identical_concurrent_queries_coalesce_to_one_computation():
    engine = QueryEngine(cache_size=0)  # no LRU: isolate the coalescing tier

    async def main():
        return await asyncio.gather(
            *[engine.execute(_cell(8)) for _ in range(6)]
        )

    with telemetry() as registry:
        responses = asyncio.run(main())
    engine.close()
    sources = sorted(r.source for r in responses)
    assert sources == ["coalesced"] * 5 + ["computed"]
    assert len({r.value for r in responses}) == 1
    assert registry.counter_total("service.computed") == 1
    assert registry.counter_total("service.coalesced") == 5
    assert registry.counter_total("service.batch.flushes") == 1


def test_same_tick_distinct_cells_share_one_grid_call():
    engine = QueryEngine()
    buses = [1, 2, 3, 5, 8, 13]

    async def main():
        return await asyncio.gather(
            *[engine.execute(_cell(b)) for b in buses]
        )

    with telemetry() as registry:
        responses = asyncio.run(main())
    engine.close()
    assert registry.counter_total("service.batch.flushes") == 1
    assert registry.counter_total("service.batch.cells") == len(buses)
    # same (scheme, N, M, model): one profile group, hence one grid call
    assert registry.counter_total("service.batch.groups") == 1
    model = UniformRequestModel(16, 16, rate=1.0)
    for b, response in zip(buses, responses):
        solo = scheme_bus_profile("full", 16, 16, [b], model).values[b]
        assert response.values[b] == solo  # grouped == solo, bitwise
        scalar = analytic_bandwidth(build_network("full", 16, 16, b), model)
        assert response.values[b] == pytest.approx(scalar, abs=1e-9)


def test_mixed_models_batch_into_separate_groups():
    engine = QueryEngine()

    async def main():
        return await asyncio.gather(
            engine.execute(_cell(4, r=1.0)),
            engine.execute(_cell(8, r=1.0)),
            engine.execute(_cell(4, r=0.5)),
            engine.execute(_cell(4, scheme="single")),
        )

    with telemetry() as registry:
        responses = asyncio.run(main())
    engine.close()
    assert registry.counter_total("service.batch.flushes") == 1
    assert registry.counter_total("service.batch.cells") == 4
    # r=1.0 full cells share a group; r=0.5 and single get their own
    assert registry.counter_total("service.batch.groups") == 3
    assert all(r.source == "computed" for r in responses)


def test_infeasible_cell_raises_and_is_never_cached():
    engine = QueryEngine()
    bad = _cell(20, scheme="kclass")  # B=20 > M=16: audited skip

    async def attempt():
        await engine.execute(bad)

    for _ in range(2):  # second round proves the failure was not cached
        with pytest.raises(ConfigurationError):
            asyncio.run(attempt())
        assert engine.inflight_count == 0
        assert engine.cache_size == 0

    # the engine still answers valid queries afterwards
    ok = asyncio.run(engine.execute(_cell(8)))
    engine.close()
    assert ok.source == "computed"


def test_failure_propagates_to_every_coalesced_waiter():
    engine = QueryEngine(cache_size=0)
    bad = _cell(20, scheme="kclass")

    async def main():
        return await asyncio.gather(
            *[engine.execute(bad) for _ in range(4)], return_exceptions=True
        )

    results = asyncio.run(main())
    assert all(isinstance(r, ConfigurationError) for r in results)
    assert engine.inflight_count == 0

    # the poisoned-map regression: a valid query right after must work
    ok = asyncio.run(engine.execute(_cell(8)))
    engine.close()
    assert ok.source == "computed"


def test_lru_eviction_is_bounded_and_counted():
    engine = QueryEngine(cache_size=2)

    async def run_all():
        for b in (1, 2, 3):
            await engine.execute(_cell(b))
        return await engine.execute(_cell(1))

    with telemetry() as registry:
        oldest = asyncio.run(run_all())
    engine.close()
    # B=1 evicted when B=3 landed; recomputing B=1 then evicted B=2
    assert registry.counter_total("service.cache.evictions") == 2
    assert engine.cache_size == 2
    assert oldest.source == "computed"


def test_cache_size_zero_never_stores_results():
    engine = QueryEngine(cache_size=0)

    async def main():
        first = await engine.execute(_cell(8))
        second = await engine.execute(_cell(8))
        return first, second

    first, second = asyncio.run(main())
    engine.close()
    assert engine.cache_size == 0
    assert first.source == second.source == "computed"
    assert first.value == second.value


def test_rate_shed_raises_admission_error_with_hint():
    clock = [0.0]
    bucket = TokenBucket(rate_per_second=2.0, burst=1,
                         clock=lambda: clock[0])
    engine = QueryEngine(admission=AdmissionController(bucket))

    async def main():
        await engine.execute(_cell(8))
        await engine.execute(_cell(4))

    with telemetry() as registry:
        with pytest.raises(AdmissionError) as err:
            asyncio.run(main())
    engine.close()
    assert err.value.reason == "rate"
    assert err.value.retry_after_seconds == pytest.approx(0.5)
    assert registry.counter_total("service.shed") == 1
    assert registry.counter_total("service.requests") == 1  # shed pre-count


def test_queue_depth_shed_under_concurrent_load():
    engine = QueryEngine(
        cache_size=0,
        admission=AdmissionController(max_queue_depth=1),
    )

    async def main():
        return await asyncio.gather(
            *[engine.execute(_cell(b)) for b in (2, 3, 4)],
            return_exceptions=True,
        )

    results = asyncio.run(main())
    engine.close()
    shed = [r for r in results if isinstance(r, AdmissionError)]
    served = [r for r in results if not isinstance(r, BaseException)]
    assert shed and served  # first request admitted, later ones shed
    assert all(e.reason == "queue_depth" for e in shed)


def test_execute_payload_parse_failure_leaves_engine_untouched():
    engine = QueryEngine()

    async def attempt():
        await engine.execute_payload({"scheme": "full", "N": 16, "B": "x"})

    with pytest.raises(ConfigurationError):
        asyncio.run(attempt())
    assert engine.inflight_count == 0
    assert engine.cache_size == 0
    engine.close()


def test_single_cell_payload_envelope():
    engine = QueryEngine()

    async def main():
        return await engine.execute_payload(
            {"scheme": "full", "N": 16, "B": 8, "r": 0.5}
        )

    payload = asyncio.run(main()).payload()
    engine.close()
    assert payload["ok"] is True
    assert payload["source"] == "computed"
    assert payload["result"]["B"] == 8
    assert isinstance(payload["result"]["bandwidth"], float)


def test_sweep_payload_envelope_uses_string_keys():
    engine = QueryEngine()

    async def main():
        return await engine.execute_payload(
            {"scheme": "full", "N": 8, "B": [2, 4]}, sweep=True
        )

    payload = asyncio.run(main()).payload()
    engine.close()
    assert sorted(payload["result"]["values"]) == ["2", "4"]
    assert payload["result"]["skipped"] == []
