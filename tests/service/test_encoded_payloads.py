"""The encoded-response LRU: cached JSON bytes for repeat queries.

``QueryEngine.encoded_payload`` is the HTTP handlers' fast path — a
repeat hit on the result LRU must serve the exact bytes
``json.dumps`` would have produced, without re-encoding.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import telemetry
from repro.service import QueryEngine
from repro.service.protocol import parse_query


def _cell(b, scheme="full", n=16, r=1.0, **extra):
    return parse_query({"scheme": scheme, "N": n, "B": b, "r": r, **extra})


def _run(engine, *queries):
    async def main():
        return [await engine.execute(q) for q in queries]

    return asyncio.run(main())


def test_bytes_match_direct_json_encoding():
    engine = QueryEngine()
    (response,) = _run(engine, _cell(8))
    encoded = engine.encoded_payload(response)
    engine.close()
    assert isinstance(encoded, bytes)
    assert encoded == json.dumps(response.payload()).encode()
    assert json.loads(encoded) == response.payload()


def test_repeat_cache_tier_hit_served_from_encode_cache():
    engine = QueryEngine()
    with telemetry() as registry:
        cold, warm, warm2 = _run(engine, _cell(8), _cell(8), _cell(8))
        first = engine.encoded_payload(warm)
        second = engine.encoded_payload(warm2)
    engine.close()
    assert warm.source == warm2.source == "cache"
    # Same object back — no re-encode on the repeat.
    assert second is first
    assert registry.counter_total("service.encode.hits") == 1
    assert registry.counter_total("service.encode.misses") == 1


def test_computed_responses_are_not_stored():
    engine = QueryEngine()
    (cold,) = _run(engine, _cell(8))
    assert cold.source == "computed"
    with telemetry() as registry:
        engine.encoded_payload(cold)
        engine.encoded_payload(cold)
    engine.close()
    # Both calls miss: a "computed" envelope re-arrives as "cache" on
    # the next request, so storing it would never pay off.
    assert registry.counter_total("service.encode.misses") == 2
    assert registry.counter_total("service.encode.hits") == 0
    assert engine.encoded_cache_size == 0


def test_zero_size_bypasses_the_cache_entirely():
    engine = QueryEngine(encode_cache_size=0)
    _, warm = _run(engine, _cell(8), _cell(8))
    with telemetry() as registry:
        encoded = engine.encoded_payload(warm)
        assert encoded == engine.encoded_payload(warm)
    assert registry.counter_total("service.encode.hits") == 0
    assert registry.counter_total("service.encode.misses") == 0
    assert engine.encoded_cache_size == 0
    engine.close()


def test_negative_size_rejected():
    with pytest.raises(ConfigurationError, match="encode_cache_size"):
        QueryEngine(encode_cache_size=-1)


def test_eviction_is_lru_ordered():
    engine = QueryEngine(encode_cache_size=2)
    with telemetry() as registry:
        responses = _run(
            engine,
            _cell(2), _cell(2),   # warm pair per B so source == "cache"
            _cell(4), _cell(4),
            _cell(6), _cell(6),
        )
        for response in responses[1::2]:
            engine.encoded_payload(response)
    assert engine.encoded_cache_size == 2
    engine.close()
    assert registry.counter_total("service.encode.evictions") == 1


def test_clear_cache_drops_encoded_bytes():
    engine = QueryEngine()
    _, warm = _run(engine, _cell(8), _cell(8))
    engine.encoded_payload(warm)
    assert engine.encoded_cache_size == 1
    engine.clear_cache()
    assert engine.encoded_cache_size == 0
    engine.close()


def test_sweep_envelopes_cache_too():
    engine = QueryEngine()

    async def main():
        payload = {"scheme": "full", "N": 16, "B": [2, 4, 8], "r": 0.5}
        await engine.execute_payload(payload, sweep=True)
        return await engine.execute_payload(payload, sweep=True)

    warm = asyncio.run(main())
    assert warm.source == "cache"
    first = engine.encoded_payload(warm)
    assert engine.encoded_payload(warm) is first
    assert json.loads(first)["result"]["values"].keys() == {"2", "4", "8"}
    engine.close()
