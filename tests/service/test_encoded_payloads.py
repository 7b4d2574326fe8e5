"""Encoded envelopes and the response cache for repeat request bodies.

``QueryEngine.encoded_payload`` is the HTTP handlers' fast path, and
the response cache keyed on the raw request body returns a repeat's
encoded ``source="cache"`` envelope without decoding the body again:
the bytes must be exactly those ``json.dumps`` would have produced.
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


def _raw(engine, *bodies, sweep=False):
    """Send each raw body through ``execute_payload`` in turn."""

    async def main():
        return [
            await engine.execute_payload(body, sweep=sweep)
            for body in bodies
        ]

    return asyncio.run(main())


BODY = b'{"scheme": "full", "N": 16, "B": 8, "r": 1.0}'


def test_repeat_cache_tier_hit_served_from_encode_cache():
    engine = QueryEngine()
    with telemetry() as registry:
        cold, warm = _raw(engine, BODY, BODY)
        first = engine.encoded_payload(warm)
        (warm2,) = _raw(engine, BODY)
        second = engine.encoded_payload(warm2)
    engine.close()
    assert cold.source == "computed"
    assert warm.source == warm2.source == "cache"
    # Same object back — no re-encode on the repeat.
    assert warm2 is warm
    assert second is first
    assert registry.counter_total("service.encode.hits") == 1
    assert registry.counter_total("service.encode.misses") == 2


def test_computed_responses_are_not_stored():
    engine = QueryEngine()
    with telemetry() as registry:
        cold, warm = _raw(engine, BODY, BODY)
    engine.close()
    assert cold.source == "computed"
    assert warm.source == "cache"
    # The repeat misses: a "computed" envelope re-arrives as "cache"
    # on the next request, so storing it would never pay off.
    assert registry.counter_total("service.encode.misses") == 2
    assert registry.counter_total("service.encode.hits") == 0


def test_eviction_is_lru_ordered():
    engine = QueryEngine(cache_size=2)
    bodies = [
        b'{"scheme": "full", "N": 16, "B": %d}' % b for b in (2, 4, 6)
    ]
    with telemetry() as registry:
        for body in bodies:
            _raw(engine, body, body)  # computed, then kept
        (newest,) = _raw(engine, bodies[2])
    engine.close()
    assert registry.counter_total("service.encode.evictions") == 1
    assert registry.counter_total("service.encode.hits") == 1
    assert newest.source == "cache"
    assert list(engine._responses) == [(False, bodies[1]), (False, bodies[2])]


def test_zero_size_bypasses_the_cache_entirely():
    engine = QueryEngine(cache_size=0)
    with telemetry() as registry:
        responses = _raw(engine, BODY, BODY, BODY)
    engine.close()
    assert [r.source for r in responses] == ["computed"] * 3
    assert registry.counter_total("service.encode.hits") == 0
    assert registry.counter_total("service.encode.misses") == 3
    assert not engine._responses


def test_negative_size_rejected():
    with pytest.raises(ConfigurationError, match="cache_size"):
        QueryEngine(cache_size=-1)


def test_clear_cache_drops_encoded_bytes():
    engine = QueryEngine()
    _raw(engine, BODY, BODY)
    engine.clear_cache()
    with telemetry() as registry:
        (again,) = _raw(engine, BODY)
    engine.close()
    assert again.source == "computed"
    assert registry.counter_total("service.encode.hits") == 0


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
