"""Differential acceptance: the service never changes a single bit.

A seeded generator builds a randomized universe of queries across all
five schemes, both request models and a spread of machine shapes, then
answers each through four service paths:

* **cold** — first execution (``source="computed"``, via the
  micro-batch window);
* **warm** — repeat execution served by the result LRU;
* **coalesced** — a concurrent burst of identical queries on a
  cache-less engine, all waiters sharing one computation;
* **micro-batched** — distinct cells submitted in the same event-loop
  tick, grouped into shared grid calls.

Every value must be **bit-identical** (``==``, no tolerance) to a
direct :func:`repro.analysis.batch.scheme_bus_profile` call with a
freshly built model — the grid kernels are elementwise in the bus
count, so batching can never change a result.  The scalar
:func:`repro.analysis.evaluate.analytic_bandwidth` path is additionally
pinned within its documented 1e-9 envelope.  The suite counts its
comparisons and requires at least 200.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.analysis.batch import scheme_bus_profile
from repro.analysis.evaluate import analytic_bandwidth
from repro.exceptions import ConfigurationError
from repro.service.engine import QueryEngine
from repro.service.protocol import Query, build_model, parse_query
from repro.topology.factory import build_network

SEED = 20260805


def _random_payloads(count: int) -> list[dict]:
    """A reproducible mixed-scheme query universe."""
    rng = random.Random(SEED)
    payloads = []
    while len(payloads) < count:
        scheme = rng.choice(["full", "single", "partial", "kclass",
                             "crossbar"])
        n = rng.choice([4, 8, 16])
        payload = {"scheme": scheme, "N": n, "M": n,
                   "r": rng.choice([0.25, 0.5, 0.75, 1.0])}
        if n >= 8 and rng.random() < 0.4:
            # clusters must divide N with >= 2 members each, or the
            # paper's two-level fractions hit an empty separation class
            payload["model"] = "hier"
            payload["hierarchy"] = {"clusters": rng.choice([2, 4])}
        if scheme == "partial":
            groups = rng.choice([2, 4])
            payload["n_groups"] = groups
            payload["B"] = groups * rng.randint(1, max(1, n // groups))
        else:
            payload["B"] = rng.randint(1, n)
            if scheme == "kclass":
                split = rng.randint(1, n - 1)
                payload["class_sizes"] = [split, n - split]
        payloads.append(payload)
    return payloads


def _expected(query: Query):
    """Ground truth from a direct grid call with a fresh model."""
    profile = scheme_bus_profile(
        query.scheme,
        query.n_processors,
        query.n_memories,
        list(query.bus_counts),
        build_model(query),
        **dict(query.network_kwargs),
    )
    return profile


@pytest.fixture(scope="module")
def universe():
    payloads = _random_payloads(70)
    queries, expected = [], {}
    for payload in payloads:
        query = parse_query(payload)
        if query in expected:
            continue
        profile = _expected(query)
        queries.append(query)
        expected[query] = profile
    # enough feasible, distinct queries to clear the 200-comparison bar
    feasible = [q for q in queries if expected[q].values]
    assert len(feasible) >= 55, f"universe too small: {len(feasible)}"
    return queries, expected


def _check(query, response, expected, comparisons):
    profile = expected[query]
    b = query.bus_counts[0]
    if not profile.values:
        raise AssertionError("feasible query expected")
    assert response.values[b] == profile.values[b]  # bitwise
    comparisons.append(query)


def test_cold_and_warm_paths_are_bit_identical(universe):
    queries, expected = universe
    engine = QueryEngine()
    comparisons = []

    async def main():
        for query in queries:
            if not expected[query].values:
                with pytest.raises(ConfigurationError):
                    await engine.execute(query)
                continue
            cold = await engine.execute(query)
            assert cold.source == "computed"
            _check(query, cold, expected, comparisons)
            warm = await engine.execute(query)
            assert warm.source == "cache"
            _check(query, warm, expected, comparisons)

    asyncio.run(main())
    engine.close()
    assert len(comparisons) >= 110


def test_coalesced_path_is_bit_identical(universe):
    queries, expected = universe
    feasible = [q for q in queries if expected[q].values]
    engine = QueryEngine(cache_size=0)
    comparisons = []

    async def main():
        for query in feasible:
            burst = await asyncio.gather(
                *[engine.execute(query) for _ in range(3)]
            )
            assert sorted(r.source for r in burst) == [
                "coalesced", "coalesced", "computed",
            ]
            for response in burst:
                _check(query, response, expected, comparisons)

    asyncio.run(main())
    engine.close()
    assert len(comparisons) >= 165


def test_micro_batched_path_is_bit_identical(universe):
    queries, expected = universe
    feasible = [q for q in queries if expected[q].values]
    engine = QueryEngine(cache_size=0, batch_max_size=256)
    comparisons = []

    async def main():
        # one tick: every cell lands in a single window, grouped by model
        return await asyncio.gather(
            *[engine.execute(query) for query in feasible]
        )

    responses = asyncio.run(main())
    engine.close()
    for query, response in zip(feasible, responses):
        assert response.source == "computed"
        _check(query, response, expected, comparisons)
    assert len(comparisons) >= 55


def test_scalar_path_agrees_within_documented_envelope(universe):
    queries, expected = universe
    checked = 0
    for query in queries:
        profile = expected[query]
        b = query.bus_counts[0]
        if b not in profile.values:
            continue
        try:
            network = build_network(
                query.scheme, query.n_processors, query.n_memories, b,
                **dict(query.network_kwargs),
            )
        except ConfigurationError:
            continue
        scalar = analytic_bandwidth(network, build_model(query))
        assert profile.values[b] == pytest.approx(scalar, abs=1e-9)
        checked += 1
    assert checked >= 40


def test_total_differential_coverage_exceeds_two_hundred(universe):
    queries, expected = universe
    feasible = [q for q in queries if expected[q].values]
    # cold + warm + 3x coalesced + batched, per feasible query
    assert len(feasible) * 6 >= 200
