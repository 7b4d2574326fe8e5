"""The ``scheme="custom"`` generator-spec surface of the query service.

Malformed generator specs must become structured 4xx envelopes on the
same typed path as every other protocol rejection; well-formed specs
must canonicalize so spelling variants share one cache identity while
*different structures* never collide; and a rejected spec must never
poison the engine — the same engine instance keeps answering after any
sequence of bad payloads.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.batch import scheme_bus_profile
from repro.core.request_models import UniformRequestModel
from repro.exceptions import (
    ConfigurationError,
    QueryTooLargeError,
    ReproError,
)
from repro.service.engine import QueryEngine
from repro.service.protocol import (
    ServiceLimits,
    error_envelope,
    parse_query,
    status_for,
)

VALID = {
    "scheme": "custom", "N": 8, "M": 8, "B": 4,
    "generator": {"kind": "grouped", "n_groups": 2},
}


# ----------------------------------------------------------------------
# Parsing and canonicalization
# ----------------------------------------------------------------------


def test_generator_spec_lands_in_network_kwargs_canonically():
    query = parse_query(VALID)
    assert query.scheme == "custom"
    (name, spec), = query.network_kwargs
    assert name == "generator"
    assert spec == (("kind", "grouped"), ("n_groups", 2))


def test_spelling_variants_share_one_cache_identity():
    base = parse_query(VALID)
    # Defaults filled in explicitly must hash identically: the waxman
    # spec spells out exactly the defaults normalize would fill.
    implicit = parse_query({
        "scheme": "custom", "N": 8, "B": 4,
        "generator": {"kind": "waxman"},
    })
    explicit = parse_query({
        "scheme": "custom", "N": 8, "B": 4,
        "generator": {"kind": "waxman", "alpha": 0.9, "beta": 0.5,
                      "seed": 0},
    })
    assert implicit == explicit
    assert hash(implicit) == hash(explicit)
    assert implicit != base


def test_different_structures_never_collide():
    left = parse_query(VALID)
    right = parse_query({
        "scheme": "custom", "N": 8, "M": 8, "B": 4,
        "generator": {"kind": "grouped", "n_groups": 4},
    })
    assert left != right
    assert left.network_kwargs != right.network_kwargs


# ----------------------------------------------------------------------
# Negative cases: every rejection is a typed 4xx envelope
# ----------------------------------------------------------------------


BAD_PAYLOADS = [
    ("custom-without-generator",
     {"scheme": "custom", "N": 8, "B": 4}),
    ("generator-on-paper-scheme",
     {"scheme": "full", "N": 8, "B": 4,
      "generator": {"kind": "grouped", "n_groups": 2}}),
    ("generator-not-a-mapping",
     {"scheme": "custom", "N": 8, "B": 4, "generator": "grouped"}),
    ("unknown-kind",
     {"scheme": "custom", "N": 8, "B": 4,
      "generator": {"kind": "smallworld"}}),
    ("missing-required-field",
     {"scheme": "custom", "N": 8, "B": 4,
      "generator": {"kind": "grouped"}}),
    ("unknown-field",
     {"scheme": "custom", "N": 8, "B": 4,
      "generator": {"kind": "grouped", "n_groups": 2, "depth": 1}}),
    ("bool-spelled-int",
     {"scheme": "custom", "N": 8, "B": 4,
      "generator": {"kind": "grouped", "n_groups": True}}),
    ("ragged-matrix",
     {"scheme": "custom", "N": 8, "M": 3, "B": 2,
      "generator": {"kind": "matrix",
                    "memory_bus": [[1, 0], [1], [0, 1]]}}),
    ("empty-memory-row",
     {"scheme": "custom", "N": 8, "M": 3, "B": 2,
      "generator": {"kind": "matrix",
                    "memory_bus": [[1, 0], [0, 0], [0, 1]]}}),
    ("dangling-bus",
     {"scheme": "custom", "N": 8, "M": 3, "B": 2,
      "generator": {"kind": "matrix",
                    "memory_bus": [[1, 0], [1, 0], [1, 0]]}}),
]


@pytest.mark.parametrize(
    "payload",
    [case[1] for case in BAD_PAYLOADS],
    ids=[case[0] for case in BAD_PAYLOADS],
)
def test_malformed_spec_is_typed_4xx(payload):
    with pytest.raises(ReproError) as excinfo:
        parse_query(payload)
    status, body = error_envelope(excinfo.value)
    assert status == status_for(excinfo.value)
    assert 400 <= status < 500
    assert body["ok"] is False
    assert body["error"]["type"] == type(excinfo.value).__name__
    assert body["error"]["message"]  # never a traceback, never empty


def test_oversized_matrix_spec_is_429_capacity_not_400():
    limits = ServiceLimits(max_machine=16)
    rows = [[1] * 8 for _ in range(64)]
    with pytest.raises(QueryTooLargeError) as excinfo:
        parse_query(
            {"scheme": "custom", "N": 8, "M": 64, "B": 8,
             "generator": {"kind": "matrix", "memory_bus": rows}},
            limits=limits,
        )
    assert status_for(excinfo.value) in (413, 429)


# ----------------------------------------------------------------------
# Engine integration: correctness, caching, and no poisoning
# ----------------------------------------------------------------------


def test_engine_value_matches_batch_profile_bit_identically():
    engine = QueryEngine()

    async def main():
        return await engine.execute_payload(VALID)

    response = asyncio.run(main())
    engine.close()
    profile = scheme_bus_profile(
        "custom", 8, 8, [4], UniformRequestModel(8, 8, rate=1.0),
        generator={"kind": "grouped", "n_groups": 2},
    )
    assert response.values == profile.values


def test_rejected_specs_do_not_poison_the_engine():
    engine = QueryEngine()

    async def main():
        outcomes = []
        for _, payload in BAD_PAYLOADS:
            try:
                await engine.execute_payload(payload)
                outcomes.append("accepted")
            except ReproError:
                outcomes.append("rejected")
        good = await engine.execute_payload(VALID)
        again = await engine.execute_payload(VALID)
        return outcomes, good, again

    outcomes, good, again = asyncio.run(main())
    engine.close()
    assert outcomes == ["rejected"] * len(BAD_PAYLOADS)
    assert good.source == "computed"
    assert again.source == "cache"
    assert again.values == good.values


def test_infeasible_dimensions_surface_as_skips_not_errors():
    # mesh_rowcol pins B = rows + cols: a sweep over other counts skips
    # those cells exactly like the paper tables' blank cells.
    engine = QueryEngine()
    payload = {
        "scheme": "custom", "N": 8, "M": 12, "B": [5, 7],
        "generator": {"kind": "mesh_rowcol", "rows": 3, "cols": 4},
    }

    async def main():
        return await engine.execute_payload(payload, sweep=True)

    response = asyncio.run(main())
    engine.close()
    assert sorted(response.values) == [7]
    assert [s["B"] for s in response.skipped] == [5]
    assert response.skipped[0]["reason_code"] == "generator_pins_bus_count"


@pytest.mark.parametrize(
    "payload,sweep",
    [
        (VALID, False),
        ({**VALID, "B": [2, 4, 8]}, True),
    ],
)
def test_cold_custom_request_validates_its_spec_once(
    monkeypatch, payload, sweep
):
    from repro.topology import generators

    calls = []
    normalize = generators.normalize_generator_spec

    def counted(spec):
        calls.append(spec)
        return normalize(spec)

    monkeypatch.setattr(generators, "normalize_generator_spec", counted)
    engine = QueryEngine()

    async def main():
        return await engine.execute_payload(payload, sweep=sweep)

    response = asyncio.run(main())
    engine.close()
    assert response.source == "computed"
    assert len(calls) == 1
