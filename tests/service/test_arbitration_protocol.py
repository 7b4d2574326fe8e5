"""Protocol fuzz/negative coverage for the ``classes``/``tenure`` knobs.

The arbitration fields ride the same strict-validation path as every
other query field: malformed class mixes and burst lengths must be
rejected with typed :class:`~repro.exceptions.ConfigurationError`
before they reach the engine, degenerate spellings must normalize to
the knob-free query (so the cache and coalescing map key on one
canonical form), and a rejected payload must never poison the engine's
caches or in-flight map.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.batch import GridCell, evaluate_cells, scheme_bus_profile
from repro.exceptions import ConfigurationError, ReproError
from repro.service.engine import QueryEngine
from repro.service.protocol import Query, build_model, parse_query

VALID = {"scheme": "full", "N": 16, "M": 16, "B": 8, "r": 0.5}


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Happy path and normalization
# ----------------------------------------------------------------------


def test_classes_and_tenure_become_network_kwargs():
    query = parse_query({**VALID, "classes": [0.25, 0.75], "tenure": 4})
    kwargs = dict(query.network_kwargs)
    assert kwargs["class_weights"] == (0.25, 0.75)
    assert kwargs["tenure"] == 4.0
    hash(query)


def test_degenerate_spellings_normalize_away():
    bare = parse_query(dict(VALID))
    single_class = parse_query({**VALID, "classes": [1.0]})
    unit_tenure = parse_query({**VALID, "tenure": 1})
    both = parse_query({**VALID, "classes": [1.0], "tenure": 1.0})
    assert single_class == bare
    assert unit_tenure == bare
    assert both == bare
    assert hash(both) == hash(bare)


def test_knobs_order_is_canonical():
    a = parse_query({**VALID, "classes": [0.5, 0.5], "tenure": 2})
    b = parse_query({**VALID, "tenure": 2.0, "classes": [0.5, 0.5]})
    assert a == b
    assert hash(a) == hash(b)


# ----------------------------------------------------------------------
# Negative cases: every rejection is a typed ConfigurationError
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "classes",
    [
        [],                      # empty mix
        [0.5],                   # does not sum to one
        [0.25, 0.25],            # does not sum to one
        [-0.5, 1.5],             # negative weight
        [float("nan"), 1.0],     # NaN weight
        [float("inf"), 1.0],     # infinite weight
        [0.0, 1.0],              # zero weight
        [True, False],           # booleans are not weights
        ["0.5", "0.5"],          # strings are not weights
        "half-and-half",         # not a sequence of numbers
        0.5,                     # scalar
        {"hi": 0.5, "lo": 0.5},  # mapping
    ],
)
def test_malformed_classes_rejected(classes):
    with pytest.raises(ConfigurationError):
        parse_query({**VALID, "classes": classes})


@pytest.mark.parametrize(
    "tenure",
    [
        0,              # zero-length burst
        -3,             # negative burst
        0.5,            # shorter than one cycle
        float("nan"),
        float("inf"),
        True,           # boolean is not a length
        "4",            # string is not a length
        [4],            # list is not a length
        None,
    ],
)
def test_malformed_tenure_rejected(tenure):
    with pytest.raises(ConfigurationError):
        parse_query({**VALID, "tenure": tenure})


def test_more_classes_than_processors_rejected():
    classes = [1.0 / 8] * 8
    with pytest.raises(ConfigurationError, match="criticality classes"):
        parse_query({"scheme": "full", "N": 4, "B": 2, "classes": classes})


# ----------------------------------------------------------------------
# Engine hygiene: rejections never poison the cache or in-flight map
# ----------------------------------------------------------------------


def test_rejected_payloads_leave_engine_unpoisoned():
    async def scenario():
        engine = QueryEngine()
        try:
            for bad in (
                {**VALID, "classes": [0.3, 0.3]},
                {**VALID, "tenure": 0},
                {**VALID, "classes": "critical"},
            ):
                with pytest.raises(ConfigurationError):
                    await engine.execute_payload(bad)
                assert engine.cache_size == 0
                assert engine.inflight_count == 0

            # A valid priority query still computes after the rejections,
            # and the degenerate spelling shares the knob-free cache slot.
            priority = await engine.execute_payload(
                {**VALID, "classes": [0.25, 0.75], "tenure": 2}
            )
            assert all(
                math.isfinite(v) for v in priority.values.values()
            )
            degenerate = await engine.execute_payload(
                {**VALID, "classes": [1.0], "tenure": 1}
            )
            bare = await engine.execute_payload(dict(VALID))
            assert degenerate.query == bare.query
            assert degenerate.values == bare.values
            assert priority.query != bare.query
            assert engine.inflight_count == 0
        finally:
            engine.close()

    _run(scenario())


def test_tenure_throttles_reported_bandwidth():
    async def scenario():
        engine = QueryEngine()
        try:
            base = await engine.execute_payload(dict(VALID))
            burst = await engine.execute_payload({**VALID, "tenure": 4})
            for b, value in burst.values.items():
                assert value <= base.values[b] + 1e-9
        finally:
            engine.close()

    _run(scenario())


# ----------------------------------------------------------------------
# Tenure batching wall: a cell's value never depends on its companions
# ----------------------------------------------------------------------

_TENURE_SWEEPS = {
    "full": [1, 3, 8, 16],
    "single": [1, 3, 7, 16],
    "partial": [2, 6, 8, 16],
    "kclass": [1, 3, 8, 16],
}

_MODELS = {
    "unif": {},
    "hier": {"model": "hier", "hierarchy": {"clusters": 4}},
}


@pytest.mark.parametrize("model", sorted(_MODELS))
@pytest.mark.parametrize("scheme", sorted(_TENURE_SWEEPS))
def test_tenure_cell_alone_equals_grouped_and_swept(scheme, model):
    counts = _TENURE_SWEEPS[scheme]
    payload = {
        "scheme": scheme, "N": 16, "M": 16, "r": 0.75, "tenure": 3,
        **_MODELS[model],
    }
    query = parse_query({**payload, "B": counts}, sweep=True)
    built = build_model(query)
    kwargs = dict(query.network_kwargs)

    def cell(b):
        return GridCell.from_kwargs(scheme, 16, 16, b, built, **kwargs)

    alone = [evaluate_cells([cell(b)])[0] for b in counts]
    grouped = evaluate_cells([cell(b) for b in counts])

    async def scenario():
        engine = QueryEngine()
        try:
            return await engine.execute_payload(
                {**payload, "B": counts}, sweep=True
            )
        finally:
            engine.close()

    swept = _run(scenario())
    assert all(isinstance(v, float) for v in alone)
    assert alone == grouped
    assert alone == [swept.values[b] for b in counts]
    untenured = scheme_bus_profile(scheme, 16, 16, counts, built)
    assert all(
        value < untenured.values[b] for b, value in zip(counts, alone)
    )


@pytest.mark.parametrize(
    "scheme, counts, kwargs",
    [
        ("partial", [0, 3, 4, 7, 8, 17], {}),
        ("partial", [2, 4, 6, 12], {"n_groups": 4}),
        ("kclass", [1, 2, 5, 8], {"class_sizes": [2, 2, 4, 8]}),
        (
            "single",
            [1, 2, 3, 4, 9],
            {"bus_of_module": [j % 3 for j in range(16)]},
        ),
        ("full", [5, 20, -1, 16], {}),
    ],
)
def test_tenure_skips_match_the_tenure_free_profile(scheme, counts, kwargs):
    model = build_model(parse_query(dict(VALID)))
    base = scheme_bus_profile(scheme, 16, 16, counts, model, **kwargs)
    burst = scheme_bus_profile(
        scheme, 16, 16, counts, model, tenure=2.5, **kwargs
    )
    assert base.skipped
    assert burst.skipped == base.skipped
    assert list(burst.values) == list(base.values)


# ----------------------------------------------------------------------
# Hypothesis fuzz over the arbitration fields alone
# ----------------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=True, allow_infinity=True, width=32)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
)


@given(classes=_JSON, tenure=_JSON)
def test_fuzz_arbitration_fields_never_leak_raw_exceptions(classes, tenure):
    payload = {**VALID, "classes": classes, "tenure": tenure}
    try:
        query = parse_query(payload)
    except ReproError:
        return  # typed rejection: maps to a structured 4xx envelope
    assert isinstance(query, Query)
    kwargs = dict(query.network_kwargs)
    weights = kwargs.get("class_weights", (1.0,))
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert all(w > 0 for w in weights)
    assert kwargs.get("tenure", 1.0) >= 1.0
    hash(query)
