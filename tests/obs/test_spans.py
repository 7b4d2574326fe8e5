"""Span tracing: nesting paths, timings, attributes, disabled no-ops."""

from __future__ import annotations

import pytest

from repro.obs.metrics import telemetry
from repro.obs.spans import _NOOP_SPAN, current_span_path, span


def test_span_is_noop_while_disabled():
    assert span("anything", B=4) is _NOOP_SPAN
    with span("outer"):
        assert current_span_path() is None


def test_span_records_start_and_end_events():
    with telemetry() as registry:
        with span("sweep.bandwidth", scheme="full", B=8):
            pass
    start, end = registry.events()
    assert start["kind"] == "span_start"
    assert start["span"] == "sweep.bandwidth"
    assert start["scheme"] == "full"
    assert start["B"] == 8
    assert end["kind"] == "span_end"
    assert end["span"] == "sweep.bandwidth"
    assert end["wall_seconds"] >= 0.0
    assert end["cpu_seconds"] >= 0.0
    assert "error" not in end


def test_nested_spans_build_slash_paths():
    with telemetry() as registry:
        with span("experiment.table5"):
            assert current_span_path() == "experiment.table5"
            with span("sweep.bandwidth"):
                assert (
                    current_span_path()
                    == "experiment.table5/sweep.bandwidth"
                )
            assert current_span_path() == "experiment.table5"
    assert current_span_path() is None
    ends = [e["span"] for e in registry.events() if e["kind"] == "span_end"]
    assert ends == ["experiment.table5/sweep.bandwidth", "experiment.table5"]


def test_span_timings_feed_histograms():
    with telemetry() as registry:
        with span("phase.a"):
            pass
        with span("phase.a"):
            pass
    histograms = registry.histograms()
    assert histograms[("span.phase.a.wall_seconds", ())].count == 2
    assert histograms[("span.phase.a.cpu_seconds", ())].count == 2


def test_set_attribute_lands_on_end_event():
    with telemetry() as registry:
        with span("sweep.bandwidth") as sweep_span:
            sweep_span.set_attribute("records", 42)
    end = [e for e in registry.events() if e["kind"] == "span_end"][0]
    assert end["records"] == 42


def test_exception_is_recorded_and_stack_unwinds():
    with telemetry() as registry:
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        assert current_span_path() is None
    end = [e for e in registry.events() if e["kind"] == "span_end"][0]
    assert end["error"] == "ValueError"
    assert end["wall_seconds"] >= 0.0


def test_span_exposes_measured_durations():
    with telemetry():
        with span("timed") as timed:
            pass
    assert timed.wall_seconds is not None and timed.wall_seconds >= 0.0
    assert timed.cpu_seconds is not None and timed.cpu_seconds >= 0.0


def test_noop_span_accepts_the_live_interface():
    noop = span("disabled")
    assert noop is _NOOP_SPAN
    noop.set_attribute("anything", 1)
    with noop:
        pass
    assert noop.path is None
