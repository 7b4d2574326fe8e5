"""The metrics registry: counters, gauges, histograms, events, lifecycle."""

from __future__ import annotations

import threading

from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    disable_telemetry,
    enable_telemetry,
    get_registry,
    set_registry,
    telemetry,
    telemetry_enabled,
)


class TestCounters:
    def test_increment_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.increment("cells")
        registry.increment("cells")
        assert registry.counter_value("cells") == 2

    def test_increment_by_value(self):
        registry = MetricsRegistry()
        registry.increment("cycles", 1500)
        registry.increment("cycles", 500)
        assert registry.counter_value("cycles") == 2000

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.increment("hits", kind="binom")
        registry.increment("hits", kind="binom")
        registry.increment("hits", kind="pbin")
        assert registry.counter_value("hits", kind="binom") == 2
        assert registry.counter_value("hits", kind="pbin") == 1
        assert registry.counter_value("hits") == 0  # unlabeled is distinct
        assert registry.counter_total("hits") == 3

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.increment("x", a=1, b=2)
        registry.increment("x", b=2, a=1)
        assert registry.counter_value("x", b=2, a=1) == 2

    def test_untouched_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nothing") == 0
        assert MetricsRegistry().counter_total("nothing") == 0


class TestGaugesAndHistograms:
    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3)
        registry.set_gauge("depth", 7)
        assert registry.gauges()[("depth", ())] == 7.0

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 6.0):
            registry.observe("latency", value)
        summary = registry.histograms()[("latency", ())]
        assert summary.count == 3
        assert summary.total == 9.0
        assert summary.min == 1.0
        assert summary.max == 6.0
        assert summary.mean == 3.0

    def test_time_block_records_duration(self):
        registry = MetricsRegistry()
        with registry.time_block("block.seconds", stage="warm"):
            pass
        summary = registry.histograms()[
            ("block.seconds", (("stage", "warm"),))
        ]
        assert summary.count == 1
        assert summary.min >= 0.0

    def test_snapshots_are_copies(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        snap = registry.histograms()
        registry.observe("h", 2.0)
        assert snap[("h", ())].count == 1
        assert registry.histograms()[("h", ())].count == 2


class TestEvents:
    def test_events_are_ordered_by_sequence_number(self):
        registry = MetricsRegistry()
        registry.record_event("a", value=1)
        registry.record_event("b", value=2)
        events = registry.events()
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["kind"] for e in events] == ["a", "b"]

    def test_events_carry_no_timestamp(self):
        registry = MetricsRegistry()
        registry.record_event("tick", scheme="full")
        (event,) = registry.events()
        assert set(event) == {"seq", "kind", "scheme"}

    def test_clear_resets_everything(self):
        registry = MetricsRegistry()
        registry.increment("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 1.0)
        registry.record_event("e")
        registry.clear()
        assert registry.counters() == {}
        assert registry.gauges() == {}
        assert registry.histograms() == {}
        assert registry.events() == []
        registry.record_event("fresh")
        assert registry.events()[0]["seq"] == 1


class TestNullRegistry:
    def test_mutations_are_noops(self):
        null = NullRegistry()
        null.increment("c", 5)
        null.set_gauge("g", 1)
        null.observe("h", 1.0)
        null.record_event("e", x=1)
        with null.time_block("t"):
            pass
        assert null.counters() == {}
        assert null.gauges() == {}
        assert null.histograms() == {}
        assert null.events() == []

    def test_time_block_is_shared_noop(self):
        null = NullRegistry()
        assert null.time_block("a") is null.time_block("b")


class TestLifecycle:
    def test_default_is_null_registry(self):
        assert get_registry() is NULL_REGISTRY
        assert not telemetry_enabled()

    def test_enable_installs_fresh_registry(self):
        registry = enable_telemetry()
        try:
            assert get_registry() is registry
            assert telemetry_enabled()
            assert not isinstance(registry, NullRegistry)
        finally:
            disable_telemetry()
        assert get_registry() is NULL_REGISTRY

    def test_set_registry_returns_previous(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert previous is NULL_REGISTRY
            assert get_registry() is mine
        finally:
            disable_telemetry()

    def test_telemetry_context_restores_prior_sink(self):
        outer = enable_telemetry()
        try:
            with telemetry() as inner:
                assert get_registry() is inner
                inner.increment("inner.only")
            assert get_registry() is outer
            assert outer.counter_value("inner.only") == 0
        finally:
            disable_telemetry()

    def test_telemetry_context_restores_on_exception(self):
        try:
            with telemetry():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_registry() is NULL_REGISTRY


def test_concurrent_increments_do_not_lose_updates():
    registry = MetricsRegistry()

    def work():
        for _ in range(1000):
            registry.increment("shared")

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter_value("shared") == 4000
