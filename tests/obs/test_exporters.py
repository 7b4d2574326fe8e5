"""Exporters: JSON-lines event logs, Prometheus text, run manifests."""

from __future__ import annotations

import json

from repro.obs.exporters import (
    events_jsonl,
    prometheus_text,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.manifest import (
    build_manifest,
    skipped_cell_counts,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.increment("pmf_cache.hits", 9, kind="binom")
    registry.increment("pmf_cache.misses", 1, kind="binom")
    registry.increment("analysis.cells_evaluated", 12, scheme="partial")
    registry.set_gauge("depth", 2)
    registry.observe("span.sweep.wall_seconds", 0.5)
    registry.observe("span.sweep.wall_seconds", 1.5)
    registry.record_event("sim.backend_selected", backend="loop", N=8)
    return registry


class TestEventsJsonl:
    def test_one_sorted_json_object_per_line(self):
        text = events_jsonl(_sample_registry())
        assert text.endswith("\n")
        (line,) = text.strip().splitlines()
        event = json.loads(line)
        assert event == {
            "N": 8,
            "backend": "loop",
            "kind": "sim.backend_selected",
            "seq": 1,
        }
        assert list(json.loads(line)) == sorted(event)

    def test_empty_registry_yields_empty_string(self):
        assert events_jsonl(MetricsRegistry()) == ""

    def test_write_round_trips(self, tmp_path):
        registry = _sample_registry()
        path = write_events_jsonl(registry, tmp_path / "deep" / "events.jsonl")
        assert path.read_text() == events_jsonl(registry)


class TestPrometheusText:
    def test_counters_gauges_and_summaries(self):
        text = prometheus_text(_sample_registry())
        assert "# TYPE repro_pmf_cache_hits counter" in text
        assert 'repro_pmf_cache_hits{kind="binom"} 9' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2" in text
        assert "# TYPE repro_span_sweep_wall_seconds summary" in text
        assert "repro_span_sweep_wall_seconds_count 2" in text
        assert "repro_span_sweep_wall_seconds_sum 2" in text
        assert "repro_span_sweep_wall_seconds_min 0.5" in text
        assert "repro_span_sweep_wall_seconds_max 1.5" in text

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.increment("weird.name-with/chars", label_x="v")
        text = prometheus_text(registry, prefix="p")
        assert 'p_weird_name_with_chars{label_x="v"} 1' in text

    def test_output_is_deterministic(self):
        a = prometheus_text(_sample_registry())
        b = prometheus_text(_sample_registry())
        assert a == b

    def test_write_round_trips(self, tmp_path):
        registry = _sample_registry()
        path = write_prometheus(registry, tmp_path / "metrics.prom")
        assert path.read_text() == prometheus_text(registry)


class TestManifest:
    def test_cache_section_computes_hit_rate(self):
        manifest = build_manifest(_sample_registry())
        assert manifest["cache"] == {
            "hits": 9,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.9,
        }

    def test_run_block_passes_through_verbatim(self):
        run = {"experiment_id": "table5", "reproduces": True}
        manifest = build_manifest(MetricsRegistry(), run=run)
        assert manifest["run"] == run

    def test_skipped_cells_are_sorted_flat_records(self):
        registry = MetricsRegistry()
        registry.increment(
            "analysis.cells_skipped", 3,
            scheme="partial", reason="groups_divide_buses",
        )
        registry.increment(
            "analysis.cells_skipped", 1,
            scheme="kclass", reason="classes_exceed_buses",
        )
        assert skipped_cell_counts(registry) == [
            {
                "scheme": "kclass",
                "reason": "classes_exceed_buses",
                "count": 1,
            },
            {
                "scheme": "partial",
                "reason": "groups_divide_buses",
                "count": 3,
            },
        ]

    def test_arbitration_section_digests_priority_counters(self):
        registry = MetricsRegistry()
        registry.increment("arbitration.runs", 2, discipline="strict")
        registry.increment("arbitration.runs", 1, discipline="rr")
        registry.increment("arbitration.class_grants", 30, cls="0")
        registry.increment("arbitration.class_grants", 70, cls="1")
        registry.increment("arbitration.starved_cycles", 5, cls="1")
        registry.increment("arbitration.blocked_tenure", 12)
        manifest = build_manifest(registry)
        assert manifest["arbitration"] == {
            "runs": {"rr": 1, "strict": 2},
            "class_grants": {"0": 30, "1": 70},
            "starved_cycles": {"1": 5},
            "blocked_tenure": 12,
        }

    def test_arbitration_section_is_empty_for_classblind_runs(self):
        manifest = build_manifest(MetricsRegistry())
        assert manifest["arbitration"] == {
            "runs": {},
            "class_grants": {},
            "starved_cycles": {},
            "blocked_tenure": 0,
        }

    def test_backend_section_collects_runs_and_fallbacks(self):
        registry = MetricsRegistry()
        registry.increment("sim.backend", 2, backend="vectorized")
        registry.increment("sim.backend", 1, backend="loop")
        registry.record_event(
            "sim.backend_fallback", scheme="degraded", reason="fault topology"
        )
        manifest = build_manifest(registry)
        assert manifest["backends"]["runs"] == {"loop": 1, "vectorized": 2}
        assert manifest["backends"]["auto_fallbacks"] == [
            {"scheme": "degraded", "reason": "fault topology"}
        ]

    def test_rng_section_summarizes_streams(self):
        registry = MetricsRegistry()
        registry.record_event("sim.rng", backend="loop", entropy=7)
        registry.record_event("sim.rng", backend="loop", entropy=7)
        registry.record_event("sim.rng", backend="vectorized", entropy=3)
        manifest = build_manifest(registry)
        assert manifest["rng"] == {"streams": 3, "root_entropies": [3, 7]}

    def test_timings_confine_durations_to_one_section(self):
        manifest = build_manifest(_sample_registry())
        assert manifest["timings"]["phases"]["sweep"]["count"] == 2
        assert manifest["timings"]["phases"]["sweep"]["wall_seconds"] == 2.0
        without_timings = {
            k: v for k, v in manifest.items() if k != "timings"
        }
        assert "seconds" not in json.dumps(without_timings)

    def test_manifest_is_diffable(self, tmp_path):
        """Two identical workloads produce byte-identical manifests."""
        texts = []
        for name in ("a.json", "b.json"):
            path = write_manifest(
                _sample_registry(), tmp_path / name, run={"id": "x"}
            )
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        json.loads(texts[0])  # valid JSON

    def test_resilience_section_digests_retry_counters(self):
        registry = MetricsRegistry()
        registry.increment("fabric.retries", 2, reason="worker-crash")
        registry.increment("fabric.retries", 1, reason="stall-timeout")
        registry.increment(
            "parallel.disk_cache.quarantined", reason="unparseable"
        )
        manifest = build_manifest(registry)
        assert manifest["resilience"] == {
            "retries": {"stall-timeout": 1, "worker-crash": 2},
            "total_retries": 3,
            "quarantined_cache_files": 1,
            "deadline_exceeded": {},
        }

    def test_faults_section_digests_fault_counters(self):
        registry = MetricsRegistry()
        registry.increment("availability.failure_sets", 16, method="exact")
        registry.increment("availability.failure_sets", 3, method="montecarlo")
        manifest = build_manifest(registry)
        assert manifest["faults"] == {
            "availability_sets": {"exact": 16, "montecarlo": 3},
        }

    def test_quiet_run_has_empty_resilience_and_faults(self):
        manifest = build_manifest(MetricsRegistry())
        assert manifest["resilience"]["total_retries"] == 0
        assert manifest["resilience"]["retries"] == {}
        assert manifest["faults"] == {"availability_sets": {}}
