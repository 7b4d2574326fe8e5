"""End-to-end checks that the hot paths actually feed the registry."""

from __future__ import annotations

from repro.analysis.parallel import parallel_map, simulated_bandwidth_sweep
from repro.analysis.sweep import bandwidth_sweep_with_skips
from repro.core.cache import pmf_cache
from repro.core.request_models import UniformRequestModel
from repro.faults.injection import fail_buses
from repro.obs.metrics import telemetry
from repro.simulation.engine import simulate_bandwidth
from repro.topology.factory import build_network


class TestCacheInstrumentation:
    def test_hits_and_misses_feed_the_registry(self):
        model = UniformRequestModel(8, 8, rate=0.75)
        with telemetry() as registry:
            pmf_cache.clear()
            bandwidth_sweep_with_skips("full", 8, [2, 4], [0.75])
            hits = registry.counter_total("pmf_cache.hits")
            misses = registry.counter_total("pmf_cache.misses")
            assert misses > 0
            # The second identical profile is served entirely from cache.
            bandwidth_sweep_with_skips("full", 8, [2, 4], [0.75])
            assert registry.counter_total("pmf_cache.misses") == misses
            assert registry.counter_total("pmf_cache.hits") > hits
        del model

    def test_registry_counters_match_cache_info(self):
        with telemetry() as registry:
            pmf_cache.clear()
            baseline = pmf_cache.cache_info()
            bandwidth_sweep_with_skips("full", 8, [1, 2, 4, 8], [1.0, 0.5])
            info = pmf_cache.cache_info()
            assert registry.counter_total("pmf_cache.hits") == (
                info.hits - baseline.hits
            )
            assert registry.counter_total("pmf_cache.misses") == (
                info.misses - baseline.misses
            )


class TestEngineInstrumentation:
    def test_backend_selection_and_run_counters(self):
        network = build_network("full", 8, 8, 4)
        model = UniformRequestModel(8, 8, rate=1.0)
        with telemetry() as registry:
            result = simulate_bandwidth(
                network, model, n_cycles=200, seed=7, backend="auto"
            )
            selected = [
                e for e in registry.events()
                if e["kind"] == "sim.backend_selected"
            ]
            assert selected == [
                {
                    "seq": selected[0]["seq"],
                    "kind": "sim.backend_selected",
                    "backend": "vectorized",
                    "requested": "auto",
                    "scheme": "full",
                    "N": 8,
                    "M": 8,
                    "B": 4,
                }
            ]
            assert registry.counter_value(
                "sim.backend", backend="vectorized"
            ) == 1
            assert registry.counter_value(
                "sim.cycles", backend="vectorized"
            ) == 200
            assert registry.counter_value(
                "sim.grants", backend="vectorized"
            ) == int(sum(result.grant_counts))
            rng_events = [
                e for e in registry.events() if e["kind"] == "sim.rng"
            ]
            assert len(rng_events) == 1
            assert rng_events[0]["entropy"] == 7
            assert rng_events[0]["backend"] == "vectorized"

    def test_auto_fallback_on_degraded_topology_is_logged(self):
        degraded = fail_buses(build_network("full", 8, 8, 4), [0])
        model = UniformRequestModel(8, 8, rate=1.0)
        with telemetry() as registry:
            simulate_bandwidth(
                degraded, model, n_cycles=100, seed=3, backend="auto"
            )
            fallbacks = [
                e for e in registry.events()
                if e["kind"] == "sim.backend_fallback"
            ]
            assert len(fallbacks) == 1
            assert fallbacks[0]["scheme"] == "degraded"
            assert fallbacks[0]["reason"]
            assert registry.counter_value("sim.backend", backend="loop") == 1

    def test_vectorized_chunks_are_counted(self):
        network = build_network("full", 4, 4, 2)
        model = UniformRequestModel(4, 4, rate=1.0)
        with telemetry() as registry:
            simulate_bandwidth(
                network, model, n_cycles=300, seed=1, backend="vectorized"
            )
            assert registry.counter_total("sim.vectorized.chunks") >= 1
            assert registry.counter_total("sim.vectorized.chunk_cycles") == 300


class TestSweepInstrumentation:
    def test_cells_evaluated_and_skipped_by_reason(self):
        with telemetry() as registry:
            result = bandwidth_sweep_with_skips(
                "partial", 8, [1, 2, 3, 4], [1.0], n_groups=2
            )
            evaluated = registry.counter_value(
                "analysis.cells_evaluated", scheme="partial"
            )
            # Two models per valid B; B in {2, 4} divide into g = 2 groups.
            assert evaluated == 2 * len(
                {record["B"] for record in result.records}
            )
            assert registry.counter_value(
                "analysis.cells_skipped",
                scheme="partial",
                reason="groups_divide_buses",
            ) == 2 * len(
                {cell.n_buses for cell in result.skipped}
            )
            assert registry.counter_value(
                "sweep.records", scheme="partial"
            ) == len(result.records)

    def test_sweep_span_carries_record_count(self):
        with telemetry() as registry:
            result = bandwidth_sweep_with_skips("full", 8, [2, 4], [1.0])
            ends = [
                e for e in registry.events()
                if e["kind"] == "span_end" and e["span"] == "sweep.bandwidth"
            ]
            assert len(ends) == 1
            assert ends[0]["records"] == len(result.records)


def _double(x):
    return x * 2


def _double_params(x):
    return {"op": "double", "x": x}


class TestParallelInstrumentation:
    def test_disk_cache_hits_and_misses(self, tmp_path):
        with telemetry() as registry:
            first = parallel_map(
                _double, [1, 2, 3], cache=tmp_path, cache_params=_double_params
            )
            assert registry.counter_value("parallel.disk_cache.misses") == 3
            assert registry.counter_value("parallel.disk_cache.hits") == 0
            second = parallel_map(
                _double, [1, 2, 3], cache=tmp_path, cache_params=_double_params
            )
            assert first == second == [2, 4, 6]
            assert registry.counter_value("parallel.disk_cache.hits") == 3

    def test_per_task_timings_are_recorded(self):
        with telemetry() as registry:
            parallel_map(_double, [1, 2, 3, 4])
            assert registry.counter_value("parallel.tasks", mode="serial") == 4
            summary = registry.histograms()[
                ("parallel.task_seconds", (("mode", "serial"),))
            ]
            assert summary.count == 4
            tasks = [
                e for e in registry.events() if e["kind"] == "parallel.task"
            ]
            assert len(tasks) == 4
            assert all(e["mode"] == "serial" for e in tasks)
            assert all(e["seconds"] >= 0.0 for e in tasks)

    def test_simulated_sweep_runs_under_a_span(self):
        with telemetry() as registry:
            records = simulated_bandwidth_sweep(
                "full", 8, bus_counts=[2], rates=[1.0],
                n_cycles=50, seed=0,
            )
            assert records
            starts = [
                e for e in registry.events()
                if e["kind"] == "span_start" and e["span"] == "sweep.simulated"
            ]
            assert len(starts) == 1
            assert starts[0]["cells"] == len(records)
