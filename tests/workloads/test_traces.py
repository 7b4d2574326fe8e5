"""Tests for trace recording, persistence and model fitting."""

import numpy as np
import pytest

from repro.core.request_models import UniformRequestModel
from repro.exceptions import SimulationError
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.full import FullBusMemoryNetwork
from repro.workloads.generator import FixedRequestGenerator, ModelRequestGenerator
from repro.workloads.traces import RequestTrace, record_trace


@pytest.fixture
def small_trace():
    return RequestTrace(
        n_processors=2,
        n_memories=2,
        cycles=(((0, 1), (1, 0)), ((0, 0),), ()),
    )


class TestRequestTrace:
    def test_len_and_totals(self, small_trace):
        assert len(small_trace) == 3
        assert small_trace.total_requests == 3

    def test_observed_rate(self, small_trace):
        assert small_trace.observed_rate() == pytest.approx(3 / 6)

    def test_reference_counts(self, small_trace):
        counts = small_trace.reference_counts()
        assert counts.tolist() == [[1, 1], [1, 0]]

    def test_empirical_model_fractions(self, small_trace):
        model = small_trace.empirical_model()
        f = model.fraction_matrix()
        assert f[0].tolist() == [0.5, 0.5]
        assert f[1].tolist() == [1.0, 0.0]
        assert model.rate == pytest.approx(0.5)

    def test_empirical_model_idle_processor_uniform(self):
        trace = RequestTrace(2, 2, (((0, 0),),))
        f = trace.empirical_model().fraction_matrix()
        assert f[1].tolist() == [0.5, 0.5]

    def test_generator_roundtrip(self, small_trace, rng):
        gen = small_trace.generator()
        assert isinstance(gen, FixedRequestGenerator)
        cycles = list(gen.cycles(3, rng))
        assert cycles[0] == [(0, 1), (1, 0)]
        assert cycles[2] == []


class TestPersistence:
    def test_save_load_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        small_trace.save(path)
        loaded = RequestTrace.load(path)
        assert loaded == small_trace

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SimulationError, match="empty"):
            RequestTrace.load(path)

    def test_load_rejects_truncated_file(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        small_trace.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SimulationError, match="declares"):
            RequestTrace.load(path)


class TestRecordTrace:
    def test_records_requested_cycles(self):
        gen = ModelRequestGenerator(UniformRequestModel(4, 4))
        trace = record_trace(gen, 50, rng=0)
        assert len(trace) == 50
        assert trace.n_processors == 4

    def test_seed_reproducible(self):
        gen = ModelRequestGenerator(UniformRequestModel(4, 4))
        assert record_trace(gen, 20, rng=7) == record_trace(gen, 20, rng=7)

    def test_rejects_zero_cycles(self):
        gen = ModelRequestGenerator(UniformRequestModel(4, 4))
        with pytest.raises(SimulationError):
            record_trace(gen, 0)

    def test_trace_replay_through_simulator(self):
        # Record a trace, then simulate the recorded workload: every
        # request in the trace flows through arbitration.
        model = UniformRequestModel(4, 4)
        trace = record_trace(ModelRequestGenerator(model), 200, rng=1)
        network = FullBusMemoryNetwork(4, 4, 2)
        result = MultiprocessorSimulator(
            network, trace.generator(), seed=2
        ).run(200)
        assert 0.0 < result.bandwidth <= 2.0

    def test_empirical_model_recovers_rate(self):
        model = UniformRequestModel(8, 8, rate=0.4)
        trace = record_trace(ModelRequestGenerator(model), 4000, rng=3)
        fitted = trace.empirical_model()
        assert fitted.rate == pytest.approx(0.4, abs=0.02)
        assert np.allclose(
            fitted.fraction_matrix(), 1 / 8, atol=0.05
        )
