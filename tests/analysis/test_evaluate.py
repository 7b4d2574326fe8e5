"""Tests for the analytic bandwidth dispatch facade."""

import numpy as np
import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.bandwidth import (
    bandwidth_full,
    bandwidth_partial,
    bandwidth_single,
)
from repro.core.kclasses import bandwidth_kclass
from repro.core.request_models import (
    FavoriteMemoryRequestModel,
    MatrixRequestModel,
    UniformRequestModel,
)
from repro.exceptions import ConfigurationError, ModelError
from repro.faults.injection import fail_buses
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork

MODEL = UniformRequestModel(8, 8)
X = MODEL.symmetric_module_probability()


class TestHomogeneousDispatch:
    def test_full(self):
        assert analytic_bandwidth(
            FullBusMemoryNetwork(8, 8, 4), MODEL
        ) == pytest.approx(bandwidth_full(8, 4, X))

    def test_single(self):
        assert analytic_bandwidth(
            SingleBusMemoryNetwork(8, 8, 4), MODEL
        ) == pytest.approx(bandwidth_single([2, 2, 2, 2], X))

    def test_partial(self):
        assert analytic_bandwidth(
            PartialBusNetwork(8, 8, 4, 2), MODEL
        ) == pytest.approx(bandwidth_partial(8, 4, 2, X))

    def test_kclass(self):
        net = KClassPartialBusNetwork(8, 8, 4, class_sizes=[2, 2, 2, 2])
        assert analytic_bandwidth(net, MODEL) == pytest.approx(
            bandwidth_kclass([2, 2, 2, 2], 4, X)
        )

    def test_crossbar(self):
        assert analytic_bandwidth(CrossbarNetwork(8, 8), MODEL) == (
            pytest.approx(8 * X)
        )


class TestHeterogeneousDispatch:
    @pytest.fixture
    def skewed(self):
        # All favourites on modules 0..3 -> hot/cold asymmetry.
        return FavoriteMemoryRequestModel(
            8, 8, favorite_fraction=0.7,
            favorites=[i % 4 for i in range(8)],
        )

    def test_full_heterogeneous(self, skewed):
        value = analytic_bandwidth(FullBusMemoryNetwork(8, 8, 4), skewed)
        assert 0.0 < value <= 4.0

    def test_heterogeneous_consistent_with_homogeneous_limit(self):
        # A symmetric matrix model exercises the same dispatch and must
        # equal the homogeneous formula.
        symmetric = MatrixRequestModel(np.full((8, 8), 1 / 8))
        assert analytic_bandwidth(
            FullBusMemoryNetwork(8, 8, 4), symmetric
        ) == pytest.approx(bandwidth_full(8, 4, X))

    def test_single_heterogeneous(self, skewed):
        value = analytic_bandwidth(SingleBusMemoryNetwork(8, 8, 4), skewed)
        xs = skewed.module_request_probabilities()
        expected = sum(
            1 - np.prod([1 - xs[2 * b], 1 - xs[2 * b + 1]])
            for b in range(4)
        )
        assert value == pytest.approx(expected)

    def test_partial_heterogeneous(self, skewed):
        value = analytic_bandwidth(PartialBusNetwork(8, 8, 4, 2), skewed)
        assert 0.0 < value <= 4.0

    def test_crossbar_heterogeneous(self, skewed):
        xs = skewed.module_request_probabilities()
        assert analytic_bandwidth(CrossbarNetwork(8, 8), skewed) == (
            pytest.approx(float(xs.sum()))
        )

    def test_kclass_class_uniform_heterogeneity(self, skewed):
        # Hot modules 0..3 as class C_2, cold 4..7 as class C_1 with the
        # contiguous default assignment reversed via class_of_module.
        net = KClassPartialBusNetwork(
            8, 8, 2,
            class_sizes=[4, 4],
            class_of_module=[2, 2, 2, 2, 1, 1, 1, 1],
        )
        xs = skewed.module_request_probabilities()
        expected = bandwidth_kclass(
            [4, 4], 2, [float(xs[4]), float(xs[0])]
        )
        assert analytic_bandwidth(net, skewed) == pytest.approx(expected)

    def test_kclass_rejects_intra_class_heterogeneity(self, skewed):
        # Interleaved assignment mixes hot and cold modules in one class.
        net = KClassPartialBusNetwork(
            8, 8, 2,
            class_sizes=[4, 4],
            class_of_module=[1, 2, 1, 2, 1, 2, 1, 2],
        )
        with pytest.raises(ModelError, match="class-uniform"):
            analytic_bandwidth(net, skewed)


class TestDispatchValidation:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="processors"):
            analytic_bandwidth(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(6, 8)
            )
        with pytest.raises(ConfigurationError, match="modules"):
            analytic_bandwidth(
                FullBusMemoryNetwork(8, 8, 4), UniformRequestModel(8, 6)
            )

    def test_rejects_degraded_topology(self):
        degraded = fail_buses(FullBusMemoryNetwork(8, 8, 4), {0})
        with pytest.raises(ConfigurationError, match="no closed form"):
            analytic_bandwidth(degraded, MODEL)
