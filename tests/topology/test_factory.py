"""Tests for the network factory and figure instances."""

import pytest

from repro.exceptions import ConfigurationError
from repro.topology.crossbar import CrossbarNetwork
from repro.topology.factory import (
    build_network,
    equal_class_sizes,
    paper_figure_networks,
)
from repro.topology.full import FullBusMemoryNetwork
from repro.topology.kclass import KClassPartialBusNetwork
from repro.topology.partial import PartialBusNetwork
from repro.topology.single import SingleBusMemoryNetwork


class TestEqualClassSizes:
    def test_even_split(self):
        assert equal_class_sizes(16, 4) == [4, 4, 4, 4]

    def test_remainder_goes_to_high_classes(self):
        assert equal_class_sizes(10, 4) == [2, 2, 3, 3]

    def test_single_class(self):
        assert equal_class_sizes(7, 1) == [7]

    def test_more_classes_than_modules(self):
        assert equal_class_sizes(2, 4) == [0, 0, 1, 1]

    def test_rejects_zero_classes(self):
        with pytest.raises(ConfigurationError):
            equal_class_sizes(8, 0)


class TestBuildNetwork:
    def test_full(self):
        assert isinstance(build_network("full", 8, 8, 4), FullBusMemoryNetwork)

    def test_single(self):
        net = build_network("single", 8, 8, 4)
        assert isinstance(net, SingleBusMemoryNetwork)
        assert net.modules_per_bus() == [2, 2, 2, 2]

    def test_partial_defaults_to_g2(self):
        net = build_network("partial", 8, 8, 4)
        assert isinstance(net, PartialBusNetwork)
        assert net.n_groups == 2

    def test_partial_override(self):
        assert build_network("partial", 8, 8, 4, n_groups=4).n_groups == 4

    def test_kclass_defaults_to_k_equals_b(self):
        net = build_network("kclass", 8, 8, 4)
        assert isinstance(net, KClassPartialBusNetwork)
        assert net.n_classes == 4
        assert net.class_sizes == [2, 2, 2, 2]

    def test_kclass_override(self):
        net = build_network("kclass", 8, 8, 4, class_sizes=[4, 4])
        assert net.n_classes == 2

    def test_crossbar_ignores_bus_count(self):
        net = build_network("crossbar", 8, 8, 3)
        assert isinstance(net, CrossbarNetwork)
        assert net.n_buses == 8

    def test_crossbar_rejects_kwargs(self):
        with pytest.raises(ConfigurationError, match="no extra parameters"):
            build_network("crossbar", 8, 8, 8, n_groups=2)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            build_network("mesh", 8, 8, 4)

    def test_all_schemes_validate(self):
        for scheme in ("full", "single", "partial", "kclass", "crossbar"):
            build_network(scheme, 8, 8, 4).validate()


class TestPaperFigureNetworks:
    def test_contains_four_figures(self):
        nets = paper_figure_networks()
        assert set(nets) == {
            "fig1_full", "fig2_partial_g2", "fig3_kclass_3x6x4", "fig4_single"
        }

    def test_fig3_dimensions(self):
        fig3 = paper_figure_networks()["fig3_kclass_3x6x4"]
        assert (fig3.n_processors, fig3.n_memories, fig3.n_buses) == (3, 6, 4)
        assert fig3.n_classes == 3

    def test_all_validate(self):
        for net in paper_figure_networks().values():
            net.validate()
