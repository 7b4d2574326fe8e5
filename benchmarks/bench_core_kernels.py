"""Micro-benchmarks of the core computational kernels.

Not tied to a paper artifact; these track the scalability headroom of
the library (machines far beyond the paper's N = 32).
"""

import numpy as np

from repro.analysis.batch import binomial_pmf_grid, tail_excess_all_buses
from repro.core.bandwidth import bandwidth_full, bandwidth_full_heterogeneous
from repro.core.binomial import binomial_pmf, tail_excess
from repro.core.hierarchy import paper_two_level_model
from repro.core.kclasses import bandwidth_kclass
from repro.core.request_models import UniformRequestModel
from repro.simulation.engine import MultiprocessorSimulator
from repro.topology.full import FullBusMemoryNetwork


def test_bandwidth_full_large_machine(benchmark):
    """Eq. (4) at N = 4096 — log-space binomials must stay exact."""
    value = benchmark(bandwidth_full, 4096, 2048, 0.632)
    assert 2000.0 < value <= 2048.0


def test_poisson_binomial_kernel(benchmark):
    """Heterogeneous eq. (4) with 1024 distinct module probabilities."""
    xs = np.linspace(0.1, 0.9, 1024)
    value = benchmark(bandwidth_full_heterogeneous, xs, 256)
    assert 0.0 < value <= 256.0 + 1e-9


def test_kclass_kernel_many_classes(benchmark):
    """Eq. (12) with K = 64 classes of 16 modules."""
    value = benchmark(bandwidth_kclass, [16] * 64, 64, 0.5)
    assert 0.0 < value <= 64.0


def test_tail_excess_all_buses_kernel(benchmark):
    """Every cap of a M = 8192 pmf from one reversed cumsum."""
    pmf = binomial_pmf(8192, 0.613)
    excess = benchmark(tail_excess_all_buses, pmf)
    assert excess.shape == pmf.shape
    for cap in (0, 1, 4096, 8192):
        assert abs(excess[cap] - tail_excess(pmf, cap)) < 1e-9


def test_binomial_pmf_grid_kernel(benchmark):
    """256 rate rows of Binomial(2048, p) from one log-coefficient row."""
    ps = np.linspace(0.001, 0.999, 256)
    grid = benchmark(binomial_pmf_grid, 2048, ps)
    assert grid.shape == (256, 2049)
    assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)


def test_hierarchy_fraction_matrix(benchmark):
    """N = 1024 two-level fraction matrix construction."""
    model = paper_two_level_model(1024)
    matrix = benchmark(model.fraction_matrix)
    assert matrix.shape == (1024, 1024)


def test_simulator_throughput(benchmark):
    """Cycles/second of the full engine on the paper's N=16 machine."""
    network = FullBusMemoryNetwork(16, 16, 8)
    model = UniformRequestModel(16, 16)

    def run():
        return MultiprocessorSimulator(network, model, seed=1).run(2_000)

    result = benchmark(run)
    assert result.n_cycles == 2_000
