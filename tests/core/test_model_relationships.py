"""The request-model hierarchy the paper asserts, verified.

Section III: "The equally likely requesting case is a special case of
[Das and Bhuyan's] model" and the hierarchical model generalizes both:

* uniform == Das-Bhuyan with ``q = 1/M``,
* Das-Bhuyan (balanced favourites, N = M) == one-level hierarchical
  model with ``(m_0, m_1) = (q, (1-q)/(N-1))``,
* uniform == hierarchical with all fractions equal.

Every containment is checked on the fraction matrices (the canonical
representation), so it holds for every downstream consumer at once.
"""

import numpy as np
import pytest

from repro.analysis.evaluate import analytic_bandwidth
from repro.core.hierarchy import HierarchicalRequestModel
from repro.core.request_models import (
    FavoriteMemoryRequestModel,
    UniformRequestModel,
)
from repro.topology.full import FullBusMemoryNetwork


class TestUniformInsideFavorite:
    def test_fraction_matrices_equal(self):
        n = 8
        uniform = UniformRequestModel(n, n)
        favorite = FavoriteMemoryRequestModel(
            n, n, favorite_fraction=1.0 / n
        )
        assert np.allclose(
            uniform.fraction_matrix(), favorite.fraction_matrix()
        )

    def test_bandwidth_agrees(self):
        n, b = 8, 4
        network = FullBusMemoryNetwork(n, n, b)
        uniform = UniformRequestModel(n, n)
        favorite = FavoriteMemoryRequestModel(
            n, n, favorite_fraction=1.0 / n
        )
        assert analytic_bandwidth(network, uniform) == pytest.approx(
            analytic_bandwidth(network, favorite)
        )


class TestFavoriteInsideHierarchical:
    def test_one_level_hierarchy_is_das_bhuyan(self):
        n, q = 8, 0.6
        favorite = FavoriteMemoryRequestModel(n, n, favorite_fraction=q)
        one_level = HierarchicalRequestModel.nxn(
            (n,), (q, (1.0 - q) / (n - 1))
        )
        assert np.allclose(
            favorite.fraction_matrix(), one_level.fraction_matrix()
        )

    def test_x_agrees(self):
        n, q = 12, 0.45
        favorite = FavoriteMemoryRequestModel(
            n, n, favorite_fraction=q, rate=0.7
        )
        one_level = HierarchicalRequestModel.nxn(
            (n,), (q, (1.0 - q) / (n - 1)), rate=0.7
        )
        assert favorite.symmetric_module_probability() == pytest.approx(
            one_level.symmetric_module_probability()
        )


class TestUniformInsideHierarchical:
    def test_equal_fractions_give_uniform(self):
        n = 12
        hier = HierarchicalRequestModel.nxn((4, 3), [1.0 / n] * 3)
        assert np.allclose(hier.fraction_matrix(), 1.0 / n)

    def test_bandwidth_chain(self):
        # uniform <= Das-Bhuyan(q>1/M) <= two-level hierarchy with the
        # same favourite share: locality monotonically helps.
        n, b = 8, 4
        network = FullBusMemoryNetwork(n, n, b)
        uniform = analytic_bandwidth(network, UniformRequestModel(n, n))
        das = analytic_bandwidth(
            network, FavoriteMemoryRequestModel(n, n, favorite_fraction=0.6)
        )
        hier = analytic_bandwidth(
            network,
            HierarchicalRequestModel.from_aggregate_fractions(
                (4, 2), (0.6, 0.3, 0.1)
            ),
        )
        assert uniform <= das + 1e-9
        assert das <= hier + 1e-9
