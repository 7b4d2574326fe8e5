"""Rate-free model state shared per shape.

Uniform and hierarchical models of one shape share one read-only
fraction matrix, built and validated once.  These tests pin that the
sharing is safe: nobody can write through the shared matrix, every
consumer of a fraction matrix still works, a shape that fails
validation keeps failing, and the rate still reaches every request
matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hierarchy import HierarchicalRequestModel, paper_two_level_model
from repro.core.request_models import (
    MatrixRequestModel,
    SharedFractions,
    UniformRequestModel,
)
from repro.exceptions import ModelError
from repro.workloads.assignment import fit_hierarchical_fractions
from repro.workloads.generator import ModelRequestGenerator


SHAPES = [
    lambda rate: UniformRequestModel(6, 4, rate=rate),
    lambda rate: paper_two_level_model(8, rate=rate),
    lambda rate: HierarchicalRequestModel.nxm((2, 2), 3, (0.2, 0.4 / 3), rate=rate),
]


@pytest.mark.parametrize("make", SHAPES)
def test_shared_matrix_is_read_only(make):
    f = make(0.5).fraction_matrix()
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[0, 0] = 99.0
    assert make(0.5).fraction_matrix()[0, 0] != 99.0


@pytest.mark.parametrize("make", SHAPES)
def test_two_rates_share_one_matrix(make):
    low, high = make(0.25), make(0.75)
    assert low.fraction_matrix() is high.fraction_matrix()
    f = low.fraction_matrix()
    assert np.array_equal(low.request_matrix(), 0.25 * f)
    assert np.array_equal(high.request_matrix(), 0.75 * f)
    assert not np.array_equal(low.request_matrix(), high.request_matrix())


@pytest.mark.parametrize("make", SHAPES)
def test_with_rate_copies_the_pattern(make):
    model = make(0.5)
    other = model.with_rate(0.9)
    assert isinstance(other, MatrixRequestModel)
    assert other.rate == 0.9
    assert np.array_equal(other.fraction_matrix(), model.fraction_matrix())
    # The copy owns a writable matrix; the shared one is untouched.
    copy = other.fraction_matrix()
    copy[0, 0] = 99.0
    assert model.fraction_matrix()[0, 0] != 99.0


def test_hierarchical_fit_reads_a_shared_matrix():
    target = paper_two_level_model(8, rate=1.0)
    fit = fit_hierarchical_fractions(target, (4, 2))
    assert fit.max_abs_error == pytest.approx(0.0, abs=1e-12)
    assert fit.aggregate_fractions == pytest.approx((0.6, 0.3, 0.1))


@pytest.mark.parametrize("make", SHAPES)
def test_request_generator_reads_a_shared_matrix(make, rng):
    model = make(1.0)
    generator = ModelRequestGenerator(model)
    counts = np.zeros((model.n_processors, model.n_memories))
    for cycle in generator.cycles(4000, rng):
        for p, m in cycle:
            counts[p, m] += 1
    observed = counts / counts.sum(axis=1, keepdims=True)
    assert np.allclose(observed, model.fraction_matrix(), atol=0.05)


def test_invalid_hierarchy_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ModelError, match="do not normalize"):
            HierarchicalRequestModel.nxn((2, 2), (0.5, 0.5, 0.5))
        with pytest.raises(ModelError, match="empty separation"):
            HierarchicalRequestModel.from_aggregate_fractions(
                (4, 1), (0.6, 0.3, 0.1)
            )
        with pytest.raises(ModelError, match="sum to 1"):
            HierarchicalRequestModel.from_aggregate_fractions(
                (4, 2), (0.6, 0.3, 0.3)
            )


def test_rate_is_checked_on_a_cached_shape():
    paper_two_level_model(8, rate=0.5)
    for _ in range(2):
        with pytest.raises(ModelError, match="request rate"):
            paper_two_level_model(8, rate=1.5)


def test_failed_validation_is_never_kept():
    builds = []

    def build():
        builds.append(1)
        return np.array([[0.5, 0.4], [0.5, 0.5]])

    shared = SharedFractions((2, 2), build)
    for attempt in range(1, 4):
        with pytest.raises(ModelError, match="sums to"):
            shared.validate()
        with pytest.raises(ModelError, match="sums to"):
            shared.matrix()
        assert len(builds) == 2 * attempt


def test_valid_shape_builds_once():
    builds = []

    def build():
        builds.append(1)
        return np.full((2, 3), 1.0 / 3)

    shared = SharedFractions((2, 3), build)
    shared.validate()
    assert shared.matrix() is shared.matrix()
    shared.validate()
    assert len(builds) == 1
