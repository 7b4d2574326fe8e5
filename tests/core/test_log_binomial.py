"""Oracle tests for the log-factorial table behind every binomial pmf."""

import math

import numpy as np
import pytest

from repro.analysis.batch import binomial_pmf_grid
from repro.core.binomial import (
    binomial_pmf,
    log_binomial_coefficients,
    log_factorials,
)

special = pytest.importorskip("scipy.special")

LARGE_N = [255, 256, 511, 1000, 2047, 2048, 3001, 4095, 4096]


@pytest.mark.parametrize("n", list(range(0, 130)) + LARGE_N)
def test_matches_gammaln_oracle(n):
    i = np.arange(n + 1)
    oracle = (
        special.gammaln(n + 1)
        - special.gammaln(i + 1)
        - special.gammaln(n - i + 1)
    )
    np.testing.assert_allclose(
        log_binomial_coefficients(n), oracle, rtol=1e-12, atol=0.0
    )


def test_log_factorials_match_gammaln_oracle():
    k = np.arange(4097)
    np.testing.assert_allclose(
        log_factorials(4096), special.gammaln(k + 1), rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("n", range(0, 61))
def test_matches_exact_integer_binomials(n):
    exact = [math.log(math.comb(n, i)) for i in range(n + 1)]
    np.testing.assert_allclose(
        log_binomial_coefficients(n), exact, rtol=1e-12, atol=0.0
    )


def test_edge_cases():
    assert log_factorials(0).tolist() == [0.0]
    assert log_factorials(1).tolist() == [0.0, 0.0]
    assert log_binomial_coefficients(0).tolist() == [0.0]
    assert log_binomial_coefficients(1).tolist() == [0.0, 0.0]


def test_rejects_negative_n():
    with pytest.raises(ValueError, match="non-negative"):
        log_binomial_coefficients(-1)


def test_table_is_read_only_and_shared():
    small = log_factorials(8)
    with pytest.raises(ValueError):
        small[3] = 0.0
    large = log_factorials(5000)
    with pytest.raises(ValueError):
        large[3] = 0.0
    # Growing the table keeps earlier entries and leaves old views intact.
    assert np.array_equal(log_factorials(8), small)
    assert np.array_equal(large[:9], small)


@pytest.mark.parametrize("n", [1, 2, 12, 32, 1000, 4096])
def test_scalar_and_grid_pmfs_are_bit_identical(n):
    ps = np.linspace(0.001, 0.999, 37)
    grid = binomial_pmf_grid(n, ps)
    for row, p in zip(grid, ps):
        assert np.array_equal(row, binomial_pmf(n, float(p)))
