"""Retry policy: validation and deterministic jitter."""

import pytest

from repro.exceptions import ConfigurationError
from repro.resilience.retry import RetryPolicy


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_seconds": -0.1},
            {"backoff_factor": 0.5},
            {"jitter_fraction": -0.1},
            {"jitter_fraction": 1.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_single_attempt_disables_retries(self):
        assert not RetryPolicy(max_attempts=1).should_retry(1)


class TestDeterministicJitter:
    def test_delay_is_a_pure_function(self):
        policy = RetryPolicy(backoff_seconds=0.1, jitter_fraction=0.25)
        assert policy.delay(1, "cell-7") == policy.delay(1, "cell-7")
        assert policy.delay(1, "cell-7") != policy.delay(1, "cell-8")
        assert policy.delay(1, "cell-7") != policy.delay(2, "cell-7")

    def test_delay_within_jitter_bounds_and_growing(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_factor=2.0, jitter_fraction=0.2
        )
        for token in ("a", "b", "cell-42"):
            for attempt in (1, 2, 3, 4):
                base = 0.1 * 2.0 ** (attempt - 1)
                delay = policy.delay(attempt, token)
                assert base * 0.8 <= delay <= base * 1.2
        # Exponential growth dominates the jitter spread.
        assert policy.delay(3, "x") > policy.delay(1, "x")

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            backoff_seconds=0.5, backoff_factor=3.0, jitter_fraction=0.0
        )
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.5)
        assert policy.delay(3) == pytest.approx(4.5)

    def test_invalid_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)

