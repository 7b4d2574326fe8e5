"""Token-bucket admission, queue-depth shedding and retry-hint plumbing."""

from __future__ import annotations

import pytest

from repro.exceptions import AdmissionError, ConfigurationError
from repro.obs.metrics import telemetry
from repro.resilience.retry import RetryPolicy
from repro.service.admission import AdmissionController, TokenBucket


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_burst_then_deterministic_hint():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=4.0, burst=2, clock=clock)
    assert bucket.try_acquire() == 0.0
    assert bucket.try_acquire() == 0.0
    # bucket empty: the hint is exactly the time until the next token
    assert bucket.try_acquire() == pytest.approx(0.25)
    assert bucket.tokens == 0.0


def test_waiting_the_hint_admits():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=4.0, burst=1, clock=clock)
    assert bucket.try_acquire() == 0.0
    hint = bucket.try_acquire()
    assert hint > 0.0
    clock.advance(hint)
    assert bucket.try_acquire() == 0.0


def test_refill_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=10.0, burst=3, clock=clock)
    for _ in range(3):
        assert bucket.try_acquire() == 0.0
    clock.advance(100.0)
    assert bucket.tokens == 3.0


def test_partial_refill_accrues_continuously():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=2.0, burst=1, clock=clock)
    bucket.try_acquire()
    clock.advance(0.25)  # half a token
    assert bucket.tokens == pytest.approx(0.5)
    assert bucket.try_acquire() == pytest.approx(0.25)


@pytest.mark.parametrize("kwargs", [
    {"rate_per_second": 0.0, "burst": 1},
    {"rate_per_second": -1.0, "burst": 1},
    {"rate_per_second": 1.0, "burst": 0},
])
def test_bucket_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        TokenBucket(**kwargs)


def test_controller_rejects_bad_depth():
    with pytest.raises(ConfigurationError):
        AdmissionController(max_queue_depth=0)


def test_rate_shed_carries_hint_and_reason():
    clock = FakeClock()
    controller = AdmissionController(
        TokenBucket(rate_per_second=2.0, burst=1, clock=clock)
    )
    controller.admit()
    with telemetry() as registry:
        with pytest.raises(AdmissionError) as err:
            controller.admit()
    assert err.value.reason == "rate"
    assert err.value.retry_after_seconds == pytest.approx(0.5)
    assert registry.counters()[("service.shed", (("reason", "rate"),))] == 1


def test_depth_shed_wins_over_available_tokens():
    clock = FakeClock()
    controller = AdmissionController(
        TokenBucket(rate_per_second=2.0, burst=8, clock=clock),
        max_queue_depth=4,
    )
    with pytest.raises(AdmissionError) as err:
        controller.admit(queue_depth=4)
    assert err.value.reason == "queue_depth"
    assert err.value.retry_after_seconds == pytest.approx(0.5)  # 1/rate
    # tokens untouched: a depth shed must not burn rate budget
    controller.admit(queue_depth=0)


def test_depth_shed_without_bucket_uses_default_hint():
    controller = AdmissionController(max_queue_depth=1)
    with pytest.raises(AdmissionError) as err:
        controller.admit(queue_depth=1)
    assert err.value.retry_after_seconds > 0.0


def test_no_gates_admits_everything():
    controller = AdmissionController()
    for depth in (0, 10, 10_000):
        controller.admit(queue_depth=depth)


# ----------------------------------------------------------------------
# Client-side: RetryPolicy honors the server's hint
# ----------------------------------------------------------------------


def test_delay_honoring_takes_the_max():
    policy = RetryPolicy(max_attempts=5)
    for attempt in range(1, 4):
        base = policy.delay(attempt)
        assert policy.delay_honoring(attempt, retry_after=0.0) == base
        assert policy.delay_honoring(attempt, retry_after=base + 1) == (
            base + 1
        )
        assert policy.delay_honoring(attempt, retry_after=base / 2) == base


def test_delay_honoring_rejects_negative_hint():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=2).delay_honoring(1, retry_after=-0.1)


def test_delay_honoring_folds_admission_error_hint():
    exc = AdmissionError("shed", retry_after_seconds=9.5, reason="rate")
    policy = RetryPolicy(max_attempts=2)
    assert policy.delay_honoring(
        1, retry_after=exc.retry_after_seconds
    ) >= 9.5
