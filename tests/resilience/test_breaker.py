"""Circuit-breaker state machine, deterministic probe schedule, metrics.

The fake clock walks the breaker through every edge of the
closed/open/half-open diagram exactly; the determinism tests pin the
hashed-jitter contract — two breakers with the same name and policy
trip, probe and recover on the identical schedule.
"""

import pytest

from repro.exceptions import BreakerOpenError, ConfigurationError
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _breaker(clock, threshold=2, window=4, probe=1.0, backoff=2.0):
    return CircuitBreaker(
        "test.dep",
        policy=BreakerPolicy(
            failure_threshold=threshold,
            window_size=window,
            probe_delay_seconds=probe,
            probe_backoff_factor=backoff,
        ),
        clock=clock,
    )


class TestStateMachine:
    def test_stays_closed_below_threshold(self):
        breaker = _breaker(FakeClock())
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_open_at_threshold(self):
        breaker = _breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        with pytest.raises(BreakerOpenError) as excinfo:
            breaker.check()
        assert excinfo.value.name == "test.dep"
        assert excinfo.value.retry_after_seconds > 0

    def test_successes_age_failures_out_of_the_window(self):
        breaker = _breaker(FakeClock(), threshold=2, window=3)
        breaker.record_failure()
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()  # old failure evicted; only 1 in window
        assert breaker.state == CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = _breaker(clock, probe=1.0)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(2.0)  # past any jittered probe delay
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller refused

    def test_probe_success_closes_and_clears(self):
        clock = FakeClock()
        breaker = _breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_count == 0
        assert breaker.retry_after_seconds() == 0.0

    def test_probe_failure_reopens_with_longer_delay(self):
        clock = FakeClock()
        breaker = _breaker(clock, probe=1.0, backoff=2.0)
        breaker.record_failure()
        breaker.record_failure()
        first_delay = breaker.retry_after_seconds()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        second_delay = breaker.retry_after_seconds()
        # Exponential backoff net of +/-10% jitter: strictly longer.
        assert second_delay > first_delay

    def test_call_wraps_outcome_recording(self):
        breaker = _breaker(FakeClock(), threshold=1)
        with pytest.raises(ValueError):
            breaker.call(lambda: (_ for _ in ()).throw(ValueError("boom")))
        assert breaker.state == OPEN
        with pytest.raises(BreakerOpenError):
            breaker.call(lambda: 42)


class TestDeterminism:
    def test_probe_schedule_is_a_pure_function_of_name_and_count(self):
        policy = BreakerPolicy()
        for count in (1, 2, 5):
            assert policy.probe_delay("a", count) == policy.probe_delay(
                "a", count
            )
        assert policy.probe_delay("a", 1) != policy.probe_delay("b", 1)

    def test_jitter_stays_within_fraction(self):
        policy = BreakerPolicy(
            probe_delay_seconds=1.0,
            probe_backoff_factor=1.0,
            jitter_fraction=0.1,
        )
        for count in range(1, 20):
            delay = policy.probe_delay("dep", count)
            assert 0.9 <= delay <= 1.1

    def test_two_breakers_replay_identical_transitions(self):
        logs = []
        for _ in range(2):
            clock = FakeClock()
            breaker = _breaker(clock)
            breaker.record_failure()
            breaker.record_failure()
            clock.advance(2.0)
            breaker.allow()
            breaker.record_failure()
            clock.advance(4.0)
            breaker.allow()
            breaker.record_success()
            logs.append(breaker.transitions())
        assert logs[0] == logs[1]
        assert [t["to"] for t in logs[0]] == [
            OPEN, HALF_OPEN, OPEN, HALF_OPEN, CLOSED,
        ]

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(failure_threshold=5, window_size=4)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(probe_delay_seconds=0)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(jitter_fraction=1.5)
        with pytest.raises(ConfigurationError):
            BreakerPolicy(
                probe_delay_seconds=5.0, max_probe_delay_seconds=1.0
            )


class TestTelemetry:
    def test_transitions_and_rejections_land_in_manifest(self):
        clock = FakeClock()
        with telemetry() as registry:
            breaker = _breaker(clock)
            breaker.record_failure()
            breaker.record_failure()
            breaker.allow()  # rejected while open
        manifest = build_manifest(registry)["breaker"]
        assert manifest["transition_totals"] == {"test.dep": 1}
        assert manifest["rejected"] == {"test.dep": 1}
        (transition,) = manifest["transitions"]
        assert transition["breaker"] == "test.dep"
        assert transition["from"] == CLOSED
        assert transition["to"] == OPEN
        assert transition["failures"] == 2
