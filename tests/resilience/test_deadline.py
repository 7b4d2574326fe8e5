"""Deadline budgets: arithmetic, checkpoints, and propagation channels.

A fake monotonic clock makes every assertion exact — no sleeps, no
flaky margins.  The propagation tests pin the conservative-floor
contract: a budget re-encoded for the next hop is never larger than
what actually remains.
"""

import pytest

from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
from repro.resilience.deadline import (
    DEADLINE_HEADER,
    ENV_DEADLINE_MS,
    MAX_BUDGET_MS,
    Deadline,
    deadline_from_env,
    parse_deadline_header,
)


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestArithmetic:
    def test_budget_counts_down_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(250.0, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(250.0)
        clock.advance(0.1)
        assert deadline.remaining_ms() == pytest.approx(150.0)
        assert not deadline.expired

    def test_remaining_never_negative(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.advance(5.0)
        assert deadline.remaining_seconds() == 0.0
        assert deadline.remaining_ms() == 0.0
        assert deadline.expired

    def test_bounded_caps_waits_to_the_budget(self):
        clock = FakeClock()
        deadline = Deadline(1000.0, clock=clock)
        assert deadline.bounded(0.5) == pytest.approx(0.5)
        assert deadline.bounded(5.0) == pytest.approx(1.0)
        assert deadline.bounded(None) == pytest.approx(1.0)
        clock.advance(2.0)
        assert deadline.bounded(0.5) == 0.0

    @pytest.mark.parametrize(
        "budget", [0, -1, float("nan"), float("inf"), "100", True, None]
    )
    def test_invalid_budgets_rejected(self, budget):
        with pytest.raises(ConfigurationError):
            Deadline(budget)

    def test_budget_ceiling_enforced(self):
        with pytest.raises(ConfigurationError):
            Deadline(MAX_BUDGET_MS + 1)
        Deadline(MAX_BUDGET_MS)  # exactly at the ceiling is fine


class TestCheckpoints:
    def test_check_passes_while_budget_remains(self):
        clock = FakeClock()
        Deadline(100.0, clock=clock).check("service.engine")

    def test_check_raises_typed_error_with_site(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("fabric.coordinator")
        assert excinfo.value.site == "fabric.coordinator"
        assert excinfo.value.budget_ms == pytest.approx(100.0)

    def test_expiry_lands_in_metrics_and_manifest(self):
        clock = FakeClock()
        deadline = Deadline(50.0, clock=clock)
        clock.advance(1.0)
        with telemetry() as registry:
            with pytest.raises(DeadlineExceededError):
                deadline.check("service.engine")
        section = build_manifest(registry)["resilience"]
        assert section["deadline_exceeded"] == {"service.engine": 1}


class TestPropagation:
    def test_header_value_floors_conservatively(self):
        clock = FakeClock()
        deadline = Deadline(250.7, clock=clock)
        clock.advance(0.0501)
        # 200.6ms remain; the wire value floors to 200.
        assert deadline.header_value() == "200"

    def test_header_value_of_expired_budget_is_one(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        clock.advance(1.0)
        # Still representable: the next hop observes the expiry itself.
        assert deadline.header_value() == "1"

    def test_parse_header_roundtrip(self):
        deadline = parse_deadline_header("  750 ")
        assert deadline.budget_ms == 750.0
        assert deadline.remaining_ms() <= 750.0

    @pytest.mark.parametrize("raw", ["", "abc", "1.5", "10ms"])
    def test_malformed_header_is_typed_error(self, raw):
        with pytest.raises(ConfigurationError, match=DEADLINE_HEADER):
            parse_deadline_header(raw)

    def test_env_channel(self):
        assert deadline_from_env({}) is None
        assert deadline_from_env({ENV_DEADLINE_MS: ""}) is None
        deadline = deadline_from_env({ENV_DEADLINE_MS: "300"})
        assert deadline is not None and deadline.budget_ms == 300.0
        with pytest.raises(ConfigurationError):
            deadline_from_env({ENV_DEADLINE_MS: "nope"})
