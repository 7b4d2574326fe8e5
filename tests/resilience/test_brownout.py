"""Brownout ladder: thresholds, hysteresis, shed order, batch shrink.

Everything here is evaluation-counted (no wall clock), so the ladder's
walk is exactly reproducible — the property the chaos replay suite
leans on.
"""

import pytest

from repro import build_manifest, telemetry
from repro.exceptions import ConfigurationError
from repro.resilience.brownout import BrownoutGovernor, BrownoutPolicy


def _governor(**overrides):
    kwargs = dict(
        criticality_classes=4,
        queue_high=10,
        queue_low=2,
        p95_high_seconds=0.5,
        p95_low_seconds=0.1,
        recovery_updates=2,
    )
    kwargs.update(overrides)
    return BrownoutGovernor(BrownoutPolicy(**kwargs))


def _push_to(governor, level, queue_depth=100):
    for _ in range(level):
        governor.evaluate(queue_depth)
    assert governor.level == level


class TestLadder:
    def test_steps_up_one_rung_per_hot_evaluation(self):
        governor = _governor()
        assert governor.evaluate(queue_depth=0) == 0
        assert governor.evaluate(queue_depth=10) == 1
        assert governor.evaluate(queue_depth=10) == 2
        assert governor.evaluate(queue_depth=10) == 3

    def test_p95_pressure_also_steps_up(self):
        governor = _governor()
        for _ in range(30):
            governor.observe_latency(1.0)
        assert governor.latency_p95() == pytest.approx(1.0)
        assert governor.evaluate(queue_depth=0) == 1

    def test_tops_out_at_max_level(self):
        governor = _governor(criticality_classes=4)
        assert governor.policy.max_level == 5
        for _ in range(10):
            governor.evaluate(queue_depth=100)
        assert governor.level == 5

    def test_recovery_is_hysteretic(self):
        governor = _governor(recovery_updates=2)
        _push_to(governor, 2)
        # One calm evaluation is not enough...
        assert governor.evaluate(queue_depth=0) == 2
        # ...the second steps down one rung, and the streak resets.
        assert governor.evaluate(queue_depth=0) == 1
        assert governor.evaluate(queue_depth=0) == 1
        assert governor.evaluate(queue_depth=0) == 0

    def test_middling_pressure_resets_the_calm_streak(self):
        governor = _governor(queue_high=10, queue_low=2, recovery_updates=2)
        _push_to(governor, 1)
        assert governor.evaluate(queue_depth=0) == 1   # calm #1
        assert governor.evaluate(queue_depth=5) == 1   # neither hot nor calm
        assert governor.evaluate(queue_depth=0) == 1   # calm #1 again
        assert governor.evaluate(queue_depth=0) == 0


class TestDegradation:
    def test_level_1_degrades_nothing(self):
        governor = _governor()
        _push_to(governor, 1)
        assert not governor.shrink_batches
        assert governor.batch_limits(64, 0.01) == (64, 0.01)
        assert not governor.should_shed(3)

    def test_level_2_shrinks_batch_windows(self):
        governor = _governor(batch_shrink_factor=0.25)
        _push_to(governor, 2)
        assert governor.shrink_batches
        size, delay = governor.batch_limits(64, 0.02)
        assert size == 16
        assert delay == pytest.approx(0.005)
        assert governor.batch_limits(2, 0.0) == (1, 0.0)  # size floors at 1

    def test_shed_order_is_descending_criticality(self):
        governor = _governor(criticality_classes=4)
        # Level 3 sheds only class 3; level 4 adds class 2; level 5
        # adds class 1.  Class 0 is never shed at any level.
        expectations = {
            3: {0: False, 1: False, 2: False, 3: True},
            4: {0: False, 1: False, 2: True, 3: True},
            5: {0: False, 1: True, 2: True, 3: True},
        }
        for level, sheds in expectations.items():
            governor = _governor(criticality_classes=4)
            _push_to(governor, level)
            for cls, expected in sheds.items():
                assert governor.should_shed(cls) is expected, (level, cls)

    def test_shed_floor_table(self):
        policy = BrownoutPolicy(criticality_classes=4)
        assert policy.shed_floor(0) is None
        assert policy.shed_floor(2) is None
        assert policy.shed_floor(3) == 3
        assert policy.shed_floor(4) == 2
        assert policy.shed_floor(5) == 1
        assert policy.shed_floor(99) == 1  # never reaches class 0


class TestTelemetryAndValidation:
    def test_transitions_and_sheds_land_in_manifest(self):
        with telemetry() as registry:
            governor = _governor()
            _push_to(governor, 3)
            governor.should_shed(3)
            governor.should_shed(3)
            governor.evaluate(queue_depth=0)
            governor.evaluate(queue_depth=0)  # steps down to 2
        manifest = build_manifest(registry)["brownout"]
        assert manifest["moves"] == {"down": 1, "up": 3}
        assert manifest["shed_by_class"] == {"3": 2}
        walk = [(t["from"], t["to"]) for t in manifest["transitions"]]
        assert walk == [(0, 1), (1, 2), (2, 3), (3, 2)]

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(criticality_classes=0)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(queue_high=0)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(queue_high=4, queue_low=5)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(p95_high_seconds=0.1, p95_low_seconds=0.2)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(batch_shrink_factor=1.0)
        with pytest.raises(ConfigurationError):
            BrownoutPolicy(recovery_updates=0)
