"""Brownout ladder: thresholds, hysteresis, shed order, batch shrink.

Everything here is evaluation-counted (no wall clock), so the ladder's
walk is exactly reproducible — the property the chaos replay suite
leans on.
"""

import random
from collections import deque

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.manifest import build_manifest
from repro.obs.metrics import telemetry
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


class _SortedP95Ladder:
    """The ladder as first written: sort the ring at every evaluation."""

    def __init__(self, policy):
        self.policy = policy
        self.latencies = deque(maxlen=policy.latency_window)
        self.level = 0
        self.calm_streak = 0
        self.transitions = []

    def p95(self):
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = max(0, int(0.95 * len(ordered)) - (len(ordered) >= 20))
        return ordered[min(index, len(ordered) - 1)]

    def evaluate(self, queue_depth):
        policy = self.policy
        p95 = self.p95()
        hot = (
            queue_depth >= policy.queue_high
            or p95 >= policy.p95_high_seconds
        )
        calm = (
            queue_depth <= policy.queue_low
            and p95 <= policy.p95_low_seconds
        )
        if hot:
            self.calm_streak = 0
            if self.level < policy.max_level:
                self._move(self.level + 1, queue_depth, p95)
        elif calm and self.level > 0:
            self.calm_streak += 1
            if self.calm_streak >= policy.recovery_updates:
                self.calm_streak = 0
                self._move(self.level - 1, queue_depth, p95)
        else:
            self.calm_streak = 0
        return self.level

    def _move(self, level, queue_depth, p95):
        self.transitions.append({
            "from": self.level,
            "to": level,
            "queue_depth": queue_depth,
            "p95_ms": round(p95 * 1000.0, 3),
        })
        self.level = level


@pytest.mark.parametrize("seed", range(12))
def test_running_counts_match_the_sorted_p95_rule(seed):
    rng = random.Random(seed)
    low = rng.choice([0.0, 0.05, 0.1])
    high = rng.choice([low + 0.01, low + 0.05, 0.5])
    policy = BrownoutPolicy(
        criticality_classes=rng.randint(1, 5),
        queue_high=rng.randint(4, 12),
        queue_low=rng.randint(0, 4),
        p95_high_seconds=high,
        p95_low_seconds=low,
        latency_window=rng.choice([1, 5, 19, 20, 21, 64, 128]),
        recovery_updates=rng.randint(1, 4),
    )
    governor = BrownoutGovernor(policy)
    oracle = _SortedP95Ladder(policy)
    # Calm, middling and stormy stretches walk the ladder both ways;
    # samples on the thresholds themselves exercise both tie rules.
    for stretch in range(40):
        phase = stretch % 3
        ceiling = (low, high, 3.0 * high)[phase]
        max_depth = (
            policy.queue_low, policy.queue_high, 2 * policy.queue_high
        )[phase]
        for _ in range(rng.randint(20, 120)):
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.3:
                    sample = rng.choice([0.0, low, high, ceiling])
                else:
                    sample = rng.uniform(0.0, ceiling)
                governor.observe_latency(sample)
                oracle.latencies.append(float(sample))
            depth = rng.randint(0, max_depth)
            assert governor.evaluate(depth) == oracle.evaluate(depth)
            assert governor.latency_p95() == oracle.p95()
    assert governor.transitions() == oracle.transitions
    moves = [(t["from"], t["to"]) for t in oracle.transitions]
    assert any(a < b for a, b in moves) and any(a > b for a, b in moves)
