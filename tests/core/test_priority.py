"""Unit tests for the priority/tenure approximation primitives."""

from __future__ import annotations

import math

import pytest

from repro.core.priority import (
    DISCIPLINES,
    TENURE_DISTRIBUTIONS,
    ArbitrationSpec,
    crossbar_tenure_bandwidth,
    cumulative_weights,
    effective_bandwidth,
    interpolate_profile,
    monotone_class_split,
    proportional_split,
    validate_class_weights,
    validate_tenure,
)
from repro.exceptions import ConfigurationError


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_validate_class_weights_canonicalizes():
    assert validate_class_weights([0.25, 0.75]) == (0.25, 0.75)
    assert validate_class_weights((1,)) == (1.0,)
    # Near-one sums inside the tolerance pass through unscaled.
    weights = validate_class_weights([1 / 3, 1 / 3, 1 / 3])
    assert sum(weights) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "weights",
    [
        [], "abc", 0.5, None, {"a": 1.0},
        [0.5, 0.6], [0.5], [-0.5, 1.5], [0.0, 1.0],
        [float("nan"), 1.0], [float("inf"), 1.0],
        [True, False], ["0.5", "0.5"],
    ],
)
def test_validate_class_weights_rejects(weights):
    with pytest.raises(ConfigurationError):
        validate_class_weights(weights)


def test_validate_tenure_fixed_requires_integral():
    assert validate_tenure(3, "fixed") == 3.0
    assert validate_tenure(1.0, "fixed") == 1.0
    with pytest.raises(ConfigurationError):
        validate_tenure(2.5, "fixed")


def test_validate_tenure_geometric_accepts_fractional_means():
    assert validate_tenure(2.5, "geometric") == 2.5
    assert validate_tenure(1, "geometric") == 1.0


@pytest.mark.parametrize(
    "tenure", [0, -1, 0.99, float("nan"), float("inf"), True, "3", None]
)
def test_validate_tenure_rejects(tenure):
    with pytest.raises(ConfigurationError):
        validate_tenure(tenure, "geometric")


def test_validate_tenure_rejects_unknown_distribution():
    with pytest.raises(ConfigurationError):
        validate_tenure(2, "pareto")


# ----------------------------------------------------------------------
# ArbitrationSpec
# ----------------------------------------------------------------------


def test_spec_defaults_are_degenerate():
    spec = ArbitrationSpec()
    assert spec.discipline == "rr"
    assert spec.n_classes == 1
    assert spec.tenure == 1.0
    assert spec.is_degenerate


def test_spec_non_degenerate_flags():
    assert not ArbitrationSpec(class_weights=(0.5, 0.5)).is_degenerate
    assert not ArbitrationSpec(tenure=2.0).is_degenerate


def test_spec_rejects_bad_discipline_and_distribution():
    with pytest.raises(ConfigurationError):
        ArbitrationSpec(discipline="fifo")
    with pytest.raises(ConfigurationError):
        ArbitrationSpec(tenure=2.0, tenure_dist="zipf")
    assert set(DISCIPLINES) == {"rr", "strict", "wrr", "proc"}
    assert set(TENURE_DISTRIBUTIONS) == {"fixed", "geometric"}


def test_spec_grant_weights_default_descending():
    spec = ArbitrationSpec(
        discipline="wrr", class_weights=(0.2, 0.3, 0.5)
    )
    assert spec.resolved_grant_weights() == (3.0, 2.0, 1.0)
    custom = ArbitrationSpec(
        discipline="wrr",
        class_weights=(0.5, 0.5),
        grant_weights=(5.0, 1.0),
    )
    assert custom.resolved_grant_weights() == (5.0, 1.0)


def test_spec_rejects_mismatched_grant_weights():
    with pytest.raises(ConfigurationError):
        ArbitrationSpec(
            discipline="wrr",
            class_weights=(0.5, 0.5),
            grant_weights=(1.0,),
        )


# ----------------------------------------------------------------------
# Splits and cumulative weights
# ----------------------------------------------------------------------


def test_cumulative_weights_pin_last_to_one():
    cums = cumulative_weights((0.1, 0.2, 0.7))
    assert cums[0] == pytest.approx(0.1)
    assert cums[1] == pytest.approx(0.3)
    assert cums[-1] == 1.0


def test_proportional_split_is_exact():
    split = proportional_split((0.25, 0.75), 2.0)
    assert split == (0.5, 1.5)
    assert sum(split) == 2.0


def test_monotone_class_split_telescopes():
    split = monotone_class_split([1.0, 1.8, 2.0], 2.0)
    assert split == pytest.approx((1.0, 0.8, 0.2))
    assert sum(split) == pytest.approx(2.0)


def test_monotone_class_split_clamps_non_monotone_inputs():
    # A noisy cumulative curve that dips must never yield a negative
    # class share, and the shares must still sum to the exact total.
    split = monotone_class_split([1.5, 1.2, 2.0], 2.0)
    assert all(v >= 0.0 for v in split)
    assert sum(split) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Tenure fixed point
# ----------------------------------------------------------------------

_PROFILE = {1: 0.9, 2: 1.7, 3: 2.3, 4: 2.6}


def test_interpolate_profile_hits_anchors_exactly():
    for b, value in _PROFILE.items():
        assert interpolate_profile(_PROFILE, b) == value
    assert interpolate_profile(_PROFILE, 0) == 0.0
    # Linear between anchors, flat beyond the last.
    assert interpolate_profile(_PROFILE, 1.5) == pytest.approx(1.3)
    assert interpolate_profile(_PROFILE, 9.0) == 2.6


def test_effective_bandwidth_unit_tenure_is_identity():
    for b in _PROFILE:
        assert effective_bandwidth(_PROFILE, b, 1.0) == _PROFILE[b]


def test_effective_bandwidth_solves_fixed_point():
    tenure = 3.0
    for b in _PROFILE:
        t = effective_bandwidth(_PROFILE, b, tenure)
        # T = f(B - (L - 1) T) at the solution.
        residual = t - interpolate_profile(_PROFILE, b - (tenure - 1) * t)
        assert abs(residual) < 1e-9
        assert 0.0 < t < _PROFILE[b]


def test_effective_bandwidth_monotone_in_tenure():
    values = [effective_bandwidth(_PROFILE, 4, L) for L in (1, 2, 4, 8)]
    assert values == sorted(values, reverse=True)


def test_crossbar_tenure_bandwidth():
    probs = [0.5, 0.25, 1.0]
    assert crossbar_tenure_bandwidth(probs, 1.0) == pytest.approx(1.75)
    throttled = crossbar_tenure_bandwidth(probs, 3.0)
    assert throttled == pytest.approx(
        sum(x / (1 + 2 * x) for x in probs)
    )
    assert throttled < 1.75


def test_crossbar_tenure_bandwidth_saturates_below_supply():
    # With M fully-hot modules, each saturated module serves 1/L grants
    # per cycle under burst tenure.
    assert crossbar_tenure_bandwidth([1.0] * 4, 5.0) == pytest.approx(
        4 / 5
    )


def _residual(values, b, tenure, t):
    return t - interpolate_profile(values, b - (tenure - 1.0) * t)


def test_effective_bandwidth_is_exact_on_a_linear_profile():
    # f(x) = s x: the fixed point is T = s B / (1 + s (L - 1)).
    slope = 0.75
    profile = {b: slope * b for b in range(1, 17)}
    for b in (1, 5, 16):
        for tenure in (2.0, 3.5, 8.0):
            expected = slope * b / (1.0 + slope * (tenure - 1.0))
            assert effective_bandwidth(profile, b, tenure) == pytest.approx(
                expected, rel=1e-15
            )


def test_effective_bandwidth_across_profile_gaps():
    # partial with two groups profiles even bus counts only.
    profile = {2: 1.8, 4: 3.2, 6: 4.1, 8: 4.6}
    for b in profile:
        for tenure in (2.0, 4.0, 8.0):
            t = effective_bandwidth(profile, b, tenure)
            assert 0.0 < t < profile[b]
            assert abs(_residual(profile, b, tenure, t)) <= 1e-12
    # B = 8, L = 2 solves on the segment [4, 6]: slope 0.45, so
    # T = (3.2 + 0.45 * 4) / 1.45.
    assert effective_bandwidth(profile, 8, 2.0) == pytest.approx(
        5.0 / 1.45, rel=1e-15
    )


def test_effective_bandwidth_reads_no_point_above_b():
    profile = {1: 0.9, 2: 1.7, 4: 3.0, 6: 3.2, 8: 7.9}
    for b in (1, 2, 4, 6):
        truncated = {k: v for k, v in profile.items() if k <= b}
        for tenure in (1.0, 2.0, 3.0, 6.5):
            assert effective_bandwidth(profile, b, tenure) == (
                effective_bandwidth(truncated, b, tenure)
            )


def test_effective_bandwidth_on_flat_segments():
    profile = {1: 1.0, 2: 1.0, 3: 1.0, 4: 2.0}
    # T = f(3 - T) lands on the flat run [1, 3], where f = 1.
    assert effective_bandwidth(profile, 3, 2.0) == 1.0
    t = effective_bandwidth(profile, 4, 3.0)
    assert abs(_residual(profile, 4, 3.0, t)) <= 1e-12


def test_effective_bandwidth_all_zero_profile():
    profile = {1: 0.0, 2: 0.0, 4: 0.0}
    for b in (1, 2, 3, 4, 9):
        assert effective_bandwidth(profile, b, 4.0) == 0.0


def test_effective_bandwidth_past_the_last_profiled_count():
    profile = {1: 0.9, 2: 1.7}
    # The flat tail past B = 2 holds the root: T = f = 1.7 at x = 4.3.
    assert effective_bandwidth(profile, 6, 2.0) == 1.7
    # Long bursts pull the free-bus count back onto the first segment:
    # T = 0.9 * 3 / (1 + 0.9 * 3).
    t = effective_bandwidth(profile, 3, 4.0)
    assert t == pytest.approx(2.7 / 3.7, rel=1e-15)
    assert abs(_residual(profile, 3, 4.0, t)) <= 1e-12


def test_effective_bandwidth_unit_tenure_is_bit_identical():
    profile = {2: 1.8, 4: 3.2, 6: 4.1}
    for b in (0, 1, 2, 3, 4, 5.5, 6, 11):
        assert effective_bandwidth(profile, b, 1.0) == (
            interpolate_profile(profile, b)
        )


def test_effective_bandwidth_rejects_an_empty_profile():
    with pytest.raises(ConfigurationError):
        effective_bandwidth({}, 4, 2.0)
