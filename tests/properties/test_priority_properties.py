"""Property-based invariants of the priority/tenure analytic layer.

Hypothesis sweeps machine sizes, bus counts, request rates, class mixes
and burst lengths across all five connection schemes and asserts the
structural laws any criticality-aware split of the paper's bandwidth
must obey:

* per-class bandwidths are non-negative and sum exactly to the total;
* the total respects the physical ceilings ``min(B, M, N * r)`` even
  under burst tenure (holding a bus longer cannot mint bandwidth);
* the strict-priority top class weakly dominates its fair (FCFS /
  proportional) share — priority can only help the critical class;
* bandwidth weakly decreases in the mean tenure ``L`` (longer bursts
  occupy buses, never free them);
* the per-segment tenure solve agrees with a bisection oracle on the
  fixed point ``T = f(B - (L - 1) T)`` and leaves no residual.

The suite runs under the derandomized "ci" profile registered in
``tests/conftest.py``, so failures replay identically in CI.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.batch import priority_class_profile
from repro.core.priority import effective_bandwidth, interpolate_profile
from repro.core.request_models import UniformRequestModel

TOL = 1e-9

BUS_SCHEMES = ("full", "single", "partial", "kclass")
SCHEMES = BUS_SCHEMES + ("crossbar",)

# Power-of-two machines keep every scheme structurally valid (see
# tests/properties/test_bandwidth_properties.py).
n_exponents = st.integers(min_value=3, max_value=5)  # N = M in {8, 16, 32}
rates = st.floats(min_value=0.05, max_value=1.0)
tenures = st.floats(min_value=1.0, max_value=8.0)
disciplines = st.sampled_from(("rr", "strict", "wrr", "proc"))


@st.composite
def class_mixes(draw):
    """2-4 positive class weights normalized to sum exactly to one."""
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=2,
            max_size=4,
        )
    )
    total = sum(raw)
    weights = [w / total for w in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    return tuple(weights)


def _bus_exponent(scheme: str, n_exp: int) -> st.SearchStrategy[int]:
    low = 1 if scheme == "partial" else 0
    return st.integers(min_value=low, max_value=n_exp)


def _profile(scheme, n, n_buses, rate, **kwargs):
    model = UniformRequestModel(n, n, rate=rate)
    return priority_class_profile(scheme, n, n, n_buses, model, **kwargs)


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    n_exp=n_exponents,
    data=st.data(),
    rate=rates,
    weights=class_mixes(),
    discipline=disciplines,
    tenure=tenures,
)
def test_per_class_bandwidths_sum_to_total(
    scheme, n_exp, data, rate, weights, discipline, tenure
):
    n = 2**n_exp
    b = n if scheme == "crossbar" else 2 ** data.draw(
        _bus_exponent(scheme, n_exp), label="B exponent"
    )
    profile = _profile(
        scheme, n, b, rate,
        discipline=discipline, class_weights=weights, tenure=tenure,
    )
    assert all(v >= 0.0 for v in profile.per_class)
    assert sum(profile.per_class) == pytest.approx(profile.total, abs=TOL)


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    n_exp=n_exponents,
    data=st.data(),
    rate=rates,
    tenure=tenures,
)
def test_total_respects_physical_ceilings(scheme, n_exp, data, rate, tenure):
    n = 2**n_exp
    b = n if scheme == "crossbar" else 2 ** data.draw(
        _bus_exponent(scheme, n_exp), label="B exponent"
    )
    profile = _profile(scheme, n, b, rate, tenure=tenure)
    assert profile.total <= min(b, n, n * rate) + TOL


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    n_exp=n_exponents,
    data=st.data(),
    rate=rates,
    weights=class_mixes(),
)
def test_strict_top_class_dominates_fair_share(
    scheme, n_exp, data, rate, weights
):
    n = 2**n_exp
    b = n if scheme == "crossbar" else 2 ** data.draw(
        _bus_exponent(scheme, n_exp), label="B exponent"
    )
    strict = _profile(
        scheme, n, b, rate, discipline="strict", class_weights=weights
    )
    fair = _profile(
        scheme, n, b, rate, discipline="rr", class_weights=weights
    )
    assert strict.total == pytest.approx(fair.total, abs=TOL)
    assert strict.per_class[0] >= fair.per_class[0] - TOL


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    n_exp=n_exponents,
    data=st.data(),
    rate=rates,
    tenure_pair=st.tuples(tenures, tenures),
)
def test_bandwidth_weakly_decreases_in_tenure(
    scheme, n_exp, data, rate, tenure_pair
):
    n = 2**n_exp
    b = n if scheme == "crossbar" else 2 ** data.draw(
        _bus_exponent(scheme, n_exp), label="B exponent"
    )
    l_low, l_high = sorted(tenure_pair)
    short = _profile(scheme, n, b, rate, tenure=l_low)
    long = _profile(scheme, n, b, rate, tenure=l_high)
    assert long.total <= short.total + TOL
    assert long.effective_buses <= short.effective_buses + TOL


# ----------------------------------------------------------------------
# Tenure fixed point against a bisection oracle
# ----------------------------------------------------------------------


def _bisection_oracle(values, n_buses, tenure):
    """``T = f(B - (L - 1) T)`` by 96 bisection steps on ``[0, f(B)]``."""
    cap = interpolate_profile(values, n_buses)
    if tenure == 1.0:
        return cap
    if cap <= 0.0:
        return 0.0
    lo, hi = 0.0, cap
    for _ in range(96):
        mid = (lo + hi) / 2.0
        free = n_buses - (tenure - 1.0) * mid
        if mid - interpolate_profile(values, free) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@st.composite
def bandwidth_profiles(draw):
    """Nondecreasing profiles over a gappy set of bus counts.

    Bandwidth grows by at most one transfer per added bus, and steps
    are often zero (flat runs) or whole (saturated buses).
    """
    counts = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=32),
                min_size=1,
                max_size=16,
            )
        )
    )
    values = {}
    total, previous = 0.0, 0
    for b in counts:
        growth = draw(
            st.sampled_from((0.0, 1.0))
            | st.floats(min_value=0.0, max_value=1.0)
        )
        total += growth * (b - previous)
        values[b] = total
        previous = b
    return values


@settings(max_examples=300)
@given(
    values=bandwidth_profiles(),
    data=st.data(),
    tenure=st.sampled_from((1.0, 2.0, 8.0)) | tenures,
)
def test_tenure_solve_matches_bisection_oracle(values, data, tenure):
    n_buses = data.draw(
        st.sampled_from(sorted(values))
        | st.integers(min_value=1, max_value=40),
        label="B",
    )
    t = effective_bandwidth(values, n_buses, tenure)
    oracle = _bisection_oracle(values, n_buses, tenure)
    assert math.isclose(t, oracle, rel_tol=1e-12, abs_tol=0.0)
    residual = t - interpolate_profile(values, n_buses - (tenure - 1.0) * t)
    assert abs(residual) <= 1e-12
