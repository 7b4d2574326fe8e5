"""Property-based checks of the one eq. (11) kernel (Sec. III-D).

Hypothesis draws class layouts and request probabilities and pins
:func:`repro.core.kclasses.idle_products` — the single home of eq. (11)'s
double loop — against the textbook loop kept here, bit for bit:

* the idle products, the busy probabilities ``Y_i`` and the batched
  suffix sums of :func:`bandwidth_kclass_batch` equal the scalar loop
  over buses and classes, for random class sizes (zero-size classes
  included), ``B >= K``, a common or per-class ``X`` and ``X`` in
  ``{0, 1}``;
* the default factory layout (``K = B`` equal classes) evaluated by
  :func:`scheme_bus_profile` equals per-count :func:`bandwidth_kclass`
  for every valid ``B`` of ``M <= 24``, under both request models.

The suite runs under the derandomized "ci" profile registered in
``tests/conftest.py``, so failures replay identically in CI.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.batch import bandwidth_kclass_batch, scheme_bus_profile
from repro.core.binomial import binomial_pmf
from repro.core.hierarchy import paper_two_level_model
from repro.core.kclasses import (
    bandwidth_kclass,
    bus_busy_probabilities,
    idle_products,
)
from repro.core.request_models import UniformRequestModel
from repro.topology.factory import equal_class_sizes


def reference_idle(sizes, n_buses, xs):
    """Eq. (11)'s idle products by the scalar double loop, bus by bus."""
    cdfs = [np.cumsum(binomial_pmf(m, x)) for m, x in zip(sizes, xs)]
    n_classes = len(sizes)
    idle = np.empty(n_buses)
    for bus in range(1, n_buses + 1):
        a = bus + n_classes - n_buses
        product = 1.0
        for j in range(max(a, 1), n_classes + 1):
            cdf = cdfs[j - 1]
            product *= float(cdf[min(j - a, len(cdf) - 1)])
        idle[bus - 1] = product
    return idle


probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def layouts(draw):
    """``(sizes, B, X)`` with ``K <= B``; X common or per class."""
    n_classes = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        sizes = [draw(st.integers(min_value=1, max_value=6))] * n_classes
    else:
        sizes = draw(
            st.lists(
                st.integers(min_value=0, max_value=6),
                min_size=n_classes, max_size=n_classes,
            )
        )
    if sum(sizes) == 0:
        sizes[-1] = 1
    # K = B (the default layout's shape) in about half the draws.
    n_buses = n_classes + draw(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=5))
    )
    if draw(st.booleans()):
        x = draw(probabilities)
    else:
        x = draw(
            st.lists(probabilities, min_size=n_classes, max_size=n_classes)
        )
    return sizes, n_buses, x


def _per_class(x, n_classes):
    return list(x) if isinstance(x, list) else [x] * n_classes


@settings(max_examples=200)
@given(layout=layouts())
def test_kernel_equals_scalar_loop_bit_for_bit(layout):
    sizes, n_buses, x = layout
    expected = reference_idle(sizes, n_buses, _per_class(x, len(sizes)))
    assert idle_products(sizes, n_buses, x).tobytes() == expected.tobytes()
    busy = bus_busy_probabilities(sizes, n_buses, x)
    assert busy.tobytes() == (1.0 - expected).tobytes()


@settings(max_examples=100)
@given(layout=layouts(), data=st.data())
def test_batch_equals_scalar_loop_suffix_sums(layout, data):
    sizes, b_max, x = layout
    counts = sorted(
        data.draw(
            st.sets(
                st.integers(min_value=len(sizes), max_value=b_max),
                min_size=1,
            ),
            label="bus counts",
        )
    )
    ys = 1.0 - reference_idle(
        sizes, counts[-1], _per_class(x, len(sizes))
    )
    expected = np.cumsum(ys[::-1])[np.asarray(counts) - 1]
    batch = bandwidth_kclass_batch(sizes, counts, x)
    assert batch.tobytes() == expected.tobytes()


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def default_layout_machines(draw):
    """``(N, M, model)`` under the uniform or two-level model, M <= 24."""
    rate = draw(st.floats(min_value=0.05, max_value=1.0))
    if draw(st.booleans()):
        m = draw(st.integers(min_value=1, max_value=24))
        n = draw(st.integers(min_value=1, max_value=24))
        return n, m, UniformRequestModel(n, m, rate=rate)
    # Two or more clusters of two or more processor/module pairs.
    m = draw(st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24]))
    clusters = draw(
        st.sampled_from([c for c in _divisors(m) if 2 <= c <= m // 2])
    )
    return m, m, paper_two_level_model(m, rate=rate, clusters=clusters)


@given(machine=default_layout_machines())
def test_default_layout_profile_equals_per_count_closed_form(machine):
    n, m, model = machine
    x = model.symmetric_module_probability()
    profile = scheme_bus_profile("kclass", n, m, range(1, m + 1), model)
    assert not profile.skipped
    assert sorted(profile.values) == list(range(1, m + 1))
    for b, value in profile.values.items():
        sizes = equal_class_sizes(m, b)
        assert value == bandwidth_kclass(sizes, b, x)
        reference = float(np.sum(1.0 - reference_idle(sizes, b, [x] * b)))
        assert value == reference, (b, sizes)
