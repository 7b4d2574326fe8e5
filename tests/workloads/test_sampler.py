"""The guide-table destination sampler against a per-row binary search.

:class:`~repro.workloads.generator.DestinationSampler` must choose, for
every draw, exactly the column a right-sided ``np.searchsorted`` over the
processor's cumulative row returns, clipped to ``M - 1``.  That search is
kept here as the oracle.  Hypothesis covers zero and trailing-zero
columns, fractions below one bin width (more than one step per draw),
M from 1 to 100 with ``N != M``, and draws exactly at bin boundaries and
at cumulative values.  The pinned digest at the end ties a whole
``repro-fabric`` sweep to the records the binary search produced.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.exceptions import SimulationError
from repro.workloads.generator import DestinationSampler

SOURCE_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: Rounds to a cumulative sum of 1.0000000000000002 before its last
#: column: an entry above the forced final 1.0.
OVERSHOOT_ROW = [
    0.15324321880937372,
    0.1741020222634683,
    0.16984617858461468,
    0.02639650050407304,
    0.17258204177922165,
    0.15790905335663924,
    0.14592098470260945,
    0.0,
]

#: Every multiple of 2**-12: the bin boundaries of any table with up to
#: 4096 bins (the sampler's K is 2048 at M = 100).
BOUNDARIES = np.arange(4096) / 4096.0


def searchsorted_oracle(cumulative: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Right-sided binary search per processor row, clipped to ``M - 1``."""
    chosen = np.empty(draws.shape, dtype=np.int64)
    for processor, row in enumerate(cumulative):
        chosen[..., processor] = np.searchsorted(
            row, draws[..., processor], side="right"
        )
    return np.minimum(chosen, cumulative.shape[1] - 1)


def forced_cumulative(fractions: np.ndarray) -> np.ndarray:
    cumulative = np.cumsum(fractions, axis=1)
    cumulative[:, -1] = 1.0
    return cumulative


def probe_draws(cumulative: np.ndarray, seed: int) -> np.ndarray:
    """``(D, N)`` draws in [0, 1): bin boundaries, every cumulative value
    and its two neighbouring doubles, the extremes, and uniform draws."""
    values = cumulative.ravel()
    pool = np.concatenate(
        [
            BOUNDARIES,
            values,
            np.nextafter(values, -1.0),
            np.nextafter(values, 2.0),
            [0.0, np.nextafter(1.0, 0.0)],
            np.random.default_rng(seed).random(512),
        ]
    )
    pool = pool[(pool >= 0.0) & (pool < 1.0)]
    return np.repeat(pool[:, None], cumulative.shape[0], axis=1)


@st.composite
def fraction_matrices(draw) -> np.ndarray:
    """Row-stochastic ``(N, M)`` matrices with zero columns, trailing
    zeros and fractions far below one bin width."""
    n_memories = draw(
        st.one_of(st.sampled_from([1, 2, 12, 64, 100]), st.integers(1, 20))
    )
    n_processors = draw(st.integers(1, 5))
    weight = st.one_of(
        st.just(0.0),
        st.floats(1e-12, 1e-4),
        st.floats(1e-4, 1.0),
    )
    rows = []
    for _ in range(n_processors):
        row = np.array(
            draw(st.lists(weight, min_size=n_memories, max_size=n_memories))
        )
        row[n_memories - draw(st.integers(0, n_memories - 1)):] = 0.0
        if row.sum() == 0.0:
            row[draw(st.integers(0, n_memories - 1))] = 1.0
        rows.append(row / row.sum())
    return np.array(rows)


@given(fractions=fraction_matrices(), seed=st.integers(0, 2**16))
def test_forced_rows_match_the_binary_search(fractions, seed):
    sampler = DestinationSampler.from_fractions(fractions)
    cumulative = forced_cumulative(fractions)
    assert np.array_equal(sampler.cumulative, cumulative)
    draws = probe_draws(cumulative, seed)
    chosen = sampler.sample(draws)
    assert chosen.dtype == np.int64
    assert np.array_equal(chosen, searchsorted_oracle(cumulative, draws))


@given(
    fractions=fraction_matrices(),
    rate=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**16),
)
def test_unforced_rows_match_the_binary_search(fractions, rate, seed):
    # The structure simulator's form: request probabilities summing to
    # the rate, last column not forced, draws past it clipped to M - 1.
    cumulative = np.cumsum(rate * fractions, axis=1)
    draws = probe_draws(cumulative, seed)
    chosen = DestinationSampler(cumulative).sample(draws)
    assert np.array_equal(chosen, searchsorted_oracle(cumulative, draws))


def test_overshoot_row_stays_in_its_row():
    fractions = np.array(
        [OVERSHOOT_ROW, [0.0] * 7 + [1.0], [1.0 / 8] * 8]
    )
    assert np.cumsum(OVERSHOOT_ROW)[-2] > 1.0
    sampler = DestinationSampler.from_fractions(fractions)
    cumulative = forced_cumulative(fractions)
    draws = probe_draws(cumulative, 0)
    chosen = sampler.sample(draws)
    assert np.array_equal(chosen, searchsorted_oracle(cumulative, draws))
    assert (chosen[:, 0] <= 6).all()  # the zero last column is never hit
    assert (chosen[:, 1] == 7).all()


def test_fractions_below_a_bin_take_several_steps():
    # Ten entries inside one bin of width 1/K: one start, then up to ten
    # steps to the right.
    fractions = np.array([[1e-6] * 10 + [1.0 - 1e-5]])
    sampler = DestinationSampler.from_fractions(fractions)
    assert sampler._gap == 10
    cumulative = forced_cumulative(fractions)
    draws = probe_draws(cumulative, 1)
    assert np.array_equal(
        sampler.sample(draws), searchsorted_oracle(cumulative, draws)
    )


def test_entries_in_the_last_bin_are_stepped_over():
    # Entries just below 1.0 start in the last bin; a draw above them
    # must step past every one.
    below_one = np.nextafter(1.0, 0.0)
    cumulative = np.array([[0.5, 1.0 - 2.0**-40, below_one, 1.0]])
    draws = np.array([[below_one], [1.0 - 2.0**-41], [1.0 - 2.0**-40]])
    expected = searchsorted_oracle(cumulative, draws)
    assert expected.ravel().tolist() == [3, 2, 2]
    assert np.array_equal(DestinationSampler(cumulative).sample(draws), expected)


def test_one_dimensional_draws_search_one_row_each():
    cumulative = forced_cumulative(np.array([[0.25, 0.75], [1.0, 0.0]]))
    chosen = DestinationSampler(cumulative).sample(np.array([0.3, 0.99]))
    assert chosen.tolist() == [1, 0]


def test_rejects_a_matrix_without_columns():
    with pytest.raises(SimulationError, match="2-D"):
        DestinationSampler(np.zeros((3, 0)))
    with pytest.raises(SimulationError, match="2-D"):
        DestinationSampler(np.zeros(4))


def test_fabric_sweep_records_are_pinned():
    # sha256 of the JSON records this command printed when destinations
    # were drawn by a per-row binary search.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [
            sys.executable, "-m", "repro.fabric.cli", "--scheme", "kclass",
            "--N", "12", "--buses", "2-12/2", "--rates", "0.35,0.9",
            "--cycles", "1500", "--seed", "3", "--workers", "1",
            "--json", "--quiet",
        ],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "e9297497109e5465fe0a5cf6ef3fa0fd49a4cdac8df0cace23eebb373d89d835"
    )
