"""Request mixes of the three workloads, built from ``--seed`` alone.

The program never sees the seed: it only receives the requests (or the
``repro-fabric`` arguments) generated here.  Every mix keeps the same
shape for every seed — the same share of sweeps, the same rotation of
schemes and models — so runs with different seeds do the same amount
of work and their figures can be compared.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from common import BENCH_DIR

#: One in this many hot requests is a ``/sweep``; the rest are ``/query``.
HOT_SWEEP_EVERY = 8
#: Zipf exponent of the hot popularity law.
HOT_ZIPF_S = 1.0
#: One in this many cold requests is a ``/sweep``.
COLD_SWEEP_EVERY = 4


class Request:
    """One HTTP request, with what the checks need to judge its answer."""

    __slots__ = ("path", "payload", "wire", "cells", "expect")

    def __init__(self, path: str, payload: dict, expect=None):
        self.path = path
        self.payload = payload
        body = json.dumps(payload, separators=(",", ":")).encode()
        self.wire = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        bus = payload["B"]
        self.cells = len(bus) if isinstance(bus, list) else 1
        #: query-hot: the printed paper value (or ``{B: value}``).
        self.expect = expect

    @property
    def is_sweep(self) -> bool:
        return self.path == "/sweep"


def paper_cells() -> tuple[float, list]:
    with open(os.path.join(BENCH_DIR, "paper_tables.json")) as handle:
        data = json.load(handle)
    return data["tolerance"], data["cells"]


def hot_universe() -> tuple[list[Request], list[Request]]:
    """Every printed cell of Tables II-VI as a ``/query``, and every
    printed column (one scheme, rate, N and model over its bus counts)
    with two or more cells as a ``/sweep``."""
    _, cells = paper_cells()
    singles = []
    columns: dict[tuple, dict[int, float]] = {}
    for scheme, rate, n, b, model, printed in cells:
        payload = {"scheme": scheme, "N": n, "B": b, "r": rate, "model": model}
        singles.append(Request("/query", payload, expect=printed))
        if scheme != "crossbar":
            columns.setdefault((scheme, rate, n, model), {})[b] = printed
    sweeps = []
    for (scheme, rate, n, model), column in sorted(columns.items()):
        if len(column) < 2:
            continue
        buses = sorted(column)
        payload = {
            "scheme": scheme, "N": n, "B": buses, "r": rate, "model": model,
        }
        sweeps.append(Request("/sweep", payload, expect=column))
    return singles, sweeps


def _zipf_picker(rng: random.Random, items: list):
    order = list(items)
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** HOT_ZIPF_S for rank in range(len(order))]
    cumulative = list(itertools.accumulate(weights))
    return lambda: rng.choices(order, cum_weights=cumulative, k=1)[0]


def hot_schedule(seed: int, count: int) -> list[Request]:
    """``count`` requests; every ``HOT_SWEEP_EVERY``-th is a sweep.

    Single cells are Zipf-weighted over a seed-drawn popularity order.
    Sweeps cycle through every column in a seed-drawn order, so the
    cells a run asks for do not depend on which long column a seed
    happens to make popular.
    """
    rng = random.Random(f"hot:{seed}")
    singles, sweeps = hot_universe()
    pick_single = _zipf_picker(rng, singles)
    rng.shuffle(sweeps)
    rotation = itertools.cycle(sweeps)
    return [
        next(rotation) if i % HOT_SWEEP_EVERY == HOT_SWEEP_EVERY - 1
        else pick_single()
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# query-cold
# ----------------------------------------------------------------------

#: One rotation of single-cell queries: every scheme under both models.
_COLD_ROTATION = [
    (scheme, model)
    for scheme in ("full", "single", "partial", "kclass", "crossbar", "custom")
    for model in ("unif", "hier")
]
_SWEEP_ROTATION = [
    (scheme, model)
    for scheme in ("full", "single", "partial", "kclass")
    for model in ("unif", "hier")
]


def _divisors(m: int) -> list[int]:
    return [b for b in range(1, m + 1) if m % b == 0]


def feasible_buses(scheme: str, m: int) -> list[int]:
    """Bus counts the benchmark asks for, per scheme and module count."""
    if scheme in ("single", "kclass"):
        return _divisors(m)
    if scheme == "partial":
        return list(range(2, m + 1, 2))
    return list(range(1, m + 1))


def _machine(rng: random.Random, scheme: str, model: str) -> tuple[int, int]:
    if scheme == "custom":
        # Small enough that unrecognized structures enumerate exactly.
        return (8, 8) if model == "hier" else rng.choice([(6, 6), (8, 6), (6, 8), (8, 8)])
    if model == "hier":
        n = rng.choice([8, 12, 16])
        return n, n
    n = rng.choice([8, 12, 16, 24])
    return n, rng.choice([8, 12, 16])


def _arbitration(rng: random.Random, index: int) -> dict:
    """``classes`` or ``tenure`` on one query in three of each six."""
    slot = index % 6
    if slot == 1:
        high = round(rng.uniform(0.1, 0.5), 4)
        return {"classes": [high, round(1.0 - high, 4)]}
    if slot == 3:
        return {"tenure": round(rng.uniform(1.5, 4.0), 4)}
    if slot == 5:
        high = round(rng.uniform(0.2, 0.6), 4)
        return {"classes": [high, round(1.0 - high, 4)],
                "tenure": round(rng.uniform(1.5, 3.0), 4)}
    return {}


def _generator(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"kind": "waxman", "seed": rng.randrange(1 << 30),
                "alpha": round(rng.uniform(0.5, 1.0), 4)}
    return {"kind": "random_incidence", "seed": rng.randrange(1 << 30),
            "density": round(rng.uniform(0.3, 0.8), 4)}


def _cold_query(rng: random.Random, index: int) -> Request:
    scheme, model = _COLD_ROTATION[index % len(_COLD_ROTATION)]
    n, m = _machine(rng, scheme, model)
    buses = feasible_buses(scheme, m)
    payload: dict = {
        "scheme": scheme, "N": n, "M": m, "B": rng.choice(buses),
        "r": round(rng.uniform(0.05, 1.0), 6), "model": model,
    }
    if scheme == "custom":
        payload["generator"] = _generator(rng)
    else:
        payload.update(_arbitration(rng, index))
    return Request("/query", payload)


def _cold_sweep(rng: random.Random, index: int) -> Request:
    scheme, model = _SWEEP_ROTATION[index % len(_SWEEP_ROTATION)]
    n, m = _machine(rng, scheme, model)
    payload = {
        "scheme": scheme, "N": n, "M": m, "B": feasible_buses(scheme, m),
        "r": round(rng.uniform(0.05, 1.0), 6), "model": model,
    }
    if index % 4 == 1:
        payload["tenure"] = round(rng.uniform(1.5, 4.0), 4)
    return Request("/sweep", payload)


def cold_requests(seed: int, count: int, stream: str) -> list[Request]:
    """``count`` requests, each distinct from every other of the stream.

    ``stream`` separates the warm-up set from the timed set, so no timed
    request repeats one the server has already answered.
    """
    rng = random.Random(f"cold:{stream}:{seed}")
    seen: set[bytes] = set()
    out: list[Request] = []
    queries = sweeps = 0
    while len(out) < count:
        if len(out) % COLD_SWEEP_EVERY == COLD_SWEEP_EVERY - 1:
            request = _cold_sweep(rng, sweeps)
            sweeps += 1
        else:
            request = _cold_query(rng, queries)
            queries += 1
        if request.wire in seen:
            continue
        seen.add(request.wire)
        out.append(request)
    return out


# ----------------------------------------------------------------------
# sweep-sim
# ----------------------------------------------------------------------

#: The simulated machine: N = M small enough for exact enumeration of
#: every cell in the answer check.
SWEEP_SCHEME = "full"
SWEEP_N = 12
SWEEP_RATES = 8
SWEEP_CYCLES = 2000


def sweep_rates(seed: int) -> list[float]:
    """``SWEEP_RATES`` distinct off-grid rates in [0.1, 1.0], ascending."""
    rng = random.Random(f"sweep:{seed}")
    rates: set[float] = set()
    while len(rates) < SWEEP_RATES:
        rates.add(round(rng.uniform(0.1, 1.0), 4))
    return sorted(rates)


def sweep_args(seed: int, workers: int, one_cell: bool = False) -> list[str]:
    """``repro-fabric`` arguments of the timed sweep (or its one-cell
    set-up twin)."""
    rates = sweep_rates(seed)
    buses = "1" if one_cell else f"1-{SWEEP_N}"
    rate_text = str(rates[0]) if one_cell else ",".join(map(str, rates))
    return [
        "--scheme", SWEEP_SCHEME, "--N", str(SWEEP_N),
        "--buses", buses, "--rates", rate_text,
        "--cycles", str(SWEEP_CYCLES), "--seed", str(seed),
        "--workers", str(workers), "--json", "--quiet",
    ]


def sweep_cells(one_cell: bool = False) -> int:
    """Records one sweep command returns (two request models per point)."""
    return 2 if one_cell else 2 * SWEEP_N * SWEEP_RATES
