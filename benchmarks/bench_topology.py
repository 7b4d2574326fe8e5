"""Recognizer microbenchmark: cold vs warm recognition, cache hit rate.

Times structure recognition over a mixed population (all five paper
schemes, permuted layouts, and unrecognizable random structures) first
cold — every digest new to the cache — then warm, asserting the warm
pass is served entirely from the digest-keyed LRU and runs at least
``SPEEDUP_FLOOR`` times faster.  The measured timings land in
``BENCH_topology.json`` at the repo root, alongside a batched-profile
timing of the custom fast path vs its closed-form twin (which also
re-asserts bit-identity — the contract the speedup rests on).
"""

import json
import time
from pathlib import Path

from repro.analysis.batch import scheme_bus_profile
from repro.core.request_models import UniformRequestModel
from repro.obs.metrics import telemetry
from repro.topology.factory import build_network
from repro.topology.generators import generate_structure
from repro.topology.recognize import clear_recognition_cache, recognize_cached
from repro.topology.structure import structure_of

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_topology.json"

SPEEDUP_FLOOR = 2.0
ROUNDS = 50


def _population():
    structures = []
    for b in (2, 4, 8):
        structures.append(structure_of(build_network("full", 16, 16, b)))
        structures.append(structure_of(build_network("single", 16, 16, b)))
        structures.append(
            structure_of(build_network("partial", 16, 16, b, n_groups=2))
        )
        structures.append(structure_of(build_network("kclass", 16, 16, b)))
    structures.append(
        structure_of(
            build_network(
                "single", 16, 16, 4,
                bus_of_module=[3, 0, 1, 2, 0, 1, 2, 3] * 2,
            )
        )
    )
    for seed in range(4):
        structures.append(
            generate_structure(
                {"kind": "random_incidence", "density": 0.4, "seed": seed},
                16, 16, 6,
            )
        )
    return structures


def test_recognition_cache_speedup(benchmark):
    structures = _population()

    def cold_pass():
        clear_recognition_cache()
        for structure in structures:
            recognize_cached(structure)

    def warm_pass():
        for structure in structures:
            recognize_cached(structure)

    start = time.perf_counter()
    for _ in range(ROUNDS):
        cold_pass()
    cold_seconds = (time.perf_counter() - start) / ROUNDS

    cold_pass()  # leave the cache populated for the warm measurement
    with telemetry() as registry:
        start = time.perf_counter()
        for _ in range(ROUNDS):
            warm_pass()
        warm_seconds = (time.perf_counter() - start) / ROUNDS
        hits = registry.counter_value(
            "topology.recognition_cache", result="hit"
        )
        misses = registry.counter_value(
            "topology.recognition_cache", result="miss"
        )
    benchmark.pedantic(warm_pass, rounds=1, iterations=1)

    assert hits == ROUNDS * len(structures), (hits, misses)
    assert misses == 0, "warm pass must never recompute a recognition"
    speedup = cold_seconds / warm_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm recognition only {speedup:.2f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    model = UniformRequestModel(16, 16, rate=1.0)
    bus_counts = list(range(1, 9))
    start = time.perf_counter()
    custom = scheme_bus_profile(
        "custom", 16, 16, bus_counts, model,
        generator={"kind": "grouped", "n_groups": 2},
    )
    custom_seconds = time.perf_counter() - start
    start = time.perf_counter()
    direct = scheme_bus_profile("partial", 16, 16, bus_counts, model)
    direct_seconds = time.perf_counter() - start
    # B = 2 leaves one bus per group — recognized (correctly) as
    # "single", whose equal closed form differs in the last ulp — so the
    # bit-identity contract is asserted on the genuinely-partial cells.
    shared = [
        b for b in set(custom.values) & set(direct.values) if b >= 4
    ]
    assert shared and all(
        custom.values[b] == direct.values[b] for b in shared
    ), "recognized fast path must stay bit-identical to the closed form"

    report = {
        "population": len(structures),
        "rounds": ROUNDS,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(speedup, 2),
        "floor": SPEEDUP_FLOOR,
        "warm_cache_hits": int(hits),
        "warm_cache_misses": int(misses),
        "profile": {
            "bus_counts": bus_counts,
            "custom_seconds": round(custom_seconds, 6),
            "closed_form_seconds": round(direct_seconds, 6),
            "bit_identical_cells": len(shared),
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\ntopology recognition: {json.dumps(report)}")
