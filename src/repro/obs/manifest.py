"""Per-run manifests: one diffable JSON document per experiment/run.

A manifest digests the registry into the questions an operator asks
after a run: did the cache work (hit rate), which simulation backend ran
(and how often the auto selector fell back), which sweep cells were
skipped and why, which RNG streams fed the Monte-Carlo, how resilient
execution fared (retries by reason, quarantined cache files, fabric
worker deaths and re-shards), how many bus-failure sets the
availability analysis evaluated, and where the time went per phase
(top-level spans).

Determinism contract: no field carries a wall-clock timestamp or
hostname.  Everything outside the ``"timings"`` section is a pure
function of the workload and seed, so ``diff manifest_a.json
manifest_b.json`` flags real behavioural drift; timing noise stays
confined to one clearly-named section.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "build_manifest",
    "write_manifest",
    "skipped_cell_counts",
]


def skipped_cell_counts(registry: MetricsRegistry) -> list[dict[str, object]]:
    """``analysis.cells_skipped`` counters as sorted flat records."""
    records = []
    for (name, labels), value in registry.counters().items():
        if name != "analysis.cells_skipped":
            continue
        record: dict[str, object] = dict(labels)
        record["count"] = int(value)
        records.append(record)
    return sorted(
        records,
        key=lambda r: (str(r.get("scheme", "")), str(r.get("reason", ""))),
    )


def _cache_section(registry: MetricsRegistry) -> dict[str, object]:
    hits = int(registry.counter_total("pmf_cache.hits"))
    misses = int(registry.counter_total("pmf_cache.misses"))
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": int(registry.counter_total("pmf_cache.evictions")),
        "hit_rate": round(hits / total, 6) if total else 0.0,
    }


def _backend_section(registry: MetricsRegistry) -> dict[str, object]:
    runs = {
        labels[0][1] if labels else "unknown": int(value)
        for (name, labels), value in registry.counters().items()
        if name == "sim.backend"
    }
    fallbacks = [
        {
            key: event[key]
            for key in ("scheme", "reason")
            if key in event
        }
        for event in registry.events()
        if event["kind"] == "sim.backend_fallback"
    ]
    return {"runs": dict(sorted(runs.items())), "auto_fallbacks": fallbacks}


def _rng_section(registry: MetricsRegistry) -> dict[str, object]:
    entropies: set[int] = set()
    streams = 0
    for event in registry.events():
        if event["kind"] != "sim.rng":
            continue
        streams += 1
        entropy = event.get("entropy")
        if isinstance(entropy, int):
            entropies.add(entropy)
    return {"streams": streams, "root_entropies": sorted(entropies)}


def _labelled_totals(
    registry: MetricsRegistry, counter: str, label: str
) -> dict[str, int]:
    """Per-label-value totals of one labelled counter, sorted."""
    totals: dict[str, int] = {}
    for (name, labels), value in registry.counters().items():
        if name != counter:
            continue
        key = dict(labels).get(label, "unknown")
        totals[str(key)] = totals.get(str(key), 0) + int(value)
    return dict(sorted(totals.items()))


def _resilience_section(registry: MetricsRegistry) -> dict[str, object]:
    """Retry / crash-recovery / cache-quarantine digest of a run.

    ``retries`` counts the fabric's re-shards by reason.
    """
    retries = _labelled_totals(registry, "fabric.retries", "reason")
    return {
        "retries": retries,
        "total_retries": sum(retries.values()),
        "quarantined_cache_files": int(
            registry.counter_total("parallel.disk_cache.quarantined")
        ),
        "deadline_exceeded": _labelled_totals(
            registry, "resilience.deadline_exceeded", "site"
        ),
    }


def _breaker_section(registry: MetricsRegistry) -> dict[str, object]:
    """Circuit-breaker digest: transitions (in order) and rejections.

    The ``transitions`` list preserves event order — a seeded chaos
    replay must reproduce the exact same open/half-open/closed walk, so
    the list is diffable across runs by contract.
    """
    transitions = [
        {
            key: event[key]
            for key in ("breaker", "from", "to", "failures")
            if key in event
        }
        for event in registry.events()
        if event["kind"] == "breaker.transition"
    ]
    return {
        "transitions": transitions,
        "transition_totals": _labelled_totals(
            registry, "breaker.transitions", "breaker"
        ),
        "rejected": _labelled_totals(registry, "breaker.rejected", "breaker"),
    }


def _brownout_section(registry: MetricsRegistry) -> dict[str, object]:
    """Brownout-ladder digest: moves (in order) and per-class sheds."""
    transitions = [
        {
            key: event[key]
            for key in ("from", "to", "queue_depth", "p95_ms")
            if key in event
        }
        for event in registry.events()
        if event["kind"] == "brownout.transition"
    ]
    return {
        "transitions": transitions,
        "moves": _labelled_totals(
            registry, "brownout.transitions", "direction"
        ),
        "shed_by_class": _labelled_totals(registry, "brownout.shed", "cls"),
    }


def _chaos_section(registry: MetricsRegistry) -> dict[str, object]:
    """Chaos-injection digest: what fired where, in order."""
    injections = [
        # The event carries the injected kind as ``fault`` (``kind`` is
        # the event-name slot); the manifest re-exposes it as ``kind``.
        {
            "site": event.get("site"),
            "kind": event.get("fault"),
            "call": event.get("call"),
        }
        for event in registry.events()
        if event["kind"] == "chaos.injection"
    ]
    return {
        "injections": injections,
        "by_site": _labelled_totals(registry, "chaos.injected", "site"),
        "by_kind": _labelled_totals(registry, "chaos.injected", "kind"),
    }


def _faults_section(registry: MetricsRegistry) -> dict[str, object]:
    """Fault digest: failure sets the availability analysis evaluated."""
    return {
        "availability_sets": _labelled_totals(
            registry, "availability.failure_sets", "method"
        ),
    }


def _service_section(registry: MetricsRegistry) -> dict[str, object]:
    """Query-service digest: traffic, tier split, batching, shedding."""
    requests = _labelled_totals(registry, "service.requests", "kind")
    hits = int(registry.counter_total("service.cache.hits"))
    misses = int(registry.counter_total("service.cache.misses"))
    lookups = hits + misses
    batch_cells = int(registry.counter_total("service.batch.cells"))
    batch_flushes = int(registry.counter_total("service.batch.flushes"))
    return {
        "requests": requests,
        "total_requests": int(registry.counter_total("service.requests")),
        "cache": {
            "hits": hits,
            "misses": misses,
            "evictions": int(
                registry.counter_total("service.cache.evictions")
            ),
            "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
        },
        "coalesced": int(registry.counter_total("service.coalesced")),
        "computed": int(registry.counter_total("service.computed")),
        "batch": {
            "flushes": batch_flushes,
            "cells": batch_cells,
            "groups": int(registry.counter_total("service.batch.groups")),
            "cells_per_flush": (
                round(batch_cells / batch_flushes, 6) if batch_flushes else 0.0
            ),
        },
        "shed": _labelled_totals(registry, "service.shed", "reason"),
        "http_requests": _labelled_totals(
            registry, "service.http.requests", "path"
        ),
        "encode_cache": {
            "hits": int(registry.counter_total("service.encode.hits")),
            "misses": int(registry.counter_total("service.encode.misses")),
            "evictions": int(
                registry.counter_total("service.encode.evictions")
            ),
        },
    }


def _arbitration_section(registry: MetricsRegistry) -> dict[str, object]:
    """Priority-arbitration digest: runs by discipline, per-class grants."""
    return {
        "runs": _labelled_totals(registry, "arbitration.runs", "discipline"),
        "class_grants": _labelled_totals(
            registry, "arbitration.class_grants", "cls"
        ),
        "starved_cycles": _labelled_totals(
            registry, "arbitration.starved_cycles", "cls"
        ),
        "blocked_tenure": int(
            registry.counter_total("arbitration.blocked_tenure")
        ),
    }


def _fabric_section(registry: MetricsRegistry) -> dict[str, object]:
    """Distributed-fabric digest: shard map, deaths, retries, fallbacks.

    The ``shards`` list is the full dispatch history (re-shards
    included, in dispatch order) with canonical
    :class:`~repro.fabric.gridslice.GridSlice` strings, so two runs'
    shard maps diff cleanly and a crash shows up as extra
    ``attempt >= 2`` entries plus a ``worker_deaths`` record.
    """
    shards = [
        {
            key: event[key]
            for key in ("node", "slice", "cells", "attempt")
            if key in event
        }
        for event in registry.events()
        if event["kind"] == "fabric.shard"
    ]
    deaths = [
        {key: event[key] for key in ("node", "reason") if key in event}
        for event in registry.events()
        if event["kind"] == "fabric.worker_dead"
    ]
    return {
        "workers_spawned": int(
            registry.counter_total("fabric.workers_spawned")
        ),
        "slices": _labelled_totals(registry, "fabric.slices", "status"),
        "results": int(registry.counter_total("fabric.results")),
        "cache_hits": int(registry.counter_total("fabric.cache_hits")),
        "local_cells": int(registry.counter_total("fabric.local_cells")),
        "cell_errors": int(registry.counter_total("fabric.cell_errors")),
        "retries": _labelled_totals(registry, "fabric.retries", "reason"),
        "worker_deaths": deaths,
        "shards": shards,
    }


def _topology_section(registry: MetricsRegistry) -> dict[str, object]:
    """Custom-topology digest: recognition outcomes and fallback counts.

    ``recognized`` tallies custom structures routed to a closed-form
    scheme, ``fallbacks`` those evaluated by enumeration/simulation —
    together they answer "did the fast path actually fire?" for a run
    that sweeps generated topologies.
    """
    cache = _labelled_totals(registry, "topology.recognition_cache", "result")
    hits = cache.get("hit", 0)
    misses = cache.get("miss", 0)
    lookups = hits + misses
    return {
        "recognized": _labelled_totals(
            registry, "topology.recognized", "scheme"
        ),
        "fallbacks": _labelled_totals(registry, "topology.fallback", "method"),
        "generated": _labelled_totals(registry, "topology.generated", "kind"),
        "recognition_cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
        },
    }


def _counters_section(registry: MetricsRegistry) -> dict[str, object]:
    flat: dict[str, object] = {}
    for (name, labels), value in registry.counters().items():
        if labels:
            label_text = ",".join(f"{k}={v}" for k, v in labels)
            key = f"{name}{{{label_text}}}"
        else:
            key = name
        flat[key] = int(value) if float(value).is_integer() else value
    return dict(sorted(flat.items()))


def _timings_section(registry: MetricsRegistry) -> dict[str, object]:
    phases: dict[str, dict[str, object]] = {}
    for (name, labels), summary in registry.histograms().items():
        if not name.startswith("span.") or not name.endswith(".wall_seconds"):
            continue
        phase = name[len("span.") : -len(".wall_seconds")]
        cpu = registry.histograms().get((f"span.{phase}.cpu_seconds", labels))
        phases[phase] = {
            "count": summary.count,
            "wall_seconds": round(summary.total, 6),
            "cpu_seconds": round(cpu.total, 6) if cpu else None,
        }
    return {"phases": dict(sorted(phases.items()))}


def build_manifest(
    registry: MetricsRegistry, run: dict[str, object] | None = None
) -> dict[str, object]:
    """Digest ``registry`` into the manifest document.

    ``run`` is the caller's deterministic identity block (experiment id,
    seed, cell counts, verdicts, ...) and lands verbatim under ``"run"``.
    """
    return {
        "run": dict(run or {}),
        "cache": _cache_section(registry),
        "backends": _backend_section(registry),
        "rng": _rng_section(registry),
        "skipped_cells": skipped_cell_counts(registry),
        "resilience": _resilience_section(registry),
        "faults": _faults_section(registry),
        "service": _service_section(registry),
        "arbitration": _arbitration_section(registry),
        "topology": _topology_section(registry),
        "fabric": _fabric_section(registry),
        "breaker": _breaker_section(registry),
        "brownout": _brownout_section(registry),
        "chaos": _chaos_section(registry),
        "counters": _counters_section(registry),
        "timings": _timings_section(registry),
    }


def write_manifest(
    registry: MetricsRegistry,
    path: str | Path,
    run: dict[str, object] | None = None,
) -> Path:
    """Write :func:`build_manifest` as sorted, indented JSON; return path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(registry, run)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
