"""Parameter sweeps over bus counts, request rates and schemes.

The paper's evaluation is a grid of (scheme, N, B, r, requesting model)
cells; this module produces such grids as lists of flat record dicts that
the table renderer, the experiments and the benchmarks all share.

Since the batched analytic engine landed, sweeps no longer evaluate cell
by cell: for each (rate, model) pair the whole bus-count vector is
computed from one cached pmf by :mod:`repro.analysis.batch`, and no
network object is constructed per cell.  Structurally invalid cells —
the paper tables' blank entries — are no longer silently dropped either:
:func:`bandwidth_sweep_with_skips` returns them as
:class:`~repro.analysis.batch.SkippedCell` records, and
:func:`bandwidth_sweep` logs them on this module's logger.  One scheme's
bandwidth as a function of ``B`` alone is
:func:`~repro.analysis.batch.scheme_bus_profile`.
"""

from __future__ import annotations

import dataclasses
import logging
from collections.abc import Callable, Sequence

from repro.analysis.batch import SkippedCell, scheme_bus_profile
from repro.core.hierarchy import paper_two_level_model
from repro.core.request_models import RequestModel, UniformRequestModel
from repro.obs.metrics import get_registry
from repro.obs.spans import span

__all__ = [
    "SweepResult",
    "bandwidth_sweep",
    "bandwidth_sweep_with_skips",
    "paper_model_pair",
]

logger = logging.getLogger(__name__)


def paper_model_pair(
    n_processors: int, rate: float
) -> dict[str, RequestModel]:
    """Return the paper's two Section IV request models for one machine.

    ``hier`` — the two-level hierarchy (4 clusters, aggregate fractions
    0.6 / 0.3 / 0.1); ``unif`` — the uniform model.
    """
    return {
        "hier": paper_two_level_model(n_processors, rate=rate),
        "unif": UniformRequestModel(n_processors, n_processors, rate=rate),
    }


@dataclasses.dataclass
class SweepResult:
    """A sweep's records plus the audited skipped cells."""

    records: list[dict[str, object]]
    skipped: list[SkippedCell]


def _log_skips(skipped: Sequence[SkippedCell]) -> None:
    for cell in skipped:
        logger.debug(
            "skipping scheme=%s B=%d: %s", cell.scheme, cell.n_buses,
            cell.reason,
        )


def bandwidth_sweep_with_skips(
    scheme: str,
    n_processors: int,
    bus_counts: Sequence[int],
    rates: Sequence[float],
    model_factory: Callable[[int, float], dict[str, RequestModel]] = paper_model_pair,
    n_memories: int | None = None,
    **network_kwargs,
) -> SweepResult:
    """Evaluate one scheme across a (B, r, model) grid, auditing skips.

    Returns one record per valid grid cell (same shape as
    :func:`bandwidth_sweep`) plus one :class:`SkippedCell` per
    structurally invalid ``(scheme, B)`` combination — the blank cells of
    the paper's tables, deduplicated across rates and models since
    feasibility depends only on the structure.
    """
    if n_memories is None:
        n_memories = n_processors
    bus_counts = [int(b) for b in bus_counts]
    records: list[dict[str, object]] = []
    skipped: list[SkippedCell] = []
    sweep_span = span(
        "sweep.bandwidth", scheme=scheme, N=n_processors, M=n_memories
    )
    with sweep_span:
        _sweep_grid(
            scheme, n_processors, n_memories, bus_counts, rates,
            model_factory, records, skipped, network_kwargs,
        )
        sweep_span.set_attribute("records", len(records))
    get_registry().increment("sweep.records", len(records), scheme=scheme)
    return SweepResult(records=records, skipped=skipped)


def _sweep_grid(
    scheme: str,
    n_processors: int,
    n_memories: int,
    bus_counts: list[int],
    rates: Sequence[float],
    model_factory: Callable[[int, float], dict[str, RequestModel]],
    records: list[dict[str, object]],
    skipped: list[SkippedCell],
    network_kwargs: dict,
) -> None:
    """Fill ``records``/``skipped`` for :func:`bandwidth_sweep_with_skips`."""
    for rate in rates:
        models = model_factory(n_processors, rate)
        profiles = {
            name: scheme_bus_profile(
                scheme, n_processors, n_memories, bus_counts, model,
                **network_kwargs,
            )
            for name, model in models.items()
        }
        if not skipped:
            seen: set[tuple[str, int]] = set()
            for profile in profiles.values():
                for cell in profile.skipped:
                    if (cell.scheme, cell.n_buses) not in seen:
                        seen.add((cell.scheme, cell.n_buses))
                        skipped.append(cell)
        for n_buses in bus_counts:
            for name in models:
                values = profiles[name].values
                if n_buses not in values:
                    continue
                records.append(
                    {
                        "scheme": scheme,
                        "N": n_processors,
                        "M": n_memories,
                        "B": n_buses,
                        "r": rate,
                        "model": name,
                        "bandwidth": values[n_buses],
                    }
                )


def bandwidth_sweep(
    scheme: str,
    n_processors: int,
    bus_counts: Sequence[int],
    rates: Sequence[float],
    model_factory: Callable[[int, float], dict[str, RequestModel]] = paper_model_pair,
    n_memories: int | None = None,
    **network_kwargs,
) -> list[dict[str, object]]:
    """Evaluate one scheme across a (B, r, model) grid.

    Returns one record per grid cell::

        {"scheme", "N", "M", "B", "r", "model", "bandwidth"}

    Grid cells whose parameters are structurally invalid for the scheme
    (e.g. ``g`` does not divide ``B``) are skipped, mirroring the blank
    cells of the paper's tables; the skipped combinations are logged at
    DEBUG level and available from :func:`bandwidth_sweep_with_skips`.
    """
    result = bandwidth_sweep_with_skips(
        scheme, n_processors, bus_counts, rates, model_factory,
        n_memories, **network_kwargs,
    )
    _log_skips(result.skipped)
    return result.records

