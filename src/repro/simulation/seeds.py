"""Per-index child seeds that leave the caller's root untouched.

:meth:`numpy.random.SeedSequence.spawn` advances the root's child
counter, so spawning twice from one root yields *different* children —
evaluating the same sweep spec twice in one process, or re-running one
simulator, would then draw new streams.  :func:`spawn_seeds` derives
child ``i`` directly from the root's identity instead; it equals the
``i``-th child of the first ``spawn`` of a fresh root, so every record
seeded through it is unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_seeds"]


def spawn_seeds(
    seed: int | np.random.SeedSequence | None, n: int
) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child seeds from one root seed.

    Children are derived by index from the root
    :class:`~numpy.random.SeedSequence`, so the mapping *cell index ->
    random stream* depends only on ``(seed, n_cells)`` — never on worker
    count, scheduling order, which cells were served from a cache, or
    how often the same root was spawned before.  Passing ``None`` draws
    root entropy from the OS (irreproducible but still independent per
    cell).
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return [
        np.random.SeedSequence(
            root.entropy,
            spawn_key=(*root.spawn_key, index),
            pool_size=root.pool_size,
        )
        for index in range(n)
    ]
