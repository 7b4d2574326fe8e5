"""Synthetic communicating-task workloads.

Section III-A motivates the hierarchical requesting model from task
assignment: a parallel job is a set of communicating tasks, heavy
communicators are co-located in the same cluster, and memory traffic
therefore concentrates inside clusters.  This module builds the synthetic
equivalent — weighted task-communication graphs with planted community
structure — which :mod:`repro.workloads.assignment` maps onto processors
to *derive* hierarchical request fractions instead of assuming them.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ModelError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TaskGraph", "clustered_task_graph"]


@dataclasses.dataclass(frozen=True)
class TaskGraph:
    """A weighted undirected task-communication graph.

    Attributes
    ----------
    graph:
        ``networkx.Graph`` whose nodes are task ids ``0..n_tasks-1`` and
        whose edge attribute ``weight`` gives the communication volume.
    communities:
        The planted community of each task (ground truth used to score
        assignments).
    """

    graph: nx.Graph
    communities: tuple[int, ...]

    @property
    def n_tasks(self) -> int:
        """Number of tasks."""
        return self.graph.number_of_nodes()

    def weight(self, a: int, b: int) -> float:
        """Communication volume between tasks ``a`` and ``b`` (0 if none)."""
        data = self.graph.get_edge_data(a, b)
        return float(data["weight"]) if data else 0.0

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.graph.size(weight="weight"))

    def task_volume(self, task: int) -> float:
        """Total communication volume incident to one task."""
        return float(self.graph.degree(task, weight="weight"))

    def intra_community_fraction(self) -> float:
        """Fraction of weight that stays inside planted communities."""
        total = self.total_weight()
        if total == 0.0:
            return 0.0
        intra = sum(
            float(d["weight"])
            for a, b, d in self.graph.edges(data=True)
            if self.communities[a] == self.communities[b]
        )
        return intra / total


def clustered_task_graph(
    n_tasks: int,
    n_communities: int,
    intra_probability: float = 0.6,
    inter_probability: float = 0.05,
    intra_weight: tuple[float, float] = (5.0, 10.0),
    inter_weight: tuple[float, float] = (0.5, 2.0),
    seed: int | None = None,
) -> TaskGraph:
    """Generate a planted-partition communication graph.

    Tasks split into ``n_communities`` balanced communities; intra-community
    edges appear with ``intra_probability`` and carry heavy weights,
    inter-community edges are sparse and light.  The resulting locality is
    exactly the structure the hierarchical requesting model captures.

    >>> tg = clustered_task_graph(16, 4, seed=7)
    >>> tg.n_tasks
    16
    >>> tg.intra_community_fraction() > 0.5
    True
    """
    if n_tasks < 1:
        raise ModelError(f"need at least one task, got {n_tasks}")
    if n_communities < 1 or n_communities > n_tasks:
        raise ModelError(
            f"community count {n_communities} must be in [1, {n_tasks}]"
        )
    for name, (low, high) in (
        ("intra_weight", intra_weight),
        ("inter_weight", inter_weight),
    ):
        if low < 0 or high < low:
            raise ModelError(f"{name} range must satisfy 0 <= low <= high")
    for name, p in (
        ("intra_probability", intra_probability),
        ("inter_probability", inter_probability),
    ):
        if not 0.0 <= p <= 1.0:
            raise ModelError(f"{name} must be a probability, got {p}")

    import networkx as nx

    rng = np.random.default_rng(seed)
    communities = tuple(t % n_communities for t in range(n_tasks))
    graph = nx.Graph()
    graph.add_nodes_from(range(n_tasks))
    for a in range(n_tasks):
        for b in range(a + 1, n_tasks):
            same = communities[a] == communities[b]
            p = intra_probability if same else inter_probability
            if rng.random() < p:
                low, high = intra_weight if same else inter_weight
                graph.add_edge(a, b, weight=float(rng.uniform(low, high)))
    return TaskGraph(graph=graph, communities=communities)
