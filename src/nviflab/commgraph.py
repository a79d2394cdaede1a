"""Dynamic neighboring-communication graphs.

The graph rule: every agent classifies every other alive agent into one of
four directions by dominant axis (vertical wins ties), keeps the squared-
Euclidean-nearest candidate per direction (lowest id on distance ties), and
the edge set is the symmetric closure of those picks. ``build_graph`` applies
the rule in one dense numpy pass: contiguous (n, n) int64 offsets dx and dy,
squared distances with each agent's own column set to the int64 maximum, then
per direction mask (up -dy >= |dx|, down dy >= |dx|, left -dx > |dy|, right
dx > |dy|) a row-wise argmin over columns sorted by id (lowest id first).
``tests/test_commgraph.py`` keeps the per-pair loop as its reference oracle,
and ``tests/conftest.py`` the information-flow oracle over graph histories.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class NeighborGraph:
    ids: tuple[int, ...]
    adj: np.ndarray  # bool, symmetric, zero diagonal; rows follow ids order

    @property
    def n_alive(self) -> int:
        return len(self.ids)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (ids[i], ids[j]) with i < j, in row-major order."""
        rows, cols = np.nonzero(np.triu(self.adj, 1))
        return [(self.ids[i], self.ids[j]) for i, j in zip(rows.tolist(), cols.tolist())]


def build_graph(positions, ids) -> NeighborGraph:
    """Neighbor graph from agent positions (one (x, y) per id, all distinct)."""
    ids = tuple(ids)
    n = len(ids)
    if n == 0:
        raise DataError("build_graph: no alive agents")
    pos = np.asarray(positions, dtype=np.int64)
    if pos.shape != (n, 2):
        raise DataError(f"build_graph: expected {n} positions, got shape {pos.shape}")
    # columns in (id, index) order: argmin's first minimum is the lowest id
    order = np.argsort(np.asarray(ids), kind="stable")
    x, y = pos[:, 0], pos[:, 1]
    dx, dy = x[order] - x[:, None], y[order] - y[:, None]
    ax, ay = np.abs(dx), np.abs(dy)
    rows = np.arange(n)
    far = np.iinfo(np.int64).max
    d2 = dx * dx + dy * dy
    d2[rows, np.argsort(order)] = far  # an agent never picks itself
    adj = np.zeros((n, n), dtype=bool)
    # up, down, left, right: the dominant axis, vertical on ties
    for mask in (-dy >= ax, dy >= ax, -dx > ay, dx > ay):
        key = np.where(mask, d2, far)
        pick = key.argmin(axis=1)
        hit = key[rows, pick] < far
        adj[rows[hit], order[pick[hit]]] = True
    adj |= adj.T
    return NeighborGraph(ids=ids, adj=adj)


def fully_connected(ids) -> NeighborGraph:
    """Complete graph over the given agents (ablation: all-pairs exchange)."""
    if isinstance(ids, int):
        ids = range(ids)
    ids = tuple(ids)
    if len(ids) == 0:
        raise DataError("fully_connected: no alive agents")
    n = len(ids)
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return NeighborGraph(ids=ids, adj=adj)


def normalize(graph: NeighborGraph) -> np.ndarray:
    """Symmetric-normalized adjacency D^{-1/2} (G + I) D^{-1/2}.

    Self-loops make every degree positive, so the result is always defined.
    """
    g_tilde = graph.adj.astype(np.float64) + np.eye(graph.n_alive)
    inv_sqrt_deg = 1.0 / np.sqrt(g_tilde.sum(axis=1))
    return g_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]
