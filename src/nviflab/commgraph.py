"""Dynamic neighboring-communication graphs.

The graph rule: every agent classifies every other alive agent into one of
four directions by dominant axis (vertical wins ties), keeps the squared-
Euclidean-nearest candidate per direction (lowest id on distance ties), and
the edge set is the symmetric closure of those picks. ``build_graph`` applies
the rule in one dense numpy pass. It subtracts the minimum coordinate, and
the coordinate span then sets the width: at most 32767, every squared
distance fits int32, so the (n, n) offsets dx, dy and ``d2 - 1`` are int32
and the keys uint32; above it, int64 and uint64. One (4, n, n) key buffer
serves all four directions: it takes each direction's mask (up -dy >= |dx|,
down dy >= |dx|, left -dx > |dy|, right dx > |dy|), and two in-place ops
make it ``(mask - 1) | (d2 - 1)``. A masked-out pair is then all ones, the
"far" sentinel, and so is an agent's own pair, whose ``d2 - 1`` wraps (so
positions must be distinct). A row-wise argmin over columns sorted by id
(lowest id first) picks each direction's neighbor, where one is not far.
``tests/test_commgraph.py`` keeps the per-pair loop as its reference oracle,
and ``tests/conftest.py`` the information-flow oracle over graph histories and
the ``np.eye`` form of ``normalize``.
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
    lo = pos.min()
    signed, unsigned = ((np.int32, np.uint32) if pos.max() - lo <= 32767
                        else (np.int64, np.uint64))
    pos = (pos - lo).astype(signed)
    # columns in (id, index) order: argmin's first minimum is the lowest id
    order = np.argsort(np.asarray(ids), kind="stable")
    x, y = pos[:, 0], pos[:, 1]
    dx, dy = x[order] - x[:, None], y[order] - y[:, None]
    ax, ay = np.abs(dx), np.abs(dy)
    d2 = dx * dx
    d2 += dy * dy
    d2 -= 1  # an agent's own pair wraps to the far sentinel: it never picks itself
    key = np.empty((4, n, n), dtype=unsigned)
    # up, down, left, right: the dominant axis, vertical on ties
    for k, mask in enumerate((-dy >= ax, dy >= ax, -dx > ay, dx > ay)):
        key[k] = mask
    key -= 1
    key |= d2.view(unsigned)
    pick = key.argmin(axis=2)
    hit = np.take_along_axis(key, pick[..., None], axis=2)[..., 0] != np.iinfo(unsigned).max
    rows, cols = np.nonzero(hit)[1], order[pick[hit]]
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = True
    adj[cols, rows] = True
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
    g_tilde = graph.adj.astype(np.float64)
    np.fill_diagonal(g_tilde, 1.0)  # adj has a zero diagonal: this is G + I
    inv_sqrt_deg = 1.0 / np.sqrt(g_tilde.sum(axis=1))
    g_tilde *= inv_sqrt_deg[:, None]
    g_tilde *= inv_sqrt_deg[None, :]
    return g_tilde
