"""Dynamic neighboring-communication graphs and the information-flow oracle.

The graph rule: every agent classifies every other alive agent into one of
four directions by dominant axis (vertical wins ties), keeps the squared-
Euclidean-nearest candidate per direction (lowest id on distance ties), and
the edge set is the symmetric closure of those picks. ``build_graph`` applies
the rule in one dense numpy pass: contiguous (n, n) int64 offsets dx and dy,
squared distances with each agent's own column set to the int64 maximum, then
per direction mask (up -dy >= |dx|, down dy >= |dx|, left -dx > |dy|, right
dx > |dy|) a row-wise argmin over columns sorted by id (lowest id first).
``tests/test_commgraph.py`` keeps the per-pair loop as its reference oracle.
The info-flow functions track which (agent, timestep) messages are reachable,
both by the explicit union over past graphs and by the one-step recurrence;
the two must agree, which is what the property suite checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, ProtocolError

Message = tuple[int, int]          # (agent id, timestep it was shared)
InfoSet = frozenset                # of Message


@dataclass(frozen=True)
class NeighborGraph:
    ids: tuple[int, ...]
    adj: np.ndarray  # bool, symmetric, zero diagonal; rows follow ids order

    @property
    def n_alive(self) -> int:
        return len(self.ids)

    def index_of(self, agent_id: int) -> int:
        return self.ids.index(agent_id)

    def neighbors(self, agent_id: int) -> list[int]:
        row = self.adj[self.index_of(agent_id)]
        return [self.ids[j] for j in np.flatnonzero(row)]

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


def info_direct(graph_history, agent_id: int, t: int) -> InfoSet:
    """Messages reachable by ``agent_id`` after step ``t``, by explicit expansion.

    Walks k = t..0; at each k the reachable set grows to the union of the
    previous set's neighborhoods under the graph at k, and every member's
    message from timestep k is collected.
    """
    if len(graph_history) <= t:
        raise DataError(f"info_direct: history has {len(graph_history)} graphs, need {t + 1}")
    frontier = {agent_id}
    collected: set[Message] = set()
    for k in range(t, -1, -1):
        graph = graph_history[k]
        grown: set[int] = set()
        for j in frontier:
            grown.add(j)
            grown.update(graph.neighbors(j))
        frontier = grown
        collected.update((j, k) for j in frontier)
    return frozenset(collected)


class FlowParts(NamedTuple):
    total: InfoSet
    recurrent: InfoSet  # previous collections of the closed neighborhood
    flow: InfoSet       # messages shared now by the closed neighborhood


def info_recursive(previous: dict[int, InfoSet], graph: NeighborGraph, t: int) -> dict[int, FlowParts]:
    """One recurrence step: next collection = neighborhood's old collections
    plus the neighborhood's current messages, per alive agent."""
    for agent_id in graph.ids:
        if agent_id not in previous:
            raise ProtocolError(f"info_recursive: missing previous set for agent {agent_id}")
    out = {}
    for agent_id in graph.ids:
        closed = [agent_id] + graph.neighbors(agent_id)
        recurrent = frozenset().union(*(previous[j] for j in closed))
        flow = frozenset((j, t) for j in closed)
        out[agent_id] = FlowParts(total=recurrent | flow, recurrent=recurrent, flow=flow)
    return out
