"""Neighbor graph construction, normalization, and info-flow equivalence."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nviflab import commgraph as cg
from nviflab.errors import DataError, ProtocolError

from conftest import eye_normalize, info_direct, info_recursive, neighbors


def direction(dx, dy):
    """Dominant axis of the offset (dx, dy); vertical wins ties."""
    if abs(dy) >= abs(dx):
        return "up" if dy < 0 else "down"
    return "left" if dx < 0 else "right"


def own_picks(positions, ids):
    """Reference oracle, per agent: the indices it picks, one per direction.

    Agent i keeps, per direction, the other agent with the smallest
    (squared distance, id, index), found by a loop over every other agent.
    """
    picks = []
    for i in range(len(ids)):
        best = {}
        for j in range(len(ids)):
            if j == i:
                continue
            dx = int(positions[j][0]) - int(positions[i][0])
            dy = int(positions[j][1]) - int(positions[i][1])
            cand = (dx * dx + dy * dy, ids[j], j)
            key = direction(dx, dy)
            if key not in best or cand < best[key]:
                best[key] = cand
        picks.append({j for _, _, j in best.values()})
    return picks


def loop_adjacency(positions, ids):
    """Reference oracle: the symmetric closure of every agent's own picks."""
    adj = np.zeros((len(ids), len(ids)), dtype=bool)
    for i, picks in enumerate(own_picks(positions, ids)):
        for j in picks:
            adj[i, j] = adj[j, i] = True
    return adj


@st.composite
def layouts(draw, n_max=150):
    """Distinct positions with shuffled, non-contiguous ids.

    A ring around an anchor cell comes first: its cells sit at equal
    distances along the axes and on exact diagonals, so distance and
    direction ties are forced; a small grid makes further ties common.
    """
    side = draw(st.integers(1, 16))
    n = draw(st.integers(1, min(n_max, side * side)))
    ax = draw(st.integers(0, side - 1))
    ay = draw(st.integers(0, side - 1))
    r = draw(st.integers(1, 4))
    ring = [(ax + sx * r, ay + sy * r) for sx in (-1, 0, 1) for sy in (-1, 0, 1)]
    cells = [c for c in ring if 0 <= c[0] < side and 0 <= c[1] < side]
    taken = set(cells)
    cells += [c for c in ((k % side, k // side)
                          for k in draw(st.permutations(range(side * side))))
              if c not in taken]
    scale = draw(st.integers(1, 3))
    positions = [(x * scale, y * scale) for x, y in cells[:n]]
    ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n, unique=True))
    return positions, ids


def random_episode(rng, n_max=8, t_max=6):
    """Random dynamic graph history with monotone deaths."""
    n = int(rng.integers(1, n_max + 1))
    horizon = int(rng.integers(1, t_max + 1))
    alive = list(range(n))
    history = []
    for _ in range(horizon):
        if len(alive) > 1 and rng.random() < 0.25:
            alive.remove(alive[int(rng.integers(0, len(alive)))])
        taken = set()
        positions = []
        for _ in alive:
            while True:
                p = (int(rng.integers(0, 10)), int(rng.integers(0, 10)))
                if p not in taken:
                    taken.add(p)
                    positions.append(p)
                    break
        history.append(cg.build_graph(positions, alive))
    return history


class TestBuildGraph:
    def test_two_agents_mutual(self):
        g = cg.build_graph([(0, 0), (3, 0)], [0, 1])
        assert g.edges() == [(0, 1)]
        assert neighbors(g, 0) == [1] and neighbors(g, 1) == [0]

    def test_three_collinear_chain(self):
        g = cg.build_graph([(0, 0), (2, 0), (5, 0)], [0, 1, 2])
        assert g.edges() == [(0, 1), (1, 2)]

    def test_diagonal_tie_goes_vertical(self):
        g = cg.build_graph([(0, 0), (1, 1)], [0, 1])
        assert g.edges() == [(0, 1)]

    def test_every_agent_has_a_neighbor(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            graph = random_episode(rng)[0]
            if graph.n_alive > 1:
                for agent in graph.ids:
                    assert len(neighbors(graph, agent)) >= 1

    def test_symmetry_and_relabel_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            taken = set()
            pos = []
            while len(pos) < n:
                p = (int(rng.integers(0, 9)), int(rng.integers(0, 9)))
                if p not in taken:
                    taken.add(p)
                    pos.append(p)
            ids = list(range(n))
            g = cg.build_graph(pos, ids)
            assert np.array_equal(g.adj, g.adj.T)
            perm = rng.permutation(n)
            g2 = cg.build_graph([pos[k] for k in perm], [ids[k] for k in perm])
            assert set(map(frozenset, g.edges())) == set(map(frozenset, g2.edges()))

    def test_distance_tie_goes_to_lowest_id(self):
        # 7's up candidates 9 and 2 are both at d2 = 5: it picks 2, not the
        # earlier index; 9 picks 4 below it and 2 to its right, never 7
        g = cg.build_graph([(5, 5), (4, 3), (6, 3), (3, 4)], [7, 9, 2, 4])
        assert set(map(frozenset, g.edges())) == {
            frozenset(e) for e in [(7, 2), (7, 4), (9, 4), (9, 2)]}

    def test_edges_row_major(self):
        g = cg.build_graph([(0, 0), (0, 2), (2, 0), (2, 2)], [5, 3, 8, 1])
        assert g.edges() == [(5, 3), (5, 8), (3, 1), (8, 1)]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            cg.build_graph([], [])

    def test_position_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            cg.build_graph([(0, 0)], [0, 1])


class TestGraphRuleProperties:
    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_matches_loop_oracle(self, layout):
        positions, ids = layout
        g = cg.build_graph(positions, ids)
        assert g.ids == tuple(ids)
        np.testing.assert_array_equal(g.adj, loop_adjacency(positions, ids))

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(1, 2 ** 24), st.integers(-2 ** 30, 2 ** 30),
           st.integers(-2 ** 30, 2 ** 30))
    def test_far_offsets_match_loop_oracle(self, layout, spread, ox, oy):
        # coordinates near 2**31 and squared distances near 2**61: int32
        # positions or distances would overflow, int64 holds them exactly
        positions, ids = layout
        shifted = [(x * spread + ox, y * spread + oy) for x, y in positions]
        np.testing.assert_array_equal(cg.build_graph(shifted, ids).adj,
                                      loop_adjacency(shifted, ids))

    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.sampled_from([32767, 32768, 46341]), st.integers(-2 ** 40, 2 ** 40))
    @example(([(0, 0), (1, 1), (0, 1), (1, 0)], [40, 7, 12, 3]), 32767, 2 ** 40)
    @example(([(0, 0), (1, 1), (0, 1), (1, 0)], [40, 7, 12, 3]), 32768, -2 ** 40)
    @example(([(0, 0), (1, 1), (0, 1), (1, 0)], [40, 7, 12, 3]), 46341, 0)
    def test_spans_at_the_32_bit_bound_match_loop_oracle(self, layout, span, offset):
        # build_graph takes 32-bit keys while the coordinate span is at most
        # 32767 and 64-bit ones above it; from span 46341 on, 2 * span**2
        # no longer fits 32 unsigned bits. Stretch the layout to exactly one
        # of these spans, far from 0 (opposite corners give the largest d2)
        positions, ids = layout
        lo = min(min(p) for p in positions)
        hi = max(max(p) for p in positions)

        def stretched(c):
            return offset + ((c - lo) * span // (hi - lo) if hi > lo else 0)

        shifted = [(stretched(x), stretched(y)) for x, y in positions]
        np.testing.assert_array_equal(cg.build_graph(shifted, ids).adj,
                                      loop_adjacency(shifted, ids))

    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_symmetric_zero_diagonal(self, layout):
        g = cg.build_graph(*layout)
        assert g.adj.dtype == bool and g.adj.shape == (g.n_alive, g.n_alive)
        assert np.array_equal(g.adj, g.adj.T)
        assert not g.adj.diagonal().any()

    @settings(max_examples=60, deadline=None)
    @given(layouts())
    def test_picks_are_directional_minima(self, layout):
        positions, ids = layout
        g = cg.build_graph(positions, ids)
        picks = own_picks(positions, ids)
        for i in range(len(ids)):
            neighbors = set(np.flatnonzero(g.adj[i]).tolist())
            # every (d2, id)-minimum is kept ...
            assert picks[i] <= neighbors
            # ... and an edge the other end did not pick is one of i's own
            # picks: at most one per direction, that direction's minimum
            assert {j for j in neighbors if i not in picks[j]} <= picks[i]


class TestNormalize:
    def test_single_agent(self):
        g = cg.build_graph([(0, 0)], [0])
        np.testing.assert_array_equal(cg.normalize(g), [[1.0]])

    def test_two_connected(self):
        g = cg.fully_connected(2)
        np.testing.assert_allclose(cg.normalize(g), 0.5)

    def test_chain_entries(self):
        g = cg.build_graph([(0, 0), (2, 0), (5, 0)], [0, 1, 2])
        norm = cg.normalize(g)
        assert abs(norm[0, 1] - 1.0 / np.sqrt(6)) < 1e-12
        assert abs(norm[1, 1] - 1.0 / 3.0) < 1e-12

    def test_eigenvalues_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            graph = random_episode(rng)[0]
            eig = np.linalg.eigvalsh(cg.normalize(graph))
            assert np.all(eig >= -1.0 - 1e-9) and np.all(eig <= 1.0 + 1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: arrays(bool, (n, n))))
    def test_matches_eye_oracle_bit_for_bit(self, cells):
        upper = np.triu(cells, 1)
        graph = cg.NeighborGraph(ids=tuple(range(len(cells))), adj=upper | upper.T)
        got = cg.normalize(graph)
        assert got.dtype == np.float64
        assert got.tobytes() == eye_normalize(graph).tobytes()

    def test_zero_pattern_matches_self_looped_graph(self):
        g = cg.build_graph([(0, 0), (2, 0), (5, 0)], [0, 1, 2])
        norm = cg.normalize(g)
        g_tilde = g.adj + np.eye(3, dtype=bool)
        assert np.array_equal(norm > 0, g_tilde)


class TestFullyConnected:
    def test_single_node_no_edges(self):
        assert cg.fully_connected(1).edges() == []

    def test_four_nodes_six_edges(self):
        assert len(cg.fully_connected(4).edges()) == 6


class TestInfoFlow:
    def chain(self):
        return cg.build_graph([(0, 0), (2, 0), (5, 0)], [0, 1, 2])

    def test_direct_t0(self):
        assert info_direct([self.chain()], 0, 0) == {(0, 0), (1, 0)}

    def test_direct_t1_reaches_second_order(self):
        hist = [self.chain(), self.chain()]
        expected = {(0, 1), (1, 1), (0, 0), (1, 0), (2, 0)}
        assert info_direct(hist, 0, 1) == expected

    def test_fully_connected_saturates(self):
        hist = [cg.fully_connected(4) for _ in range(3)]
        got = info_direct(hist, 2, 2)
        assert got == {(j, k) for j in range(4) for k in range(3)}

    def test_short_history_rejected(self):
        with pytest.raises(DataError):
            info_direct([self.chain()], 0, 1)

    def test_recursive_first_step_parts(self):
        graph = self.chain()
        prev = {i: frozenset() for i in graph.ids}
        out = info_recursive(prev, graph, 0)
        assert out[1].recurrent == frozenset()
        assert out[1].flow == {(0, 0), (1, 0), (2, 0)}
        assert out[1].total == out[1].flow

    def test_missing_previous_set_rejected(self):
        graph = self.chain()
        with pytest.raises(ProtocolError):
            info_recursive({0: frozenset()}, graph, 0)

    def test_isolated_pair_stays_isolated(self):
        # hand-built graph with two components; the union cannot cross them
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        g = cg.NeighborGraph(ids=(0, 1, 2, 3), adj=adj)
        sets = {i: frozenset() for i in g.ids}
        for t in range(4):
            out = info_recursive(sets, g, t)
            sets = {i: p.total for i, p in out.items()}
            assert all(j in (0, 1) for j, _ in sets[0])
            assert all(j in (2, 3) for j, _ in sets[3])

    def test_recursive_equals_direct_on_random_episodes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            history = random_episode(rng)
            sets = {i: frozenset() for i in history[0].ids}
            for t, graph in enumerate(history):
                stepped = info_recursive(
                    {i: sets.get(i, frozenset()) for i in graph.ids}, graph, t)
                sets = {i: parts.total for i, parts in stepped.items()}
                for agent in graph.ids:
                    assert sets[agent] == info_direct(history, agent, t), \
                        f"mismatch at t={t}, agent={agent}"

    def test_monotone_growth_under_static_graph(self):
        graph = self.chain()
        sets = {i: frozenset() for i in graph.ids}
        previous = dict(sets)
        for t in range(5):
            out = info_recursive(sets, graph, t)
            sets = {i: p.total for i, p in out.items()}
            for agent in graph.ids:
                assert previous[agent] <= sets[agent]
            previous = dict(sets)
