"""Gather world: layouts, actions, observations, step phases, determinism."""
import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nviflab import env_gather as eg
from nviflab.errors import ConfigError, ProtocolError


def make_config(**overrides):
    base = dict(task_kind="normal", map_size=12, n_omnivores=4, n_food=4,
                max_steps=40, view_radius=2, seed=0)
    base.update(overrides)
    return eg.TaskConfig(**base)


def world_with(units, map_size=12, **overrides):
    """Empty world rebuilt with hand-placed units [(kind, x, y)]."""
    cfg = make_config(map_size=map_size, n_omnivores=max(
        1, sum(1 for k, _, _ in units if k == eg.OMNIVORE)), **overrides)
    world = eg.new_world(cfg)
    for u in world.units:
        u.alive = False
    world.occupancy[:] = eg.EMPTY
    world.units = []
    n_om = sum(1 for k, _, _ in units if k == eg.OMNIVORE)
    world.config = dataclasses.replace(cfg, n_omnivores=n_om,
                                       n_food=max(1, len(units) - n_om))
    ordered = [u for u in units if u[0] == eg.OMNIVORE] + \
              [u for u in units if u[0] == eg.FOOD]
    for idx, (kind, x, y) in enumerate(ordered):
        hp = cfg.hp_omnivore if kind == eg.OMNIVORE else cfg.hp_food
        world.units.append(eg.Unit(kind, x, y, hp))
        world.occupancy[y, x] = idx
    world._channel_cache = None
    return world


class TestPresets:
    def test_all_table_presets_constructible(self):
        sizes = {"normal-small": (24, 27, 87), "normal-medium": (48, 56, 237),
                 "normal-large": (96, 115, 521), "random-small": (24, 15, 17),
                 "random-medium": (48, 29, 49), "random-large": (96, 49, 161)}
        for name, (ms, n_om, n_food) in sizes.items():
            cfg = eg.preset(name, seed=1)
            assert (cfg.map_size, cfg.n_omnivores, cfg.n_food) == (ms, n_om, n_food)
            world = eg.new_world(cfg)
            assert len([u for u in world.units if u.alive]) == n_om + n_food

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            eg.preset("normal-tiny")

    def test_reward_sign_ordering(self):
        cfg = eg.preset("normal-small")
        assert cfg.r_food > 0 > cfg.p_step
        assert abs(cfg.p_attacked) > abs(cfg.p_blank) > abs(cfg.p_step)


class TestNewWorld:
    def test_normal_small_counts(self):
        world = eg.new_world(eg.preset("normal-small", seed=5))
        assert sum(u.alive for u in world.units) == 114

    def test_normal_layout_seed_independent(self):
        w1 = eg.new_world(eg.preset("normal-small", seed=1))
        w2 = eg.new_world(eg.preset("normal-small", seed=99))
        assert [(u.x, u.y) for u in w1.units] == [(u.x, u.y) for u in w2.units]

    def test_random_small_counts_and_seed_moves_food(self):
        w1 = eg.new_world(eg.preset("random-small", seed=1))
        assert sum(u.alive for u in w1.units) == 32
        w2 = eg.new_world(eg.preset("random-small", seed=2))

        def centroid(w):
            food = [(u.x, u.y) for u in w.units if u.kind == eg.FOOD]
            return np.mean(food, axis=0)

        assert not np.allclose(centroid(w1), centroid(w2))
        om1 = [(u.x, u.y) for u in w1.units if u.kind == eg.OMNIVORE]
        om2 = [(u.x, u.y) for u in w2.units if u.kind == eg.OMNIVORE]
        assert om1 == om2  # omnivore ring fixed across seeds

    def test_capacity_violation(self):
        cfg = make_config(map_size=4, n_omnivores=27)
        with pytest.raises(ConfigError):
            eg.new_world(cfg)

    def test_no_shared_cells(self):
        world = eg.new_world(eg.preset("random-medium", seed=3))
        cells = [(u.x, u.y) for u in world.units if u.alive]
        assert len(cells) == len(set(cells))

    def test_invariants_rejected(self):
        for bad in (dict(map_size=7), dict(hp_food=1), dict(max_steps=0),
                    dict(n_omnivores=0), dict(task_kind="weird")):
            with pytest.raises(ConfigError):
                eg.new_world(make_config(**bad))


class TestActions:
    def test_exactly_33(self):
        assert eg.N_ACTIONS == 33
        decoded = [eg.decode_action(i) for i in range(33)]
        assert len(set(map(str, decoded))) == 33
        assert sum(isinstance(d, eg.Move) for d in decoded) == 28
        assert sum(isinstance(d, eg.Attack) for d in decoded) == 4

    def test_move_set_is_radius_three_ball(self):
        lattice = {(dx, dy) for dy in range(-4, 5) for dx in range(-4, 5)
                   if 0 < dx * dx + dy * dy <= 9}
        assert set(eg.MOVE_OFFSETS) == lattice
        assert list(eg.MOVE_OFFSETS) == sorted(lattice, key=lambda o: (o[1], o[0]))

    def test_attack_order_and_noop(self):
        assert eg.decode_action(28) == eg.Attack(0, -1)  # up
        assert eg.decode_action(29) == eg.Attack(0, 1)
        assert eg.decode_action(30) == eg.Attack(-1, 0)
        assert eg.decode_action(31) == eg.Attack(1, 0)
        assert isinstance(eg.decode_action(32), eg.Noop)

    def test_out_of_range(self):
        for bad in (-1, 33, 100):
            with pytest.raises(ValueError):
                eg.decode_action(bad)


class TestObserve:
    def test_lone_agent_channels(self):
        world = world_with([(eg.OMNIVORE, 5, 7)])
        obs = eg.observe(world, 0)
        assert obs.channels.shape == (7, 5, 5)
        np.testing.assert_array_equal(obs.channels[1:5], 0.0)
        np.testing.assert_allclose(obs.channels[5], 5 / 11)
        np.testing.assert_allclose(obs.channels[6], 7 / 11)
        assert obs.position == (5 / 11, 7 / 11)

    def test_food_at_offset(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        obs = eg.observe(world, 0)
        r = world.config.view_radius
        assert obs.channels[3, r, r + 1] == 1.0
        assert obs.channels[4, r, r + 1] == 1.0  # full hp
        assert obs.channels[3].sum() == 1.0

    def test_corner_out_of_bounds_mask(self):
        world = world_with([(eg.OMNIVORE, 0, 0)])
        obs = eg.observe(world, 0)
        assert obs.channels[0].sum() == 16  # 5x5 window minus the 3x3 inside
        assert obs.channels[0, 0, 0] == 1.0 and obs.channels[0, 2, 2] == 0.0

    def test_presence_and_hp_ranges(self):
        world = eg.new_world(eg.preset("desk-normal-16", seed=2))
        for agent in world.alive_agents():
            obs = eg.observe(world, agent)
            assert set(np.unique(obs.channels[1])) <= {0.0, 1.0}
            assert set(np.unique(obs.channels[3])) <= {0.0, 1.0}
            assert obs.channels[2].min() >= 0.0 and obs.channels[2].max() <= 1.0
            assert obs.channels[4].min() >= 0.0 and obs.channels[4].max() <= 1.0

    def test_dead_agent_rejected(self):
        world = world_with([(eg.OMNIVORE, 1, 1), (eg.OMNIVORE, 3, 1)])
        world.units[1].alive = False
        with pytest.raises(ProtocolError):
            eg.observe(world, 1)


ATTACK_UP, ATTACK_DOWN, ATTACK_LEFT, ATTACK_RIGHT = 28, 29, 30, 31


class TestStep:
    def test_attack_adjacent_food(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        cfg = world.config
        res = eg.step(world, {0: ATTACK_RIGHT})
        assert res.rewards[0] == pytest.approx(cfg.r_food + cfg.p_step)
        assert world.units[1].hp == cfg.hp_food - 1
        assert res.food_remaining == 1

    def test_attack_blank(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
        cfg = world.config
        res = eg.step(world, {0: ATTACK_LEFT})
        assert res.rewards[0] == pytest.approx(cfg.p_blank + cfg.p_step)

    def test_attack_out_of_bounds_counts_blank(self):
        world = world_with([(eg.OMNIVORE, 0, 0), (eg.FOOD, 9, 9)])
        cfg = world.config
        res = eg.step(world, {0: ATTACK_UP})
        assert res.rewards[0] == pytest.approx(cfg.p_blank + cfg.p_step)

    def test_attack_omnivore_penalizes_target(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 9, 9)])
        cfg = world.config
        res = eg.step(world, {0: ATTACK_RIGHT, 1: 32})
        assert res.rewards[0] == pytest.approx(0.0 + cfg.p_step)
        assert res.rewards[1] == pytest.approx(cfg.p_attacked + cfg.p_step)
        assert world.units[1].hp == cfg.hp_omnivore - 1

    def test_death_removes_and_skips_step_penalty(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 9, 9)],
                           hp_omnivore=1)
        cfg = world.config
        res = eg.step(world, {0: ATTACK_RIGHT, 1: 32})
        assert not world.units[1].alive
        assert res.alive == {0: True, 1: False}
        assert res.rewards[1] == pytest.approx(cfg.p_attacked)  # no step penalty once dead
        assert world.occupancy[5, 6] == eg.EMPTY

    def test_simultaneous_attacks_use_prestep_state(self):
        # both agents hit the same 2-hp food; both earn the food reward
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 5), (eg.FOOD, 6, 5)])
        cfg = world.config
        res = eg.step(world, {0: ATTACK_RIGHT, 1: ATTACK_LEFT})
        assert res.rewards[0] == pytest.approx(cfg.r_food + cfg.p_step)
        assert res.rewards[1] == pytest.approx(cfg.r_food + cfg.p_step)
        assert res.food_remaining == 0 and res.done

    def test_move_crosses_obstacle_but_not_onto_it(self):
        # only the target cell matters: a 3-cell hop clears the food line,
        # a 1-cell move onto the food cell is blocked
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        eg.step(world, {0: eg.MOVE_OFFSETS.index((3, 0))})
        assert (world.units[0].x, world.units[0].y) == (8, 5)
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        eg.step(world, {0: eg.MOVE_OFFSETS.index((1, 0))})
        assert (world.units[0].x, world.units[0].y) == (5, 5)


    def test_collision_conserves_occupancy(self):
        for seed in range(6):
            world = world_with([(eg.OMNIVORE, 4, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 0, 0)],
                               seed=seed)
            move_r = eg.MOVE_OFFSETS.index((1, 0))
            move_l = eg.MOVE_OFFSETS.index((-1, 0))
            eg.step(world, {0: move_r, 1: move_l})
            positions = {(u.x, u.y) for u in world.units if u.alive}
            assert len(positions) == 3
            moved = [world.units[i] for i in (0, 1) if (world.units[i].x,
                                                        world.units[i].y) != [(4, 5), (6, 5)][i]]
            assert len(moved) == 1  # exactly one agent won the contested cell

    def test_out_of_bounds_move_stays(self):
        world = world_with([(eg.OMNIVORE, 0, 0), (eg.FOOD, 9, 9)])
        move_up = eg.MOVE_OFFSETS.index((0, -3))
        eg.step(world, {0: move_up})
        assert (world.units[0].x, world.units[0].y) == (0, 0)

    def test_protocol_errors(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 7), (eg.FOOD, 9, 9)])
        with pytest.raises(ProtocolError):
            eg.step(world, {0: 32})  # missing action
        with pytest.raises(ProtocolError):
            eg.step(world, {0: 32, 1: 32, 7: 32})  # unknown agent

    def test_truncated_only_at_cap_with_food_left(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)], max_steps=2)
        eg.step(world, {0: 32})
        assert not world.done and not world.truncated
        eg.step(world, {0: 32})
        assert world.done and world.truncated
        # eating the last food at the cap terminates the task: not a cut-off
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 5), (eg.FOOD, 6, 5)],
                           max_steps=1)
        eg.step(world, {0: ATTACK_RIGHT, 1: ATTACK_LEFT})
        assert world.done and not world.truncated

    def test_done_at_cap(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)], max_steps=3)
        for t in range(3):
            res = eg.step(world, {0: 32})
        assert res.done and world.t == 3
        with pytest.raises(ProtocolError):
            eg.step(world, {0: 32})


class TestProperties:
    def _random_rollout(self, seed, record=None):
        cfg = eg.preset("desk-random-12", seed=seed)
        world = eg.new_world(cfg)
        rng = np.random.default_rng(seed + 1000)
        stream = []
        while not world.done:
            ids = world.alive_agents()
            if not ids:
                break
            actions = {i: int(a) for i, a in zip(ids, rng.integers(0, 33, len(ids)))}
            res = eg.step(world, actions)
            stream.append((actions, res))
            if record is not None:
                record.append((world, actions, res))
        return cfg, world, stream

    def test_unit_conservation(self):
        for seed in range(5):
            cfg, world, stream = self._random_rollout(seed)
            om_alive = cfg.n_omnivores
            food_alive = cfg.n_food
            for _, res in stream:
                now_om = sum(1 for i, ok in res.alive.items() if ok)
                assert now_om <= om_alive
                om_alive = now_om
                assert res.food_remaining <= food_alive
                food_alive = res.food_remaining

    def test_reward_decomposition_from_events(self):
        for seed in range(8):
            cfg, world, stream = self._random_rollout(seed)
            for actions, res in stream:
                expected = {i: 0.0 for i in res.rewards}
                for kind, agent, target in res.events:
                    if kind == "blank":
                        expected[agent] += cfg.p_blank
                    elif kind == "food_hit":
                        expected[agent] += cfg.r_food
                    else:
                        expected[target] += cfg.p_attacked
                for i, ok in res.alive.items():
                    if ok:
                        expected[i] += cfg.p_step
                for i in res.rewards:
                    assert res.rewards[i] == pytest.approx(expected[i], abs=1e-12)

    def test_bit_identical_determinism(self):
        def run(seed):
            cfg = eg.preset("desk-random-12", seed=seed)
            world = eg.new_world(cfg)
            rng = np.random.default_rng(99)
            trace = []
            while not world.done:
                ids = world.alive_agents()
                actions = {i: int(a) for i, a in zip(ids, rng.integers(0, 33, len(ids)))}
                res = eg.step(world, actions)
                trace.append((tuple(sorted(res.rewards.items())),
                              tuple(sorted(res.alive.items())), res.food_remaining))
            return trace

        assert run(4) == run(4)

    def test_episode_cap_respected(self):
        for name in ("normal-small", "random-small"):
            cfg = eg.preset(name, seed=0)
            world = eg.new_world(cfg)
            rng = np.random.default_rng(0)
            steps = 0
            while not world.done:
                ids = world.alive_agents()
                eg.step(world, {i: int(a) for i, a in zip(ids, rng.integers(0, 33, len(ids)))})
                steps += 1
            assert steps <= 100

    def test_additive_team_reward(self):
        # the team reward is the plain sum of agent rewards, weights all one
        _, _, stream = self._random_rollout(3)
        for _, res in stream:
            team = sum(res.rewards.values())
            assert team == pytest.approx(sum(1.0 * r for r in res.rewards.values()))


@st.composite
def crowded_configs(draw):
    """Small maps with half to all of the border ring filled with low-hp
    omnivores, so attacks, deaths, hits on an already dying unit and blocked
    moves all happen within a few steps."""
    map_size = draw(st.integers(8, 12))
    ring = 4 * (map_size - 1)
    return make_config(
        task_kind=draw(st.sampled_from(["normal", "random"])), map_size=map_size,
        n_omnivores=draw(st.integers(ring // 2, ring)),
        n_food=draw(st.integers(1, 9)), max_steps=draw(st.integers(1, 12)),
        hp_omnivore=draw(st.integers(1, 2)), hp_food=draw(st.integers(2, 3)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))


def _assert_world_invariants(world):
    alive = [(i, u) for i, u in enumerate(world.units) if u.alive]
    # the occupancy grid holds exactly the alive units, each at its cell
    assert np.count_nonzero(world.occupancy != eg.EMPTY) == len(alive)
    assert all(world.occupancy[u.y, u.x] == i for i, u in alive)
    # at most one unit per cell
    assert len({(u.x, u.y) for _, u in alive}) == len(alive)
    # hp never negative; a unit is dead exactly when its hp is 0
    assert all(u.hp >= 0 and u.alive == (u.hp > 0) for u in world.units)


class TestWorldInvariants:
    @given(cfg=crowded_configs(), action_seed=st.integers(0, 2 ** 32 - 1),
           attack_frac=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_invariants_and_action_order_independence(self, cfg, action_seed, attack_frac):
        world = eg.new_world(cfg)
        rng = np.random.default_rng(action_seed)
        _assert_world_invariants(world)
        while not world.done:
            ids = world.alive_agents()
            if not ids:
                break
            attack = rng.random(len(ids)) < attack_frac
            actions = {i: int(rng.integers(28, 32) if a else rng.integers(0, eg.N_ACTIONS))
                       for i, a in zip(ids, attack)}
            # the same actions inserted in another order give the same step
            shuffled = {ids[k]: actions[ids[k]] for k in rng.permutation(len(ids))}
            twin = copy.deepcopy(world)
            res = eg.step(world, actions)
            assert eg.step(twin, shuffled) == res
            assert twin.units == world.units
            np.testing.assert_array_equal(twin.occupancy, world.occupancy)
            _assert_world_invariants(world)


class TestReplay:
    def test_roundtrip_and_metrics(self, tmp_path):
        cfg = eg.preset("desk-normal-12", seed=2)
        world = eg.new_world(cfg)
        path = tmp_path / "replay.jsonl"
        writer = eg.ReplayWriter(path)
        writer.start_episode(world)
        rng = np.random.default_rng(1)
        total = 0.0
        while not world.done:
            ids = world.alive_agents()
            actions = {i: int(a) for i, a in zip(ids, rng.integers(0, 33, len(ids)))}
            res = eg.step(world, actions)
            writer.write_step(world, actions, res, edges=[(0, 1)])
            total += sum(res.rewards.values())
        writer.close()
        episodes = eg.read_replay(path)
        assert len(episodes) == 1
        header, records = episodes[0]
        metrics = eg.episode_metrics(header, records)
        assert metrics["return"] == pytest.approx(total)
        assert metrics["end_steps"] == world.t
        assert records[0]["edges"] == [[0, 1]]
        json.dumps(records[0])  # records stay JSON-serializable
