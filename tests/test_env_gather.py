"""Gather world: layouts, actions, observations, step phases, determinism."""
import copy
import dataclasses
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nviflab import env_gather as eg
from nviflab.env_gather.world import _channel_grids, place_units
from nviflab.errors import ConfigError, DataError, ProtocolError

from conftest import (
    action_array,
    by_agent,
    dict_step,
    episode_metrics,
    read_replay,
    refresh_grids,
)


def make_config(**overrides):
    base = dict(task_kind="normal", map_size=12, n_omnivores=4, n_food=4,
                max_steps=40, view_radius=2, seed=0)
    base.update(overrides)
    return eg.TaskConfig(**base)


def world_with(units, map_size=12, **overrides):
    """Empty world rebuilt with hand-placed units [(kind, x, y)]."""
    cfg = make_config(map_size=map_size, n_omnivores=max(
        1, sum(1 for k, _, _ in units if k == eg.OMNIVORE)), **overrides)
    n_om = sum(1 for k, _, _ in units if k == eg.OMNIVORE)
    placed = dataclasses.replace(cfg, n_omnivores=n_om, n_food=max(1, len(units) - n_om))
    ordered = [u for u in units if u[0] == eg.OMNIVORE] + \
              [u for u in units if u[0] == eg.FOOD]
    return place_units(placed, [(x, y) for _, x, y in ordered], np.random.default_rng(cfg.seed))


def observe_one(world, agent_id):
    """Oracle: one agent's (7, w, w) window, sliced from the padded grids."""
    cfg = world.config
    ms, r, w = cfg.map_size, cfg.view_radius, cfg.window
    grids = np.zeros((5, ms, ms), dtype=np.float32)
    for u in world.units:
        if not u.alive:
            continue
        if u.kind == eg.OMNIVORE:
            grids[1, u.y, u.x] = 1.0
            grids[2, u.y, u.x] = u.hp / cfg.hp_omnivore
        else:
            grids[3, u.y, u.x] = 1.0
            grids[4, u.y, u.x] = u.hp / cfg.hp_food
    padded = np.zeros((5, ms + 2 * r, ms + 2 * r), dtype=np.float32)
    padded[0] = 1.0
    padded[:, r:r + ms, r:r + ms] = grids
    padded[0, r:r + ms, r:r + ms] = 0.0
    unit = world.units[agent_id]
    window = padded[:, unit.y:unit.y + w, unit.x:unit.x + w].copy()
    window[1, r, r] = 0.0
    window[2, r, r] = 0.0
    channels = np.empty((7, w, w), dtype=np.float32)
    channels[:5] = window
    channels[5] = unit.x / (ms - 1)
    channels[6] = unit.y / (ms - 1)
    return channels


def windows(world, ids):
    """observe()'s rows for ``ids`` as (len(ids), 7, w, w) channels."""
    raw = eg.observe(world, ids)
    w = world.config.window
    assert raw.shape == (len(ids), 7 * w * w) and raw.dtype == np.float32
    return raw.reshape(len(ids), 7, w, w)


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

    def test_placed_units_on_distinct_map_cells(self):
        cfg = make_config(n_omnivores=1, n_food=1)
        for pos in ([(1, 1), (1, 1)], [(1, 1), (12, 3)], [(-1, 0), (2, 2)]):
            with pytest.raises(ConfigError):
                place_units(cfg, pos, np.random.default_rng(0))

    def test_no_shared_cells(self):
        world = eg.new_world(eg.preset("random-medium", seed=3))
        cells = [(u.x, u.y) for u in world.units if u.alive]
        assert len(cells) == len(set(cells))

    def test_hp_beyond_uint8_rejected(self):
        # pre-training stores hp counts as uint8 codes
        assert eg.new_world(make_config(hp_omnivore=255, hp_food=255)).units[0].hp == 255
        for bad in (dict(hp_omnivore=256), dict(hp_food=256)):
            with pytest.raises(ConfigError, match="255"):
                eg.new_world(make_config(**bad))

    def test_invariants_rejected(self):
        for bad in (dict(map_size=7), dict(hp_food=1), dict(max_steps=0),
                    dict(n_omnivores=0), dict(task_kind="weird")):
            with pytest.raises(ConfigError):
                eg.new_world(make_config(**bad))


class TestActions:
    def test_exactly_33(self):
        assert eg.N_ACTIONS == 33
        table = eg.ACTION_TABLE
        assert table.shape == (33, 3)
        assert len(set(map(tuple, table.tolist()))) == 33
        assert np.count_nonzero(table[:, 2] == eg.KIND_MOVE) == 28
        assert np.count_nonzero(table[:, 2] == eg.KIND_ATTACK) == 4

    def test_move_set_is_radius_three_ball(self):
        lattice = {(dx, dy) for dy in range(-4, 5) for dx in range(-4, 5)
                   if 0 < dx * dx + dy * dy <= 9}
        assert set(eg.MOVE_OFFSETS) == lattice
        assert list(eg.MOVE_OFFSETS) == sorted(lattice, key=lambda o: (o[1], o[0]))
        assert eg.ACTION_TABLE[:28, :2].tolist() == [list(o) for o in eg.MOVE_OFFSETS]

    def test_attack_order_and_noop(self):
        table = eg.ACTION_TABLE.tolist()
        assert table[28] == [0, -1, eg.KIND_ATTACK]  # up
        assert table[29] == [0, 1, eg.KIND_ATTACK]
        assert table[30] == [-1, 0, eg.KIND_ATTACK]
        assert table[31] == [1, 0, eg.KIND_ATTACK]
        assert table[32][2] == eg.KIND_NOOP and eg.NOOP_INDEX == 32

    def test_out_of_range(self):
        for bad in (-1, 33, 100):
            world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
            with pytest.raises(ValueError, match="action index"):
                eg.step(world, np.array([bad]))
            assert world.t == 0
        # one bad index among good ones, in the narrow dtypes too
        for bad in (np.array([0, 33], dtype=np.uint8), np.array([-1, 0], dtype=np.int8),
                    np.array([32, 100], dtype=np.int32)):
            world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 7), (eg.FOOD, 9, 9)])
            with pytest.raises(ValueError, match="action index"):
                eg.step(world, bad)
            assert world.t == 0

    def test_non_integer_rejected(self):
        # bools are ints to Python, but no action index
        for bad in (True, False, np.bool_(True), 2.5, "3", np.float64(3.0), None):
            world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
            with pytest.raises(ValueError, match="action index"):
                eg.step(world, np.array([bad]))
            assert world.t == 0
        want = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
        want_res = eg.step(want, np.array([3]))
        for dtype in (np.int8, np.int32, np.int64, np.uint8):
            world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
            res = eg.step(world, np.array([3], dtype=dtype))
            assert by_agent(res) == by_agent(want_res)
            assert world.pos.tolist() == want.pos.tolist()


class TestObserve:
    def test_lone_agent_channels(self):
        world = world_with([(eg.OMNIVORE, 5, 7)])
        channels = windows(world, [0])[0]
        assert channels.shape == (7, 5, 5)
        np.testing.assert_array_equal(channels[1:5], 0.0)
        np.testing.assert_allclose(channels[5], 5 / 11)
        np.testing.assert_allclose(channels[6], 7 / 11)
        assert (channels[5, 0, 0], channels[6, 0, 0]) == (np.float32(5 / 11), np.float32(7 / 11))

    def test_food_at_offset(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        channels = windows(world, [0])[0]
        r = world.config.view_radius
        assert channels[3, r, r + 1] == 1.0
        assert channels[4, r, r + 1] == 1.0  # full hp
        assert channels[3].sum() == 1.0

    def test_corner_out_of_bounds_mask(self):
        world = world_with([(eg.OMNIVORE, 0, 0)])
        channels = windows(world, [0])[0]
        assert channels[0].sum() == 16  # 5x5 window minus the 3x3 inside
        assert channels[0, 0, 0] == 1.0 and channels[0, 2, 2] == 0.0

    def test_presence_and_hp_ranges(self):
        world = eg.new_world(eg.preset("desk-normal-16", seed=2))
        for channels in windows(world, world.alive_agents()):
            assert set(np.unique(channels[1])) <= {0.0, 1.0}
            assert set(np.unique(channels[3])) <= {0.0, 1.0}
            assert channels[2].min() >= 0.0 and channels[2].max() <= 1.0
            assert channels[4].min() >= 0.0 and channels[4].max() <= 1.0

    @pytest.mark.parametrize("bad", [-1, 2, 1], ids=["negative", "n_agents", "dead"])
    def test_dead_agent_rejected(self, bad):
        # ids -1 and 2 (= n_agents) both index the alive food unit
        world = world_with([(eg.OMNIVORE, 1, 1), (eg.OMNIVORE, 3, 1), (eg.FOOD, 6, 6)])
        world.alive[1] = False
        with pytest.raises(ProtocolError):
            eg.observe(world, [bad])
        with pytest.raises(ProtocolError):
            eg.observe(world, [0, bad])


@st.composite
def observed_worlds(draw):
    """Hand-placed worlds whose units crowd the borders and corners, every
    unit at a drawn hp, some omnivores dead; plus a drawn order of the alive
    agents to observe."""
    map_size = draw(st.integers(8, 14))
    coord = st.one_of(st.sampled_from([0, 1, map_size - 2, map_size - 1]),
                      st.integers(0, map_size - 1))
    cells = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=16, unique=True))
    n_om = draw(st.integers(1, len(cells) - 1))
    world = world_with([(eg.OMNIVORE, x, y) for x, y in cells[:n_om]]
                       + [(eg.FOOD, x, y) for x, y in cells[n_om:]],
                       map_size=map_size, view_radius=draw(st.integers(1, 4)),
                       hp_omnivore=draw(st.integers(1, 255)), hp_food=draw(st.integers(2, 255)))
    cfg = world.config
    for i in range(len(world.hp)):
        world.hp[i] = draw(st.integers(1, cfg.hp_omnivore if i < n_om else cfg.hp_food))
    for i in draw(st.sets(st.sampled_from(range(n_om)), max_size=n_om - 1)):
        world.alive[i], world.hp[i] = False, 0
        world.occupancy[world.pos[i, 1], world.pos[i, 0]] = eg.EMPTY
    refresh_grids(world)
    ids = draw(st.permutations(world.alive_agents()))
    return world, ids


@st.composite
def edge_worlds(draw):
    """Worlds with an omnivore in each map corner and on each edge, over
    small maps, the paper's 96-wide map and a large one, so that the windows
    cover every side of the wall; food at drawn cells, crowding the borders,
    and every unit at a drawn hp."""
    map_size = draw(st.one_of(st.integers(8, 16), st.sampled_from([96, 1000])))
    last = map_size - 1
    along = st.integers(1, last - 1)
    edges = [(0, 0), (last, 0), (0, last), (last, last),
             (draw(along), 0), (draw(along), last), (0, draw(along)), (last, draw(along))]
    coord = st.one_of(st.sampled_from([0, 1, last - 1, last]), st.integers(0, last))
    food = [c for c in draw(st.lists(st.tuples(coord, coord), max_size=8, unique=True))
            if c not in edges] or [(1, 1)]
    world = world_with([(eg.OMNIVORE, x, y) for x, y in edges]
                       + [(eg.FOOD, x, y) for x, y in food],
                       map_size=map_size, view_radius=draw(st.integers(1, 6)),
                       hp_omnivore=draw(st.integers(1, 255)), hp_food=draw(st.integers(2, 255)))
    cfg = world.config
    for i in range(len(world.hp)):
        world.hp[i] = draw(st.integers(1, cfg.hp_omnivore if i < len(edges) else cfg.hp_food))
    refresh_grids(world)
    return world, draw(st.permutations(world.alive_agents()))


class TestBatchedObserve:
    @given(case=observed_worlds())
    @settings(max_examples=80, deadline=None)
    def test_equals_stacked_per_agent_windows(self, case):
        world, ids = case
        expected = np.stack([observe_one(world, i).ravel() for i in ids])
        assert np.array_equal(eg.observe(world, ids), expected)

    def test_one_observe_per_env_step(self, monkeypatch, tiny_task):
        # the rollout and buffer loops observe once a step; the obs-VAE
        # corpus only gathers window codes
        pipeline = importlib.import_module("nviflab.harness.pipeline")
        pretrain = importlib.import_module("nviflab.nvif.pretrain")
        providers = importlib.import_module("nviflab.policy.providers")

        class Compressor:
            def encode(self, raw):
                return np.zeros((len(raw), 4), dtype=np.float32)

        calls = []

        def spy(name):
            def call(*args):
                calls.append(name)
                return getattr(eg, name)(*args)
            return call

        for module in (pipeline, pretrain, providers):
            for name in ("observe", "window_codes", "step"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(name))
        world = eg.new_world(tiny_task)
        providers.featurize(world, world.alive_agents(), Compressor(), providers.EmptyLatents())
        assert calls == ["observe"]
        calls.clear()
        pretrain.gather_step_data(world, world.alive_agents(), Compressor())
        assert sorted(calls) == ["observe", "window_codes"]
        calls.clear()
        pipeline.collect_obs_corpus(tiny_task, 2, np.random.default_rng(0))
        assert calls == ["window_codes", "step"] * (len(calls) // 2) and calls
        calls.clear()
        pretrain.collect_pretrain_buffer(tiny_task, 2, Compressor(), np.random.default_rng(0))
        steps = calls.count("step")
        assert steps and calls.count("observe") == calls.count("window_codes") == steps
        assert calls[2::3] == ["step"] * steps


class TestWindowCodec:
    @given(case=observed_worlds())
    @settings(max_examples=80, deadline=None)
    def test_decoded_codes_equal_observe(self, case):
        world, ids = case
        cfg = world.config
        windows = eg.observe(world, ids)
        codes = eg.window_codes(world, ids)
        assert codes.dtype == np.uint8 and codes.shape == (len(ids), 2 * cfg.window ** 2)
        positions = (world.agent_positions(ids) / (cfg.map_size - 1)).astype(np.float32)
        decoded = eg.decode_windows(codes, positions, cfg)
        assert decoded.dtype == np.float32
        assert np.array_equal(decoded, windows)
        out = np.full((len(ids) + 2, cfg.obs_dim), np.nan, dtype=np.float32)
        eg.decode_windows(codes, positions, cfg, out=out[:len(ids)])
        assert np.array_equal(out[:len(ids)], windows) and np.isnan(out[len(ids):]).all()

    @given(case=edge_worlds())
    @settings(max_examples=40, deadline=None)
    def test_wall_channel_rebuilt_at_every_edge_and_corner(self, case):
        world, ids = case
        cfg, n = world.config, len(ids)
        positions = (world.agent_positions(ids) / (cfg.map_size - 1)).astype(np.float32)
        decoded = eg.decode_windows(eg.window_codes(world, ids), positions, cfg)
        assert np.array_equal(decoded, eg.observe(world, ids))
        assert decoded.reshape(n, 7, -1)[:, 0].any(axis=1).all()  # every window sees the wall

    def test_cell_rounded_from_the_normalized_position(self):
        # float32(7 / 23) * 23 falls just below 7, so a truncated cell would
        # read the wall window of (6, 6), which a radius of 8 tells apart
        world = world_with([(eg.OMNIVORE, 7, 7), (eg.OMNIVORE, 0, 0), (eg.FOOD, 12, 12)],
                           map_size=24, view_radius=8)
        ids = world.alive_agents()
        cfg = world.config
        positions = (world.agent_positions(ids) / (cfg.map_size - 1)).astype(np.float32)
        assert int(positions[0, 0] * (cfg.map_size - 1)) == 6
        decoded = eg.decode_windows(eg.window_codes(world, ids), positions, cfg)
        assert np.array_equal(decoded, eg.observe(world, ids))

    def test_misfit_codes_positions_or_out_rejected(self):
        cfg = make_config()
        world = eg.new_world(cfg)
        ids = world.alive_agents()
        n, cells = len(ids), cfg.window ** 2
        codes = eg.window_codes(world, ids)
        positions = (world.agent_positions(ids) / (cfg.map_size - 1)).astype(np.float32)
        # the five-channel layout, an even window, a width of no window, one row
        for bad in (np.zeros((n, 5 * cells), np.uint8), np.zeros((n, 2 * 16), np.uint8),
                    np.zeros((n, 2 * cells + 1), np.uint8), codes[0]):
            with pytest.raises(DataError, match="codes"):
                eg.decode_windows(bad, positions, cfg)
        for out in (np.empty((n, cfg.obs_dim), np.float64),
                    np.empty((n + 1, cfg.obs_dim), np.float32),
                    np.empty((n, 2 * cfg.obs_dim), np.float32)[:, ::2]):
            with pytest.raises(DataError, match="out"):
                eg.decode_windows(codes, positions, cfg, out=out)
        for value in (1.5, -0.5):
            off_map = positions.copy()
            off_map[0, 0] = value
            with pytest.raises(DataError, match="positions"):
                eg.decode_windows(codes, off_map, cfg)
        with pytest.raises(DataError, match="positions"):
            eg.decode_windows(codes, positions[1:], cfg)

    def test_window_codes_reject_dead_or_foreign_ids(self):
        world = world_with([(eg.OMNIVORE, 1, 1), (eg.OMNIVORE, 3, 1), (eg.FOOD, 6, 6)])
        world.alive[1] = False
        for bad in ([1], [0, 2], [-1]):
            with pytest.raises(ProtocolError):
                eg.window_codes(world, bad)

    def test_float32_division_is_the_observed_value_for_every_hp(self):
        # decode divides in float32; observe rounds the float64 quotient
        k = np.arange(256)
        for hp in range(1, 256):
            assert np.array_equal(k.astype(np.float32) / np.float32(hp),
                                  (k / hp).astype(np.float32)), hp


@st.composite
def stepped_worlds(draw):
    """A preset's fresh world or an edge layout, and a seed for the random
    actions that step it."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(["desk-normal-12", "desk-random-12", "desk-random-16",
                                     "random-small"]))
        world = eg.new_world(eg.preset(name, seed=draw(st.integers(0, 2 ** 16))))
    else:
        world, _ = draw(edge_worlds())
    return world, draw(st.integers(0, 2 ** 32 - 1))


class TestWindowPlanes:
    @given(case=stepped_worlds(), steps=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_planes_and_windows_agree_after_every_step(self, case, steps):
        # the planes step() keeps are the rebuilt ones; observe() is the
        # per-agent oracle and the decode of the window codes
        world, seed = case
        cfg = world.config
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            if world.done:
                break
            eg.step(world, rng.integers(0, eg.N_ACTIONS, len(world.alive_agents())))
            assert world.grids.dtype == np.uint8
            assert np.array_equal(world.grids,
                                  _channel_grids(cfg, world.pos, world.hp, world.alive))
            ids = world.alive_agents()
            if not ids:
                break
            windows = eg.observe(world, ids)
            assert np.array_equal(windows, np.stack([observe_one(world, i).ravel()
                                                     for i in ids]))
            positions = (world.agent_positions(ids) / (cfg.map_size - 1)).astype(np.float32)
            assert np.array_equal(
                eg.decode_windows(eg.window_codes(world, ids), positions, cfg), windows)


ATTACK_UP, ATTACK_DOWN, ATTACK_LEFT, ATTACK_RIGHT = 28, 29, 30, 31


class TestStep:
    def test_attack_adjacent_food(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        cfg = world.config
        res = eg.step(world, np.array([ATTACK_RIGHT]))
        assert res.rewards[0] == pytest.approx(cfg.r_food + cfg.p_step)
        assert world.units[1].hp == cfg.hp_food - 1
        assert res.food_remaining == 1

    def test_attack_blank(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
        cfg = world.config
        res = eg.step(world, np.array([ATTACK_LEFT]))
        assert res.rewards[0] == pytest.approx(cfg.p_blank + cfg.p_step)

    def test_attack_out_of_bounds_counts_blank(self):
        world = world_with([(eg.OMNIVORE, 0, 0), (eg.FOOD, 9, 9)])
        cfg = world.config
        res = eg.step(world, np.array([ATTACK_UP]))
        assert res.rewards[0] == pytest.approx(cfg.p_blank + cfg.p_step)

    def test_attack_omnivore_penalizes_target(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 9, 9)])
        cfg = world.config
        res = eg.step(world, np.array([ATTACK_RIGHT, 32]))
        assert res.rewards[0] == pytest.approx(0.0 + cfg.p_step)
        assert res.rewards[1] == pytest.approx(cfg.p_attacked + cfg.p_step)
        assert world.units[1].hp == cfg.hp_omnivore - 1

    def test_death_removes_and_skips_step_penalty(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 9, 9)],
                           hp_omnivore=1)
        cfg = world.config
        res = eg.step(world, np.array([ATTACK_RIGHT, 32]))
        assert not world.units[1].alive
        assert by_agent(res)[1] == {0: True, 1: False}
        assert res.rewards[1] == pytest.approx(cfg.p_attacked)  # no step penalty once dead
        assert world.occupancy[5, 6] == eg.EMPTY

    def test_simultaneous_attacks_use_prestep_state(self):
        # both agents hit the same 2-hp food; both earn the food reward
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 5), (eg.FOOD, 6, 5)])
        cfg = world.config
        res = eg.step(world, np.array([ATTACK_RIGHT, ATTACK_LEFT]))
        assert res.rewards[0] == pytest.approx(cfg.r_food + cfg.p_step)
        assert res.rewards[1] == pytest.approx(cfg.r_food + cfg.p_step)
        assert res.food_remaining == 0 and res.done

    def test_move_crosses_obstacle_but_not_onto_it(self):
        # only the target cell matters: a 3-cell hop clears the food line,
        # a 1-cell move onto the food cell is blocked
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        eg.step(world, np.array([eg.MOVE_OFFSETS.index((3, 0))]))
        assert (world.units[0].x, world.units[0].y) == (8, 5)
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 6, 5)])
        eg.step(world, np.array([eg.MOVE_OFFSETS.index((1, 0))]))
        assert (world.units[0].x, world.units[0].y) == (5, 5)


    def test_collision_conserves_occupancy(self):
        for seed in range(6):
            world = world_with([(eg.OMNIVORE, 4, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 0, 0)],
                               seed=seed)
            move_r = eg.MOVE_OFFSETS.index((1, 0))
            move_l = eg.MOVE_OFFSETS.index((-1, 0))
            eg.step(world, np.array([move_r, move_l]))
            positions = {(u.x, u.y) for u in world.units if u.alive}
            assert len(positions) == 3
            moved = [world.units[i] for i in (0, 1) if (world.units[i].x,
                                                        world.units[i].y) != [(4, 5), (6, 5)][i]]
            assert len(moved) == 1  # exactly one agent won the contested cell

    def test_move_into_a_cell_vacated_this_step(self):
        # B moves into the cell A leaves: blocked exactly when B moves first
        move_r = eg.MOVE_OFFSETS.index((1, 0))
        seen = set()
        for seed in range(20):
            world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 4, 5), (eg.FOOD, 0, 0)],
                               seed=seed)
            b_first = copy.deepcopy(world.rng).permutation(2)[0] == 1
            seen.add(b_first)
            eg.step(world, np.array([move_r, move_r]))
            assert world.pos[:2].tolist() == [[6, 5], [4, 5] if b_first else [5, 5]]
            _assert_world_invariants(world)
        assert seen == {True, False}

    def test_non_integer_action_rejected(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)])
        for bad in (True, 2.5, np.float64(3.0)):
            with pytest.raises(ValueError, match="action index"):
                eg.step(world, np.array([bad]))
        assert world.t == 0 and world.pos[0].tolist() == [5, 5]

    def test_out_of_bounds_move_stays(self):
        world = world_with([(eg.OMNIVORE, 0, 0), (eg.FOOD, 9, 9)])
        move_up = eg.MOVE_OFFSETS.index((0, -3))
        eg.step(world, np.array([move_up]))
        assert (world.units[0].x, world.units[0].y) == (0, 0)

    def test_results_compare_without_raising(self):
        # array fields have no single truth value, so results compare by identity
        results = []
        for _ in range(2):
            world = eg.new_world(eg.preset("desk-random-12", seed=0))
            results.append(eg.step(world, np.full(len(world.alive_agents()), eg.NOOP_INDEX)))
        r1, r2 = results
        assert len(r1.ids) > 1
        assert r1 == r1 and not r1 == r2 and r1 != r2

    def test_protocol_errors(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 7), (eg.FOOD, 9, 9)])
        with pytest.raises(ProtocolError):
            eg.step(world, np.array([32]))  # missing action
        with pytest.raises(ProtocolError):
            eg.step(world, np.array([32, 32, 32]))  # an action for no alive agent
        for bad in (np.array([[32, 32]]), np.array([[32], [32]]), np.int64(32),
                    np.array([], dtype=np.int64)):
            with pytest.raises(ProtocolError):
                eg.step(world, bad)  # not a 1-D array of one action per alive agent
        with pytest.raises(ProtocolError):
            eg.step(world, {0: 32, 1: 32})  # a dict is no action array
        assert world.t == 0

    def test_truncated_only_at_cap_with_food_left(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)], max_steps=2)
        eg.step(world, np.array([32]))
        assert not world.done and not world.truncated
        eg.step(world, np.array([32]))
        assert world.done and world.truncated
        # eating the last food at the cap terminates the task: not a cut-off
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 7, 5), (eg.FOOD, 6, 5)],
                           max_steps=1)
        eg.step(world, np.array([ATTACK_RIGHT, ATTACK_LEFT]))
        assert world.done and not world.truncated
        # a wipeout at the cap leaves no survivor to bootstrap: not a cut-off
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 9, 9)],
                           hp_omnivore=1, max_steps=1)
        eg.step(world, np.array([ATTACK_RIGHT, ATTACK_LEFT]))
        assert world.alive_agents() == [] and world.food_remaining() == 1
        assert world.done and not world.truncated

    def test_wipeout_is_done(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.OMNIVORE, 6, 5), (eg.FOOD, 9, 9)],
                           hp_omnivore=1)
        res = eg.step(world, np.array([ATTACK_RIGHT, ATTACK_LEFT]))
        assert world.alive_agents() == [] and world.food_remaining() == 1
        assert res.done and world.done and not world.truncated
        with pytest.raises(ProtocolError):
            eg.step(world, np.array([], dtype=np.int64))

    def test_done_at_cap(self):
        world = world_with([(eg.OMNIVORE, 5, 5), (eg.FOOD, 9, 9)], max_steps=3)
        for t in range(3):
            res = eg.step(world, np.array([32]))
        assert res.done and world.t == 3
        with pytest.raises(ProtocolError):
            eg.step(world, np.array([32]))


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
            actions = rng.integers(0, 33, len(ids))
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
                now_om = sum(1 for i, ok in by_agent(res)[1].items() if ok)
                assert now_om <= om_alive
                om_alive = now_om
                assert res.food_remaining <= food_alive
                food_alive = res.food_remaining

    def test_reward_decomposition_from_events(self):
        for seed in range(8):
            cfg, world, stream = self._random_rollout(seed)
            for actions, res in stream:
                rewards, alive = by_agent(res)
                expected = {i: 0.0 for i in rewards}
                for kind, agent, target in res.events:
                    if kind == "blank":
                        expected[agent] += cfg.p_blank
                    elif kind == "food_hit":
                        expected[agent] += cfg.r_food
                    else:
                        expected[target] += cfg.p_attacked
                for i, ok in alive.items():
                    if ok:
                        expected[i] += cfg.p_step
                for i in rewards:
                    assert rewards[i] == pytest.approx(expected[i], abs=1e-12)

    def test_bit_identical_determinism(self):
        def run(seed):
            cfg = eg.preset("desk-random-12", seed=seed)
            world = eg.new_world(cfg)
            rng = np.random.default_rng(99)
            trace = []
            while not world.done:
                ids = world.alive_agents()
                res = eg.step(world, rng.integers(0, 33, len(ids)))
                rewards, alive = by_agent(res)
                trace.append((tuple(sorted(rewards.items())),
                              tuple(sorted(alive.items())), res.food_remaining))
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
                eg.step(world, rng.integers(0, 33, len(ids)))
                steps += 1
            assert steps <= 100

    def test_additive_team_reward(self):
        # the team reward is the plain sum of agent rewards, weights all one
        _, _, stream = self._random_rollout(3)
        for _, res in stream:
            rewards = by_agent(res)[0]
            team = sum(rewards.values())
            assert team == pytest.approx(sum(1.0 * r for r in rewards.values()))


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
    # the grids that step() keeps equal a rebuild from the unit arrays
    assert np.array_equal(world.grids,
                          _channel_grids(world.config, world.pos, world.hp, world.alive))


def assert_same_step(res, want):
    """An array step result agrees with a :func:`dict_step` result on each
    agent's reward and alive flag, the events and the episode flags."""
    assert by_agent(res) == (want.rewards, want.alive)
    assert list(want.rewards) == res.ids.tolist()  # the oracle's keys, in the ids' order
    assert res.rewards.dtype == np.float64 and res.alive.dtype == bool
    assert (res.events, res.done, res.food_remaining) == (want.events, want.done,
                                                          want.food_remaining)


class TestArrayStepOracle:
    @given(cfg=crowded_configs(), action_seed=st.integers(0, 2 ** 32 - 1),
           attack_frac=st.floats(0.0, 1.0),
           dtype=st.sampled_from([np.int8, np.int32, np.int64, np.uint8]))
    @settings(max_examples=60, deadline=None)
    def test_array_step_equals_dict_step(self, cfg, action_seed, attack_frac, dtype):
        # both worlds roll the same episode, one through the array step and
        # one through the dict oracle; after every step they agree on the
        # result and on every world array, and have drawn the same numbers
        world = eg.new_world(cfg)
        twin = copy.deepcopy(world)
        rng = np.random.default_rng(action_seed)
        while not world.done:
            ids = world.alive_agents()
            actions = np.where(rng.random(len(ids)) < attack_frac,
                               rng.integers(28, 32, len(ids)),
                               rng.integers(0, eg.N_ACTIONS, len(ids))).astype(dtype)
            want = dict_step(twin, dict(zip(ids, actions.tolist())))
            assert_same_step(eg.step(world, actions), want)
            for name in ("pos", "hp", "alive", "occupancy", "grids"):
                assert np.array_equal(getattr(world, name), getattr(twin, name)), name
            assert world.rng.bit_generator.state == twin.rng.bit_generator.state
            assert world.t == twin.t
        assert twin.done


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
            # the dict oracle, given the same actions inserted in another
            # order, takes the same step
            shuffled = {ids[k]: actions[ids[k]] for k in rng.permutation(len(ids))}
            twin = copy.deepcopy(world)
            res = eg.step(world, action_array(world, actions))
            assert_same_step(res, dict_step(twin, shuffled))
            assert twin.units == world.units
            np.testing.assert_array_equal(twin.occupancy, world.occupancy)
            _assert_world_invariants(world)
            # a deepcopied twin observes through its own grids
            if world.alive_agents():
                assert np.array_equal(eg.observe(twin, world.alive_agents()),
                                      eg.observe(world, world.alive_agents()))

    def test_unit_snapshots_are_frozen(self):
        world = eg.new_world(make_config())
        unit = world.units[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            unit.hp = 1
        assert world.hp[0] == unit.hp == world.config.hp_omnivore


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
            actions = rng.integers(0, 33, len(ids))
            res = eg.step(world, actions)
            writer.write_step(world, actions, res, edges=[(0, 1)])
            total += sum(res.rewards.tolist())
        writer.close()
        episodes = read_replay(path)
        assert len(episodes) == 1
        header, records = episodes[0]
        metrics = episode_metrics(header, records)
        assert metrics["return"] == pytest.approx(total)
        assert metrics["end_steps"] == world.t
        assert records[0]["edges"] == [[0, 1]]
        json.dumps(records[0])  # records stay JSON-serializable
