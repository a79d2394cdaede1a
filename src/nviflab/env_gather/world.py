"""The Gather game: omnivore agents cooperatively attack stationary food.

Stepping runs in three phases. Attacks are all evaluated against the
pre-step occupancy (so within a step their order cannot matter), units at
zero hit points are removed, then moves apply one at a time in a seeded
random order, and finally every surviving agent pays the per-step penalty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ProtocolError
from .actions import Attack, Move, decode_action
from .config import TaskConfig

OMNIVORE = "omnivore"
FOOD = "food"

EMPTY = -1


@dataclass
class Unit:
    kind: str
    x: int
    y: int
    hp: int
    alive: bool = True


@dataclass
class Observation:
    channels: np.ndarray      # (7, window, window) float32
    position: tuple[float, float]  # normalized (x, y)

    def flat(self) -> np.ndarray:
        return self.channels.ravel()


@dataclass
class StepResult:
    rewards: dict[int, float]      # one entry per agent that acted this step
    alive: dict[int, bool]         # same keys, post-step liveness
    done: bool
    food_remaining: int
    events: list = field(default_factory=list)  # (kind, agent, target_or_None)


@dataclass
class GridWorld:
    config: TaskConfig
    t: int
    units: list[Unit]
    occupancy: np.ndarray          # (map_size, map_size) int, unit index or EMPTY
    rng: np.random.Generator
    _channel_cache: tuple | None = None

    @property
    def n_agents(self) -> int:
        return self.config.n_omnivores

    def alive_agents(self) -> list[int]:
        return [i for i in range(self.n_agents) if self.units[i].alive]

    def agent_positions(self, ids=None) -> np.ndarray:
        ids = self.alive_agents() if ids is None else ids
        return np.array([(self.units[i].x, self.units[i].y) for i in ids], dtype=np.int64)

    def food_remaining(self) -> int:
        return sum(1 for u in self.units[self.n_agents:] if u.alive)

    @property
    def done(self) -> bool:
        return self.t >= self.config.max_steps or self.food_remaining() == 0

    @property
    def truncated(self) -> bool:
        """Cut off by ``max_steps`` with food left: the task itself goes on,
        so learners bootstrap from the final state instead of treating it
        as terminal."""
        return self.t >= self.config.max_steps and self.food_remaining() > 0


def _border_ring(map_size: int) -> list[tuple[int, int]]:
    """Border cells in clockwise order starting at (0, 0)."""
    last = map_size - 1
    ring = [(x, 0) for x in range(map_size)]
    ring += [(last, y) for y in range(1, map_size)]
    ring += [(x, last) for x in range(last - 1, -1, -1)]
    ring += [(0, y) for y in range(last - 1, 0, -1)]
    return ring


def _food_block_shape(n_food: int) -> tuple[int, int]:
    side = math.isqrt(n_food)
    if side * side < n_food:
        side += 1
    rows = (n_food + side - 1) // side
    return rows, side


def new_world(config: TaskConfig) -> GridWorld:
    """Fresh world. Normal task: seed-independent layout (food block centered,
    omnivores evenly spaced on the border). Random task: same omnivore ring,
    food block at a seed-drawn interior offset."""
    config.validate()
    ms = config.map_size
    ring = _border_ring(ms)
    if config.n_omnivores > len(ring):
        raise ConfigError(
            f"{config.n_omnivores} omnivores exceed the {len(ring)}-cell border ring")
    rows, side = _food_block_shape(config.n_food)
    if rows > ms - 2 or side > ms - 2:
        raise ConfigError(
            f"{config.n_food} food units need a {rows}x{side} block; map {ms} is too small")

    rng = np.random.default_rng(config.seed)
    if config.task_kind == "normal":
        r0 = (ms - rows) // 2
        c0 = (ms - side) // 2
    else:
        r0 = int(rng.integers(1, ms - rows))
        c0 = int(rng.integers(1, ms - side))

    units: list[Unit] = []
    occupancy = np.full((ms, ms), EMPTY, dtype=np.int32)
    for k in range(config.n_omnivores):
        x, y = ring[(k * len(ring)) // config.n_omnivores]
        units.append(Unit(OMNIVORE, x, y, config.hp_omnivore))
        occupancy[y, x] = k
    placed = 0
    for r in range(rows):
        for c in range(side):
            if placed == config.n_food:
                break
            x, y = c0 + c, r0 + r
            if occupancy[y, x] != EMPTY:
                raise ConfigError("food block overlaps the omnivore ring")
            units.append(Unit(FOOD, x, y, config.hp_food))
            occupancy[y, x] = config.n_omnivores + placed
            placed += 1
    return GridWorld(config=config, t=0, units=units, occupancy=occupancy, rng=rng)


def _channel_grids(world: GridWorld) -> np.ndarray:
    """Padded (5, ms+2R, ms+2R) grids: obstacle, omnivore presence/hp, food presence/hp."""
    if world._channel_cache is not None and world._channel_cache[0] == world.t:
        return world._channel_cache[1]
    cfg = world.config
    ms, r = cfg.map_size, cfg.view_radius
    grids = np.zeros((5, ms, ms), dtype=np.float32)
    for idx, u in enumerate(world.units):
        if not u.alive:
            continue
        if u.kind == OMNIVORE:
            grids[1, u.y, u.x] = 1.0
            grids[2, u.y, u.x] = u.hp / cfg.hp_omnivore
        else:
            grids[3, u.y, u.x] = 1.0
            grids[4, u.y, u.x] = u.hp / cfg.hp_food
    padded = np.zeros((5, ms + 2 * r, ms + 2 * r), dtype=np.float32)
    padded[0] = 1.0
    padded[:, r:r + ms, r:r + ms] = grids
    padded[0, r:r + ms, r:r + ms] = 0.0
    world._channel_cache = (world.t, padded)
    return padded


def observe(world: GridWorld, agent_id: int) -> Observation:
    """Local 7-channel window centered on the agent.

    Channels: out-of-bounds mask, other-omnivore presence, their normalized
    hp, food presence, food normalized hp, then two constant channels holding
    the agent's normalized x and y.
    """
    unit = world.units[agent_id]
    if agent_id >= world.n_agents or not unit.alive:
        raise ProtocolError(f"observe: agent {agent_id} is not an alive omnivore")
    cfg = world.config
    r, w, ms = cfg.view_radius, cfg.window, cfg.map_size
    padded = _channel_grids(world)
    window = padded[:, unit.y:unit.y + w, unit.x:unit.x + w].copy()
    window[1, r, r] = 0.0  # the observer does not see itself
    window[2, r, r] = 0.0
    xn = unit.x / (ms - 1)
    yn = unit.y / (ms - 1)
    channels = np.empty((7, w, w), dtype=np.float32)
    channels[:5] = window
    channels[5] = xn
    channels[6] = yn
    return Observation(channels=channels, position=(xn, yn))


def step(world: GridWorld, actions: dict[int, int]) -> StepResult:
    """Advance one timestep. ``actions`` maps every alive agent id to an
    action index (exactly the alive set; anything else is a protocol error)."""
    if world.done:
        raise ProtocolError("step: world is already done")
    alive = world.alive_agents()
    if set(actions) != set(alive):
        missing = sorted(set(alive) - set(actions))
        extra = sorted(set(actions) - set(alive))
        raise ProtocolError(f"step: need one action per alive agent; "
                            f"missing {missing}, not alive {extra}")
    cfg = world.config
    ms = cfg.map_size
    rewards = {i: 0.0 for i in alive}
    events: list = []
    decoded = {i: decode_action(actions[i]) for i in alive}

    # phase 1: simultaneous attacks against the pre-step occupancy
    pre_occ = world.occupancy.copy()
    damage: dict[int, int] = {}
    for i in sorted(alive):
        act = decoded[i]
        if not isinstance(act, Attack):
            continue
        u = world.units[i]
        tx, ty = u.x + act.dx, u.y + act.dy
        target = pre_occ[ty, tx] if (0 <= tx < ms and 0 <= ty < ms) else EMPTY
        if target == EMPTY:
            rewards[i] += cfg.p_blank
            events.append(("blank", i, None))
        elif world.units[target].kind == FOOD:
            rewards[i] += cfg.r_food
            damage[target] = damage.get(target, 0) + 1
            events.append(("food_hit", i, target))
        else:
            rewards[target] += cfg.p_attacked
            damage[target] = damage.get(target, 0) + 1
            events.append(("omnivore_hit", i, target))
    for target, hits in damage.items():
        u = world.units[target]
        u.hp -= hits
        if u.hp <= 0:
            u.hp = 0
            u.alive = False
            world.occupancy[u.y, u.x] = EMPTY

    # phase 2: moves in seeded random order; blocked or out-of-bounds moves stay
    order = world.rng.permutation(len(alive))
    ordered = [sorted(alive)[k] for k in order]
    for i in ordered:
        u = world.units[i]
        act = decoded[i]
        if not u.alive or not isinstance(act, Move):
            continue
        tx, ty = u.x + act.dx, u.y + act.dy
        if not (0 <= tx < ms and 0 <= ty < ms) or world.occupancy[ty, tx] != EMPTY:
            continue
        world.occupancy[u.y, u.x] = EMPTY
        world.occupancy[ty, tx] = i
        u.x, u.y = tx, ty

    # phase 3: per-step penalty for survivors
    for i in alive:
        if world.units[i].alive:
            rewards[i] += cfg.p_step

    world.t += 1
    world._channel_cache = None
    food_left = world.food_remaining()
    done = world.t >= cfg.max_steps or food_left == 0
    return StepResult(
        rewards=rewards,
        alive={i: world.units[i].alive for i in alive},
        done=done,
        food_remaining=food_left,
        events=events,
    )
