"""The Gather game: omnivore agents cooperatively attack stationary food.

The world holds arrays over its units, omnivores first and food after, so a
unit is an omnivore exactly when its index is below ``n_agents``: ``pos``
(x, y), ``hp``, ``alive``, the cell-to-unit ``occupancy``, and ``grids``, two
padded (ms+2R, ms+2R) uint8 planes of hp counts, omnivore hp and food hp,
zero off the map and on empty cells. :func:`new_world` builds the planes
once; :func:`step` then writes only the cells that change (a hit unit's hp
count, which falls to zero as it dies, and a mover's old and new cell in the
omnivore plane), so they always equal :func:`_channel_grids` rebuilt from
the arrays; ``pos`` takes the moved positions once per step. ``units`` gives
frozen :class:`Unit` snapshots to readers outside the step loop.

:func:`step` speaks arrays, as a vectorized environment does: it takes one
integer action index per alive agent, in the order of ``alive_agents()``,
and returns the agents that acted with their rewards and post-step liveness
as arrays in that same order. Actions are decoded by one lookup into the
(dx, dy, kind) rows of ``ACTION_TABLE``.

Stepping runs in three phases. Attacks are all evaluated against the
pre-step occupancy (so within a step their order cannot matter), units at
zero hit points are removed, then moves apply one at a time in a seeded
random order, and finally every surviving agent pays the per-step penalty.
An episode is done at ``max_steps``, when the food is gone, or when every
agent is dead.

The planes are the one window format: :func:`observe` gathers agents'
(2, w, w) windows off them as uint8 rows, the observer's own cell zeroed,
which rollouts compress as they are and the obs-VAE corpus and the
pre-training buffer store. :func:`decode_windows`, the one float renderer,
turns stored codes into (n, 7*w*w) float32 rows for obs-VAE minibatches and
reconstruction targets. Each float channel follows from the codes, the
agent's cell, the map size and the hp maxima:

- a presence channel is its hp count > 0: a live unit has hp >= 1, a dead
  one leaves its plane, and the observer's own cell is zero in both;
- the out-of-bounds window is read off a cached window view of the static
  padded wall plane, at the rounded normalized position times (ms - 1);
- an hp channel is its count cast to float32 and divided by the hp maximum
  in float32, which equals float32(k / hp) for every hp and k up to 255;
- the last two hold the agent's normalized x and y.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError, ProtocolError
from .actions import ACTION_TABLE, KIND_ATTACK, KIND_MOVE, N_ACTIONS
from .config import TaskConfig

OMNIVORE = "omnivore"
FOOD = "food"

EMPTY = -1

PLANES = 2  # the kept hp-count planes: omnivore hp, food hp


@dataclass(frozen=True)
class Unit:
    """Read-only snapshot of one unit; see ``GridWorld.units``."""
    kind: str
    x: int
    y: int
    hp: int
    alive: bool


@dataclass(eq=False)  # array fields have no single truth value; results compare by identity
class StepResult:
    ids: np.ndarray                # (k,) int: the agents that acted, ascending (alive_agents())
    rewards: np.ndarray            # (k,) float64, aligned with ids
    alive: np.ndarray              # (k,) bool, post-step liveness, aligned with ids
    done: bool
    food_remaining: int
    events: list = field(default_factory=list)  # (kind, agent, target_or_None)


@dataclass
class GridWorld:
    config: TaskConfig
    t: int
    pos: np.ndarray                # (n_units, 2) int64 (x, y); omnivores first, then food
    hp: np.ndarray                 # (n_units,) int64
    alive: np.ndarray              # (n_units,) bool
    occupancy: np.ndarray          # (map_size, map_size) int32, unit index or EMPTY
    grids: np.ndarray              # padded (2, ms+2R, ms+2R) uint8 hp counts, kept by step()
    rng: np.random.Generator

    @property
    def n_agents(self) -> int:
        return self.config.n_omnivores

    @property
    def units(self) -> list[Unit]:
        return [Unit(OMNIVORE if i < self.n_agents else FOOD, x, y, hp, ok) for i, ((x, y), hp, ok)
                in enumerate(zip(self.pos.tolist(), self.hp.tolist(), self.alive.tolist()))]

    def alive_agents(self) -> list[int]:
        return np.flatnonzero(self.alive[:self.n_agents]).tolist()

    def agent_positions(self, ids) -> np.ndarray:
        return self.pos[np.asarray(ids, dtype=np.intp)]

    def food_remaining(self) -> int:
        return int(np.count_nonzero(self.alive[self.n_agents:]))

    @property
    def food_eaten_frac(self) -> float:
        return (self.config.n_food - self.food_remaining()) / self.config.n_food

    @property
    def done(self) -> bool:
        return (self.t >= self.config.max_steps or not self.food_remaining()
                or not np.count_nonzero(self.alive[:self.n_agents]))

    @property
    def truncated(self) -> bool:
        """Cut off by ``max_steps`` with food left and an agent alive: the
        task itself goes on, so learners bootstrap the survivors from the
        final state instead of treating it as terminal."""
        return bool(self.t >= self.config.max_steps and self.food_remaining()
                    and np.count_nonzero(self.alive[:self.n_agents]))


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
    pos = [ring[(k * len(ring)) // config.n_omnivores] for k in range(config.n_omnivores)]
    pos += [(c0 + k % side, r0 + k // side) for k in range(config.n_food)]
    return place_units(config, pos, rng)


def place_units(config: TaskConfig, pos, rng: np.random.Generator) -> GridWorld:
    """World at t=0 with one unit at full hp on each (x, y) of ``pos``, the
    first ``config.n_omnivores`` of them omnivores and the rest food."""
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 2)
    ms, n_units = config.map_size, len(pos)
    if pos.size and not (0 <= pos.min() and pos.max() < ms):
        raise ConfigError(f"unit positions must lie on the {ms}x{ms} map")
    hp = np.where(np.arange(n_units) < config.n_omnivores, config.hp_omnivore, config.hp_food)
    alive = np.ones(n_units, dtype=bool)
    occupancy = np.full((ms, ms), EMPTY, dtype=np.int32)
    occupancy[pos[:, 1], pos[:, 0]] = np.arange(n_units)
    if np.count_nonzero(occupancy != EMPTY) < n_units:
        raise ConfigError("two units share a cell (does the food block overlap the ring?)")
    return GridWorld(config=config, t=0, pos=pos, hp=hp, alive=alive,
                     occupancy=occupancy, grids=_channel_grids(config, pos, hp, alive), rng=rng)


def _channel_grids(config: TaskConfig, pos, hp, alive) -> np.ndarray:
    """Padded (2, ms+2R, ms+2R) uint8 planes: omnivore hp counts, food hp counts."""
    ms, r = config.map_size, config.view_radius
    padded = np.zeros((PLANES, ms + 2 * r, ms + 2 * r), dtype=np.uint8)
    food = (np.arange(len(pos)) >= config.n_omnivores)[alive]
    x, y = (pos[alive] + r).T
    padded[food.astype(np.intp), y, x] = hp[alive]
    return padded


def _window_view(planes: np.ndarray, map_size: int, r: int) -> np.ndarray:
    """View of padded (..., ms+2R, ms+2R) ``planes`` whose [y, x] is the
    (..., w, w) window around the map cell (x, y)."""
    w = 2 * r + 1
    *lead, sy, sx = planes.strides
    return np.ndarray((map_size, map_size, *planes.shape[:-2], w, w), planes.dtype,
                      planes, 0, (sy, sx, *lead, sy, sx))


def observe(world: GridWorld, ids) -> np.ndarray:
    """(len(ids), 2*w*w) uint8 windows of the alive agents ``ids``: the hp
    counts of the omnivore plane, then of the food plane, around each agent,
    its own cell zeroed. :func:`decode_windows` renders them as floats."""
    n, r, w = world.n_agents, world.config.view_radius, world.config.window
    ok = world.alive[:n].tolist()
    bad = [i for i in ids if not (0 <= i < n and ok[i])]
    if bad:
        raise ProtocolError(f"agents {bad} are not alive omnivores")
    pos = world.pos[np.asarray(ids, dtype=np.intp)]
    # a view per call: a stored one would outlive a deepcopy's grids
    codes = _window_view(world.grids, world.config.map_size, r)[pos[:, 1], pos[:, 0]]
    codes[:, 0, r, r] = 0  # the observer does not see itself
    return codes.reshape(len(ids), PLANES * w * w)


@functools.lru_cache(maxsize=8)
def _wall_windows(map_size: int, r: int) -> np.ndarray:
    """Read-only :func:`_window_view` of the padded float32 wall plane: 1 off
    the map, 0 on it."""
    side = map_size + 2 * r
    plane = np.ones((side, side), dtype=np.float32)
    plane[r:r + map_size, r:r + map_size] = 0.0
    plane.flags.writeable = False  # and so its views
    return _window_view(plane, map_size, r)


def decode_windows(codes: np.ndarray, positions: np.ndarray, config, out=None) -> np.ndarray:
    """The float32 observation windows (n, 7*w*w) of codes (n, 2*w*w) from
    :func:`observe` and normalized positions (n, 2), written into ``out``
    when given (a C-contiguous float32 array of that shape). ``config`` is
    the task's :class:`TaskConfig`, or a record carrying its
    ``hp_omnivore``, ``hp_food`` and ``map_size``. Codes that are not 2*w*w
    wide for an odd w, positions off the map or a misfit ``out`` raise
    DataError."""
    if codes.ndim != 2:
        raise DataError(f"window codes must be (n, 2*w*w), got shape {codes.shape}")
    n = codes.shape[0]
    w = math.isqrt(codes.shape[1] // PLANES)
    if PLANES * w * w != codes.shape[1] or w % 2 == 0:
        raise DataError(f"window codes must be 2*w*w wide for an odd w, got {codes.shape[1]}")
    if positions.shape != (n, 2):
        raise DataError(f"positions must be ({n}, 2), got {positions.shape}")
    ms = config.map_size
    xy = np.rint(positions * (ms - 1)).astype(np.intp)
    if n and not (0 <= xy.min() and xy.max() < ms):
        raise DataError(f"normalized positions must lie in [0, 1], got {positions.min()} "
                        f"to {positions.max()}")
    out = np.empty((n, 7 * w * w), dtype=np.float32) if out is None else out
    if out.dtype != np.float32 or out.shape != (n, 7 * w * w) or not out.flags.c_contiguous:
        raise DataError(f"decode_windows out must be a C-contiguous float32 array of shape "
                        f"{(n, 7 * w * w)}, got {out.dtype} {out.shape}")
    codes, view = codes.reshape(n, PLANES, w, w), out.reshape(n, 7, w, w)
    view[:, 0] = _wall_windows(ms, w // 2)[xy[:, 1], xy[:, 0]]
    np.greater(codes, 0, out=view[:, 1:5:2])
    # uint8 counts over a float32 maximum run numpy's float32 loop: float32(k) / float32(hp)
    np.divide(codes[:, 0], np.float32(config.hp_omnivore), out=view[:, 2])
    np.divide(codes[:, 1], np.float32(config.hp_food), out=view[:, 4])
    view[:, 5:] = positions[:, :, None, None]
    return out


def step(world: GridWorld, actions) -> StepResult:
    """Advance one timestep. ``actions`` is a 1-D integer array of action
    indices, one per alive agent in the order of ``world.alive_agents()``: a
    wrong shape is a protocol error, a non-integer dtype or an index outside
    ``[0, N_ACTIONS)`` a ValueError, and either leaves the world untouched."""
    if world.done:
        raise ProtocolError("step: world is already done")
    cfg, n = world.config, world.n_agents
    ids = np.flatnonzero(world.alive[:n])
    actions = np.asarray(actions)
    if actions.shape != ids.shape:
        raise ProtocolError(f"step: need a 1-D array of {len(ids)} actions, one per alive "
                            f"agent; got shape {actions.shape}")
    if actions.dtype.kind not in "iu":
        raise ValueError(f"action index dtype {actions.dtype} is not an integer dtype")
    if not (0 <= actions.min() and actions.max() < N_ACTIONS):
        bad = actions[(actions < 0) | (actions >= N_ACTIONS)].tolist()
        raise ValueError(f"action index {bad} outside [0, {N_ACTIONS})")
    ms, r, occ, grids = cfg.map_size, cfg.view_radius, world.occupancy, world.grids
    alive, xy = ids.tolist(), world.pos[:n].tolist()
    dxs, dys, kinds = ACTION_TABLE[actions].T.tolist()
    rewards = [0.0] * n  # by agent id
    events: list = []

    # phase 1: simultaneous attacks in ascending id order; none changes the occupancy
    damage: dict[int, int] = {}
    for k, i in enumerate(alive):
        if kinds[k] != KIND_ATTACK:
            continue
        tx, ty = xy[i][0] + dxs[k], xy[i][1] + dys[k]
        target = int(occ[ty, tx]) if (0 <= tx < ms and 0 <= ty < ms) else EMPTY
        if target == EMPTY:
            rewards[i] += cfg.p_blank
            events.append(("blank", i, None))
        elif target >= n:
            rewards[i] += cfg.r_food
            damage[target] = damage.get(target, 0) + 1
            events.append(("food_hit", i, target))
        else:
            rewards[target] += cfg.p_attacked
            damage[target] = damage.get(target, 0) + 1
            events.append(("omnivore_hit", i, target))
    for target, hits in damage.items():
        x, y = world.pos[target].tolist()
        hp = max(int(world.hp[target]) - hits, 0)
        world.hp[target] = hp
        grids[int(target >= n), y + r, x + r] = hp
        if hp == 0:
            world.alive[target] = False
            occ[y, x] = EMPTY

    # phase 2: moves in seeded random order; blocked or out-of-bounds moves stay
    now = world.alive[:n].tolist()
    flat, side, moved = grids[0].reshape(-1), ms + 2 * r, False
    for k in world.rng.permutation(len(alive)).tolist():
        i = alive[k]
        if kinds[k] != KIND_MOVE or not now[i]:
            continue
        (x, y), tx, ty = xy[i], xy[i][0] + dxs[k], xy[i][1] + dys[k]
        if not (0 <= tx < ms and 0 <= ty < ms) or occ[ty, tx] != EMPTY:
            continue
        occ[y, x], occ[ty, tx] = EMPTY, i
        xy[i], moved = [tx, ty], True
        old, new = (y + r) * side + x + r, (ty + r) * side + tx + r
        flat[new], flat[old] = flat[old], 0
    if moved:
        world.pos[:n] = xy

    # phase 3: per-step penalty for survivors
    survived = world.alive[ids]
    rewards = np.array(rewards)[ids]
    rewards[survived] += cfg.p_step

    world.t += 1
    return StepResult(ids=ids, rewards=rewards, alive=survived, done=world.done,
                      food_remaining=world.food_remaining(), events=events)
