"""Gather grid-world: tasks, actions, observations, stepping, replays."""
from .actions import (
    ATTACK_OFFSETS,
    MOVE_OFFSETS,
    N_ACTIONS,
    NOOP,
    NOOP_INDEX,
    Attack,
    Move,
    Noop,
    decode_action,
)
from .config import TaskConfig, preset
from .replay import ReplayWriter, episode_metrics, read_replay
from .world import (
    EMPTY,
    FOOD,
    OMNIVORE,
    GridWorld,
    Observation,
    StepResult,
    Unit,
    new_world,
    observe,
    step,
)

__all__ = [
    "ATTACK_OFFSETS", "Attack", "EMPTY", "FOOD", "GridWorld", "MOVE_OFFSETS",
    "Move", "N_ACTIONS", "NOOP", "NOOP_INDEX", "Noop", "OMNIVORE",
    "Observation", "ReplayWriter", "StepResult", "TaskConfig", "Unit",
    "decode_action", "episode_metrics", "new_world", "observe", "preset",
    "read_replay", "step",
]
