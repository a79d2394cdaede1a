"""Gather grid-world: tasks, actions, observations and their uint8 codec,
stepping, replays."""
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
from .replay import ReplayWriter
from .world import (
    EMPTY,
    FOOD,
    OMNIVORE,
    GridWorld,
    StepResult,
    Unit,
    decode_windows,
    encode_windows,
    level_table,
    new_world,
    observe,
    step,
)

__all__ = [
    "ATTACK_OFFSETS", "Attack", "EMPTY", "FOOD", "GridWorld", "MOVE_OFFSETS",
    "Move", "N_ACTIONS", "NOOP", "NOOP_INDEX", "Noop", "OMNIVORE",
    "ReplayWriter", "StepResult", "TaskConfig", "Unit", "decode_action",
    "decode_windows", "encode_windows", "level_table", "new_world", "observe",
    "preset", "step",
]
