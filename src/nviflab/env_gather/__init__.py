"""Gather grid-world: tasks, the action table, observations and their uint8
window codes, array-native stepping, replays."""
from .actions import (
    ACTION_TABLE,
    ATTACK_OFFSETS,
    KIND_ATTACK,
    KIND_MOVE,
    KIND_NOOP,
    MOVE_OFFSETS,
    N_ACTIONS,
    NOOP_INDEX,
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
    new_world,
    observe,
    step,
    window_codes,
)

__all__ = [
    "ACTION_TABLE", "ATTACK_OFFSETS", "EMPTY", "FOOD", "GridWorld", "KIND_ATTACK",
    "KIND_MOVE", "KIND_NOOP", "MOVE_OFFSETS", "N_ACTIONS", "NOOP_INDEX", "OMNIVORE",
    "ReplayWriter", "StepResult", "TaskConfig", "Unit", "decode_windows",
    "new_world", "observe", "preset", "step", "window_codes",
]
