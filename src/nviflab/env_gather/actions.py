"""The 33-action space: 28 moves, 4 attacks, 1 noop."""
from __future__ import annotations

from numbers import Integral
from typing import NamedTuple


class Move(NamedTuple):
    dx: int
    dy: int


class Attack(NamedTuple):
    dx: int
    dy: int


class Noop(NamedTuple):
    pass


NOOP = Noop()

# lattice offsets within Euclidean radius 3, origin excluded, sorted by (dy, dx)
MOVE_OFFSETS: tuple[tuple[int, int], ...] = tuple(sorted(
    ((dx, dy) for dy in range(-3, 4) for dx in range(-3, 4)
     if 0 < dx * dx + dy * dy <= 9),
    key=lambda o: (o[1], o[0]),
))

# up, down, left, right (y grows downward)
ATTACK_OFFSETS: tuple[tuple[int, int], ...] = ((0, -1), (0, 1), (-1, 0), (1, 0))

N_MOVES = len(MOVE_OFFSETS)
N_ATTACKS = len(ATTACK_OFFSETS)
N_ACTIONS = N_MOVES + N_ATTACKS + 1
NOOP_INDEX = N_ACTIONS - 1


ACTIONS = (tuple(Move(*o) for o in MOVE_OFFSETS) + tuple(Attack(*o) for o in ATTACK_OFFSETS)
           + (NOOP,))


def decode_action(index: int):
    """Map an action index (an integer, not a bool) to Move / Attack / Noop."""
    # plain ints skip the ABC check, which costs about 0.6 us per call
    if type(index) is not int and (isinstance(index, bool) or not isinstance(index, Integral)):
        raise ValueError(f"action index {index!r} is not an integer")
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index {index} outside [0, {N_ACTIONS})")
    return ACTIONS[index]
