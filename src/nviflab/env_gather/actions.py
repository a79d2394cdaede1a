"""The 33-action space: 28 moves, 4 attacks, 1 noop, as one table."""
from __future__ import annotations

import numpy as np

# lattice offsets within Euclidean radius 3, origin excluded, sorted by (dy, dx)
MOVE_OFFSETS: tuple[tuple[int, int], ...] = tuple(sorted(
    ((dx, dy) for dy in range(-3, 4) for dx in range(-3, 4)
     if 0 < dx * dx + dy * dy <= 9),
    key=lambda o: (o[1], o[0]),
))

# up, down, left, right (y grows downward)
ATTACK_OFFSETS: tuple[tuple[int, int], ...] = ((0, -1), (0, 1), (-1, 0), (1, 0))

N_ACTIONS = len(MOVE_OFFSETS) + len(ATTACK_OFFSETS) + 1
NOOP_INDEX = N_ACTIONS - 1

KIND_MOVE, KIND_ATTACK, KIND_NOOP = 0, 1, 2

# row k is action k's (dx, dy, kind): the moves, then the attacks, then the noop
ACTION_TABLE = np.array([(dx, dy, KIND_MOVE) for dx, dy in MOVE_OFFSETS]
                        + [(dx, dy, KIND_ATTACK) for dx, dy in ATTACK_OFFSETS]
                        + [(0, 0, KIND_NOOP)], dtype=np.int64)
ACTION_TABLE.flags.writeable = False
