"""Replay export: JSON-lines, one header then one record per timestep.

Replays are self-sufficient: evaluation metrics (return, end step, fraction
of food eaten) can be recomputed from the file alone (the tests' reader,
``read_replay`` and ``episode_metrics`` in ``tests/conftest.py``, does so).
"""
from __future__ import annotations

import json
from dataclasses import asdict

from .world import GridWorld, StepResult


class ReplayWriter:
    """One file may hold several episodes, each opened by a header line."""

    def __init__(self, path):
        self._fh = open(path, "w")

    def start_episode(self, world: GridWorld):
        header = {
            "kind": "header",
            "config": asdict(world.config),
            "units": [
                {"id": i, "unit": u.kind, "x": u.x, "y": u.y, "hp": u.hp}
                for i, u in enumerate(world.units)
            ],
        }
        self._fh.write(json.dumps(header) + "\n")

    def write_step(self, world: GridWorld, actions, result: StepResult, edges=None):
        """One record for the step that took ``actions`` (aligned with
        ``result.ids``) and gave ``result``; ``world`` is the post-step world."""
        xy, hp = world.pos.tolist(), world.hp.tolist()
        live = [i for i, ok in enumerate(world.alive.tolist()) if ok]
        keys = [str(i) for i in result.ids.tolist()]
        record = {
            "t": world.t,
            "positions": {str(i): xy[i] for i in live},
            "hps": {str(i): hp[i] for i in live},
            "actions": dict(zip(keys, actions.tolist())),
            "rewards": dict(zip(keys, result.rewards.tolist())),
            "alive": result.ids[result.alive].tolist(),
            "food_remaining": result.food_remaining,
        }
        if edges is not None:
            record["edges"] = [list(e) for e in edges]
        self._fh.write(json.dumps(record) + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

