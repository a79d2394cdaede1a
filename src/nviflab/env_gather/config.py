"""Task configuration and shipped presets."""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from importlib import resources

from ..errors import ConfigError

TASK_KINDS = ("normal", "random")


@dataclass
class TaskConfig:
    task_kind: str
    map_size: int
    n_omnivores: int
    n_food: int
    max_steps: int = 100
    r_food: float = 5.0
    p_blank: float = -0.2
    p_attacked: float = -2.0
    p_step: float = -0.01
    hp_food: int = 2
    hp_omnivore: int = 3
    view_radius: int = 5
    seed: int = 0

    @property
    def window(self) -> int:
        return 2 * self.view_radius + 1

    @property
    def obs_dim(self) -> int:
        return 7 * self.window * self.window

    def validate(self):
        if self.task_kind not in TASK_KINDS:
            raise ConfigError(f"task_kind must be one of {TASK_KINDS}, got {self.task_kind!r}")
        if self.map_size < 8:
            raise ConfigError(f"map_size must be >= 8, got {self.map_size}")
        if self.n_omnivores < 1 or self.n_food < 1:
            raise ConfigError("need at least one omnivore and one food unit")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.hp_food < 2:
            raise ConfigError(f"hp_food must be >= 2 (food takes several attacks), got {self.hp_food}")
        if self.hp_omnivore < 1:
            raise ConfigError(f"hp_omnivore must be >= 1, got {self.hp_omnivore}")
        # the world's planes, and so the stored window codes, hold hp counts as uint8
        if max(self.hp_food, self.hp_omnivore) > 255:
            raise ConfigError(f"hp_food and hp_omnivore must be <= 255, got "
                              f"{self.hp_food} and {self.hp_omnivore}")
        if self.view_radius < 1:
            raise ConfigError(f"view_radius must be >= 1, got {self.view_radius}")
        if self.n_omnivores + self.n_food > self.map_size * self.map_size:
            raise ConfigError(
                f"{self.n_omnivores + self.n_food} units exceed "
                f"{self.map_size * self.map_size} grid cells")
        # a step's reward sums at most six of these (an attack, four attackers and the
        # step penalty), and an episode's return sums every agent's step rewards
        limit = sys.float_info.max / (6 * self.n_omnivores * self.max_steps)
        for name in ("r_food", "p_blank", "p_attacked", "p_step"):
            if not abs(getattr(self, name)) < limit:  # NaN fails too
                raise ConfigError(f"{name} must be finite and below {limit:.3g} in size, so an "
                                  f"episode's return cannot overflow; got {getattr(self, name)}")


def _load_presets() -> dict:
    text = resources.files("nviflab.env_gather").joinpath("presets/tasks.json").read_text()
    return json.loads(text)


_PRESETS: dict | None = None


def preset(name: str, seed: int = 0, **overrides) -> TaskConfig:
    """TaskConfig for a named preset, optionally overriding fields."""
    global _PRESETS
    if _PRESETS is None:
        _PRESETS = _load_presets()
    if name not in _PRESETS:
        raise ConfigError(f"unknown task preset {name!r}; known: {sorted(_PRESETS)}")
    cfg = TaskConfig(seed=seed, **_PRESETS[name])
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg
