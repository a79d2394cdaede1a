"""Experiment configuration: a single JSON file drives every command.

The file and each of its sections are JSON objects, read against the
dataclasses that hold their defaults. Unknown keys are rejected so typos
cannot silently fall back to defaults. Every key is typed: a bool is never a
number, a float field keeps an integer as given, and an integer is a seed
(>= 0) or a count or size (>= 1). Trainer ``validate`` methods check ranges.
"""
from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field, is_dataclass

from ..env_gather import TaskConfig, preset
from ..errors import ConfigError
from ..nvif import NvifConfig, ObsVaeConfig, ObsVaeHyper, PretrainHyper
from ..policy import DQNHyper, PPOHyper

ALGORITHMS = {
    "nvif-ppo": ("ppo", "nvif"),
    "ippo": ("ppo", "none"),
    "ms-ppo": ("ppo", "mean"),
    "fully-vif-ppo": ("ppo", "full"),
    "nvif-dqn": ("dqn", "nvif"),
}


@dataclass
class ObsVaeSection(ObsVaeHyper):
    latent_width: int = ObsVaeConfig.latent_width
    hidden_width: int = ObsVaeConfig.hidden_width
    corpus_episodes: int = 60
    corpus_max_samples: int | None = 30_000  # null keeps every window


@dataclass
class NvifSection(PretrainHyper):
    hidden_width: int = NvifConfig.hidden_width
    latent_width: int = NvifConfig.latent_width
    flow_layers: int = NvifConfig.flow_layers
    decoder_hidden: int = NvifConfig.decoder_hidden
    buffer_episodes: int = 200


@dataclass
class EvalSection:
    episodes: int = 10
    seed: int = 0


@dataclass
class ScalabilitySection:
    policies: list[str] = field(default_factory=list)
    tasks: list[str] = field(default_factory=list)
    episodes: int = 10
    seed: int = 0


@dataclass
class ExperimentConfig:
    task: str
    out_dir: str
    seeds: list[int] = field(default_factory=lambda: [0])
    algorithm: str = "nvif-ppo"
    env: dict = field(default_factory=dict)  # TaskConfig overrides passed to preset
    obs_vae: ObsVaeSection = field(default_factory=ObsVaeSection)
    nvif: NvifSection = field(default_factory=NvifSection)
    ppo: PPOHyper = field(default_factory=PPOHyper)
    dqn: DQNHyper = field(default_factory=DQNHyper)
    eval: EvalSection = field(default_factory=EvalSection)
    scalability: ScalabilitySection = field(default_factory=ScalabilitySection)
    obs_vae_checkpoint: str | None = None
    encoder_checkpoint: str | None = None
    policy_checkpoint: str | None = None

    def task_config(self, seed: int = 0) -> TaskConfig:
        return preset(self.task, seed=seed, **self.env)


def _fits(value, hint, floor: int) -> bool:
    """Whether a JSON value has the field type ``hint``; integers must be >= floor."""
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_fits(v, *typing.get_args(hint), floor) for v in value)
    if typing.get_args(hint):  # X | None
        return any(_fits(value, arg, floor) for arg in typing.get_args(hint))
    if hint is float:
        return type(value) is int or type(value) is float and math.isfinite(value)
    if hint is int:
        return type(value) is int and value >= floor
    return type(value) is hint  # bool, str, and None for X | None


def _read(section: str, cls, raw, skip=()) -> dict:
    """``raw``, checked to be a JSON object whose keys are fields of the dataclass ``cls``
    (less ``skip``) with values of their fields' types; sections are read on their own."""
    if type(raw) is not dict:
        raise ConfigError(f"{section} must be a JSON object, got {json.dumps(raw)[:40]}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(key for key in raw if key not in hints or key in skip)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {unknown}")
    for key, value in raw.items():
        hint = hints[key]
        floor = 0 if key in ("seed", "seeds") else 1
        if hint is dict or is_dataclass(hint) or _fits(value, hint, floor):
            continue
        wanted = hint.__name__ if type(hint) is type else str(hint)
        if int in (hint, *typing.get_args(hint)):
            wanted += f" (integers >= {floor})"
        raise ConfigError(f"{section}: {key} must be {wanted}, got {json.dumps(value)[:40]}")
    return raw


def load_experiment(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    raw = _read("config", ExperimentConfig, raw)
    for key in ("task", "out_dir"):
        if key not in raw:
            raise ConfigError(f"config missing required key {key!r}")
    raw["env"] = _read("section 'env'", TaskConfig, raw.get("env", {}), skip=("seed",))
    nvif = raw.get("nvif", {})
    if type(nvif) is dict and nvif.get("recon_weight") == "obs_dim":
        raw["nvif"] = {**nvif, "recon_weight": float(preset(raw["task"], **raw["env"]).obs_dim)}
    hints = typing.get_type_hints(ExperimentConfig)
    for name in ("obs_vae", "nvif", "ppo", "dqn", "eval", "scalability"):
        seedless = ("seed",) if name in ("ppo", "dqn") else ()  # a run's seed is one of seeds
        raw[name] = hints[name](
            **_read(f"section {name!r}", hints[name], raw.get(name, {}), seedless))
    cfg = ExperimentConfig(**raw)
    if not cfg.seeds:
        raise ConfigError("seeds must list at least one seed, got []")
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {cfg.algorithm!r}; known: {sorted(ALGORITHMS)}")
    for hyper in (cfg.obs_vae, cfg.nvif, cfg.ppo, cfg.dqn):
        hyper.validate()
    for name in (cfg.task, *cfg.scalability.tasks):  # the names, and the env overrides' ranges
        preset(name, **cfg.env)
    return cfg
