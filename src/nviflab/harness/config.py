"""Experiment configuration: a single JSON file drives every command.

The file and each of its sections are JSON objects. Unknown keys are
rejected (top level and inside each section) so typos cannot silently fall
back to defaults, and every trainer's hyperparameters are validated on load.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..env_gather import TaskConfig, preset
from ..errors import ConfigError, require_counts
from ..nvif import ObsVaeHyper, PretrainHyper
from ..nvif.pretrain import require_graph_kind
from ..policy import DQNHyper, PPOHyper

ALGORITHMS = {
    "nvif-ppo": ("ppo", "nvif"),
    "ippo": ("ppo", "none"),
    "ms-ppo": ("ppo", "mean"),
    "fully-vif-ppo": ("ppo", "full"),
    "nvif-dqn": ("dqn", "nvif"),
}

_TOP_KEYS = {
    "task", "seeds", "out_dir", "algorithm", "env", "obs_vae", "nvif", "ppo",
    "dqn", "eval", "scalability", "obs_vae_checkpoint", "encoder_checkpoint",
    "policy_checkpoint",
}
_OBS_VAE_KEYS = {"latent_width", "hidden_width", "epochs", "lr", "batch_size",
                 "corpus_episodes", "corpus_max_samples", "seed"}
_NVIF_KEYS = {"hidden_width", "latent_width", "flow_layers", "decoder_hidden",
              "alpha", "epochs", "lr", "batch_episodes", "buffer_episodes",
              "recon_weight", "graph", "stop_recon_frac", "seed"}
_SECTIONS = ("env", "obs_vae", "nvif", "ppo", "dqn", "eval", "scalability")
_EVAL_KEYS = {"episodes", "seed", "greedy", "replay"}
_SCAL_KEYS = {"policies", "tasks", "episodes", "seed"}


def _reject_unknown(section: str, given: dict, known: set):
    unknown = sorted(set(given) - known)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {unknown}")


@dataclass
class ExperimentConfig:
    task: str
    out_dir: str
    seeds: list[int] = field(default_factory=lambda: [0])
    algorithm: str = "nvif-ppo"
    env: dict = field(default_factory=dict)
    obs_vae: dict = field(default_factory=dict)
    nvif: dict = field(default_factory=dict)
    ppo: dict = field(default_factory=dict)
    dqn: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    scalability: dict = field(default_factory=dict)
    obs_vae_checkpoint: str | None = None
    encoder_checkpoint: str | None = None
    policy_checkpoint: str | None = None

    def task_config(self, seed: int = 0) -> TaskConfig:
        return preset(self.task, seed=seed, **self.env)

    def obs_vae_hyper(self) -> ObsVaeHyper:
        keys = {f.name for f in dataclasses.fields(ObsVaeHyper)}
        return ObsVaeHyper(**{k: v for k, v in self.obs_vae.items() if k in keys})

    def nvif_hyper(self) -> PretrainHyper:
        keys = {f.name for f in dataclasses.fields(PretrainHyper)}
        picked = {k: v for k, v in self.nvif.items() if k in keys}
        if self.nvif.get("recon_weight") == "obs_dim":
            picked["recon_weight"] = float(self.task_config().obs_dim)
        return PretrainHyper(**picked)

    def ppo_hyper(self, seed: int) -> PPOHyper:
        return PPOHyper(seed=seed, **self.ppo)

    def dqn_hyper(self, seed: int) -> DQNHyper:
        return DQNHyper(seed=seed, **self.dqn)

    @property
    def out_path(self) -> Path:
        return Path(self.out_dir)


def load_experiment(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {json.dumps(raw)[:40]}")
    _reject_unknown("config", raw, _TOP_KEYS)
    for key in ("task", "out_dir"):
        if key not in raw:
            raise ConfigError(f"config missing required key {key!r}")
    for section in _SECTIONS:
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object, "
                              f"got {json.dumps(raw[section])[:40]}")
    cfg = ExperimentConfig(**raw)
    if cfg.algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {cfg.algorithm!r}; known: {sorted(ALGORITHMS)}")
    task_fields = {f.name for f in dataclasses.fields(TaskConfig)}
    _reject_unknown("env", cfg.env, task_fields - {"seed"})
    _reject_unknown("obs_vae", cfg.obs_vae, _OBS_VAE_KEYS)
    _reject_unknown("nvif", cfg.nvif, _NVIF_KEYS)
    require_graph_kind(cfg.nvif.get("graph", "neighbor"))
    _reject_unknown("ppo", cfg.ppo, {f.name for f in dataclasses.fields(PPOHyper)} - {"seed"})
    _reject_unknown("dqn", cfg.dqn, {f.name for f in dataclasses.fields(DQNHyper)} - {"seed"})
    _reject_unknown("eval", cfg.eval, _EVAL_KEYS)
    _reject_unknown("scalability", cfg.scalability, _SCAL_KEYS)
    cfg.task_config()  # validates the preset name and env overrides
    require_counts("obs_vae", **{k: v for k, v in cfg.obs_vae.items() if k.endswith("_width")})
    require_counts("nvif", **{k: v for k, v in cfg.nvif.items()
                              if k.endswith("_width") or k in ("flow_layers", "decoder_hidden")})
    for section, hyper in (("obs_vae", cfg.obs_vae_hyper()), ("nvif", cfg.nvif_hyper()),
                           ("ppo", cfg.ppo_hyper(0)), ("dqn", cfg.dqn_hyper(0))):
        ints = {f.name for f in dataclasses.fields(hyper) if type(f.default) is int}
        bad = {k: v for k, v in getattr(cfg, section).items() if k in ints and type(v) is not int}
        if bad:
            raise ConfigError(f"{section}: integer hyperparameters got {bad}")
        hyper.validate()
    return cfg
