"""Two-layer actor and critic shared by all agents."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..diffcore import ParamStore, Tensor, init_mlp, log_softmax, mlp, no_grad
from ..env_gather import N_ACTIONS


@dataclass
class PolicyConfig:
    input_width: int
    hidden_width: int = 64
    n_actions: int = N_ACTIONS
    dtype: str = "float32"


class ActorCritic:
    """Softmax policy over the action set plus a scalar state-value head.

    Inputs are [compressed observation || latent feature] rows; every agent
    runs the same parameters.
    """

    def __init__(self, config: PolicyConfig, rng: np.random.Generator,
                 actor_store: ParamStore | None = None,
                 critic_store: ParamStore | None = None):
        self.config = config
        dt = np.dtype(config.dtype)
        if actor_store is not None:
            self.actor = actor_store
            self.critic = critic_store
            return
        self.actor = ParamStore()
        self.critic = ParamStore()
        # small output weights: near-uniform initial policy, near-zero values
        init_mlp(self.actor, "", [config.input_width, config.hidden_width, config.n_actions],
                 rng, dt, out_scale=0.01)
        init_mlp(self.critic, "", [config.input_width, config.hidden_width, 1],
                 rng, dt, out_scale=0.01)

    def logits(self, x) -> Tensor:
        return mlp(x, self.actor, "")

    def log_probs(self, x) -> Tensor:
        return log_softmax(self.logits(x))

    def value(self, x) -> Tensor:
        return mlp(x, self.critic, "")

    def act(self, feats: np.ndarray, rng: np.random.Generator):
        """Sample one action per row; returns (actions, their probabilities)."""
        with no_grad():
            logp = self.log_probs(Tensor(feats)).data
        probs = np.exp(logp.astype(np.float64))
        probs /= probs.sum(axis=1, keepdims=True)
        if not np.all(np.isfinite(probs)):
            raise FloatingPointError("act: non-finite action probabilities")
        u = rng.random(probs.shape[0])
        cum = np.cumsum(probs, axis=1)
        actions = (cum < u[:, None]).sum(axis=1)
        actions = np.minimum(actions, probs.shape[1] - 1)
        return actions.astype(np.int64), probs[np.arange(len(actions)), actions]

    def values(self, feats: np.ndarray) -> np.ndarray:
        with no_grad():
            v = self.value(Tensor(feats)).data
        return v[:, 0].astype(np.float64)

    def greedy(self, feats: np.ndarray) -> np.ndarray:
        with no_grad():
            logits = self.logits(Tensor(feats)).data
        return logits.argmax(axis=1).astype(np.int64)

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.actor.save(directory / "actor")
        self.critic.save(directory / "critic")
        with open(directory / "policy_meta.json", "w") as fh:
            json.dump(asdict(self.config), fh, indent=1)

    @classmethod
    def load(cls, directory) -> "ActorCritic":
        directory = Path(directory)
        with open(directory / "policy_meta.json") as fh:
            config = PolicyConfig(**json.load(fh))
        return cls(config, rng=np.random.default_rng(0),
                   actor_store=ParamStore.load(directory / "actor"),
                   critic_store=ParamStore.load(directory / "critic"))
