"""Two-layer actor and critic shared by all agents."""
from __future__ import annotations

from dataclasses import asdict, dataclass

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

    def checkpoint_parts(self) -> tuple[dict, dict]:
        return {"policy": asdict(self.config)}, {"actor": self.actor, "critic": self.critic}

    @classmethod
    def from_checkpoint(cls, meta: dict, stores: dict) -> "ActorCritic":
        return cls(PolicyConfig(**meta["policy"]), rng=np.random.default_rng(0),
                   actor_store=stores["actor"], critic_store=stores["critic"])
