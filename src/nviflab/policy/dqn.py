"""Deep Q-learning on [compressed observation || latent] inputs.

Standard machinery: ring replay buffer, target network refreshed every
``target_sync`` gradient steps, linear epsilon schedule over environment
steps, per-agent transitions with agent death or the food running out as
terminals. A cut at ``max_steps`` is not a terminal: a survivor's last
transition is pushed with its final-state row as the next row, so the target
bootstraps from it (arXiv 1712.00378).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..diffcore import (
    ParamStore,
    Tensor,
    backward,
    init_mlp,
    mlp,
    mse,
    no_grad,
    optimizer_step,
    take_per_row,
)
from ..env_gather import N_ACTIONS, TaskConfig, new_world, step
from ..errors import ConfigError, require_counts, require_rates
from ..nvif import NvifEncoder, ObsCompressor
from .ppo import write_metrics_csv
from .providers import featurize, make_provider


@dataclass
class DQNHyper:
    gamma: float = 0.99
    lr: float = 1e-3
    batch_size: int = 64
    replay_capacity: int = 100_000
    min_replay: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 50_000
    target_sync: int = 1000
    episodes: int = 300
    train_every: int = 1
    hidden_width: int = 64
    latent_sample: bool = True
    seed: int = 0

    def validate(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ConfigError(f"need 0 <= eps_end <= eps_start <= 1, got eps_start="
                              f"{self.eps_start} and eps_end={self.eps_end}")
        require_rates("dqn", lr=self.lr)
        require_counts("dqn", batch_size=self.batch_size, replay_capacity=self.replay_capacity,
                       eps_decay_steps=self.eps_decay_steps, target_sync=self.target_sync,
                       train_every=self.train_every, min_replay=self.min_replay,
                       hidden_width=self.hidden_width)


def epsilon_at(hyper: DQNHyper, env_steps: int) -> float:
    """Linear schedule; hits eps_end exactly at eps_decay_steps."""
    frac = min(1.0, env_steps / hyper.eps_decay_steps)
    return hyper.eps_start * (1.0 - frac) + hyper.eps_end * frac


def q_target(rewards, next_max_q, done, gamma: float) -> np.ndarray:
    """y = r + gamma * max_a Q_target(s', a), truncated at terminals."""
    rewards = np.asarray(rewards, dtype=np.float64)
    return rewards + gamma * np.asarray(next_max_q) * (1.0 - np.asarray(done))


class QNetwork:
    def __init__(self, input_width: int, hidden_width: int, rng,
                 store: ParamStore | None = None, dtype=np.float32):
        self.input_width = input_width
        self.hidden_width = hidden_width
        if store is not None:
            self.store = store
            return
        self.store = ParamStore()
        init_mlp(self.store, "", [input_width, hidden_width, N_ACTIONS], rng, dtype,
                 out_scale=0.01)

    def q_values_tensor(self, x) -> Tensor:
        return mlp(x, self.store, "")

    def q_values(self, feats: np.ndarray) -> np.ndarray:
        with no_grad():
            q = self.q_values_tensor(Tensor(feats)).data
        return q.astype(np.float64)

    def checkpoint_parts(self) -> tuple[dict, dict]:
        return ({"qnet": {"input_width": self.input_width, "hidden_width": self.hidden_width}},
                {"qnet": self.store})

    @classmethod
    def from_checkpoint(cls, meta: dict, stores: dict) -> "QNetwork":
        return cls(**meta["qnet"], rng=np.random.default_rng(0), store=stores["qnet"])

    def copy_from(self, other: "QNetwork"):
        self.store.copy_from(other.store)


class ReplayRing:
    def __init__(self, capacity: int, width: int, dtype=np.float32):
        self.x = np.zeros((capacity, width), dtype=dtype)
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity, dtype=np.float64)
        self.x2 = np.zeros((capacity, width), dtype=dtype)
        self.done = np.zeros(capacity, dtype=np.float64)
        self.capacity = capacity
        self.idx = 0
        self.size = 0

    def push(self, x, a, r, x2, done):
        i = self.idx
        self.x[i], self.a[i], self.r[i], self.x2[i], self.done[i] = x, a, r, x2, done
        self.idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, n):
        idx = rng.integers(0, self.size, n)
        return self.x[idx], self.a[idx], self.r[idx], self.x2[idx], self.done[idx]


@dataclass
class DQNResult:
    metrics: list[dict]
    qnet: QNetwork


def train_dqn(task_cfg: TaskConfig, compressor: ObsCompressor, hyper: DQNHyper,
              latent_mode: str = "nvif", encoder: NvifEncoder | None = None,
              out_dir=None) -> DQNResult:
    hyper.validate()
    feat_width = compressor.config.latent_width
    compressor.check_obs_width(task_cfg)
    seq = np.random.SeedSequence(hyper.seed)
    env_s, act_s, lat_s, samp_s, init_s = seq.spawn(5)
    env_rng = np.random.default_rng(env_s)
    action_rng = np.random.default_rng(act_s)
    latent_rng = np.random.default_rng(lat_s)
    sample_rng = np.random.default_rng(samp_s)
    provider = make_provider(latent_mode, feat_width, encoder=encoder,
                             rng=latent_rng, sample=hyper.latent_sample)
    width = feat_width + provider.width
    qnet = QNetwork(width, hyper.hidden_width, np.random.default_rng(init_s))
    target = QNetwork(width, hyper.hidden_width, np.random.default_rng(init_s))
    target.copy_from(qnet)
    replay = ReplayRing(hyper.replay_capacity, width)

    env_steps = 0
    grad_steps = 0
    metrics = []
    for episode in range(hyper.episodes):
        world = new_world(replace(task_cfg, seed=int(env_rng.integers(2 ** 62))))
        provider.reset()
        pending = None  # (ids, x, a, r, alive_after, food_out)
        episode_return = 0.0
        losses = []
        while not world.done:
            ids = world.alive_agents()
            x = featurize(world, ids, compressor, provider)
            if pending is not None:
                _flush(replay, pending, {i: x[row] for row, i in enumerate(ids)})
            eps = epsilon_at(hyper, env_steps)
            q = qnet.q_values(x)
            greedy = q.argmax(axis=1)
            explore = action_rng.random(len(ids)) < eps
            randoms = action_rng.integers(0, N_ACTIONS, len(ids))
            actions = np.where(explore, randoms, greedy)
            result = step(world, dict(zip(ids, actions.tolist())))
            episode_return += float(np.sum(list(result.rewards.values())))
            pending = (ids, x, actions,
                       np.array([result.rewards[i] for i in ids]),
                       result.alive, result.food_remaining == 0)
            env_steps += 1
            if replay.size >= hyper.min_replay and env_steps % hyper.train_every == 0:
                losses.append(_gradient_step(qnet, target, replay, hyper, sample_rng))
                grad_steps += 1
                if grad_steps % hyper.target_sync == 0:
                    target.copy_from(qnet)
        if pending is not None:
            final = {}
            if world.truncated:
                survivors = world.alive_agents()
                final = dict(zip(survivors, featurize(world, survivors, compressor, provider)))
            _flush(replay, pending, final)
        metrics.append({
            "epoch": episode,
            "mean_return": episode_return,
            "mean_end_steps": float(world.t),
            "food_eaten_frac": (task_cfg.n_food - world.food_remaining()) / task_cfg.n_food,
            "actor_obj": 0.0,
            "critic_loss": float(np.mean(losses)) if losses else 0.0,
            "entropy": 0.0,
        })
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "metrics.csv", metrics)
    return DQNResult(metrics=metrics, qnet=qnet)


def _flush(replay: ReplayRing, pending, next_rows: dict):
    ids, x, actions, rewards, alive_after, food_out = pending
    zeros = np.zeros(x.shape[1], dtype=x.dtype)
    for row, agent in enumerate(ids):
        terminal = food_out or not alive_after[agent]
        nxt = next_rows.get(agent, zeros) if not terminal else zeros
        replay.push(x[row], actions[row], rewards[row], nxt, 1.0 if terminal else 0.0)


def _gradient_step(qnet: QNetwork, target: QNetwork, replay: ReplayRing,
                   hyper: DQNHyper, rng) -> float:
    x, a, r, x2, done = replay.sample(rng, hyper.batch_size)
    next_max = target.q_values(x2).max(axis=1)
    y = q_target(r, next_max, done, hyper.gamma).astype(x.dtype)
    q_sel = take_per_row(qnet.q_values_tensor(Tensor(x)), a)
    loss = mse(q_sel, y)
    qnet.store.zero_grad()
    backward(loss)
    optimizer_step(qnet.store, lr=hyper.lr)
    return float(loss.data)
