"""Deep Q-learning on [compressed observation || latent] inputs.

Standard machinery: a ring replay buffer that stores each row once and finds
next states by index, one gradient step per environment step once it holds
``min_replay`` rows, target network refreshed every ``target_sync`` gradient
steps, linear epsilon schedule over environment steps, per-agent transitions
with agent death or the food running out as terminals. A cut at ``max_steps``
is not a terminal: a survivor's last transition leads to its final-state row,
so the target bootstraps from it (arXiv 1712.00378).
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
from ..errors import ConfigError, ProtocolError, require_counts, require_rates
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
    hidden_width: int = 64
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
                       min_replay=self.min_replay, hidden_width=self.hidden_width)


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
    """Slot ``i`` holds a transition from ``x[i]`` to ``rows[nxt[i]]``. One
    row store holds the slots' ``x``, a zero row for terminals, a stage for
    the next step's rows (re-pointed to their slots once that step is pushed)
    and a ring of truncated survivors' final rows. Each survivor of a cut has
    ``max_steps`` transitions, so the final rows in use number at most
    ``capacity // max_steps``, plus ``n_agents`` of one episode straddling
    the oldest slot."""

    def __init__(self, capacity: int, width: int, n_agents: int, max_steps: int,
                 dtype=np.float32):
        self.finals = capacity // max_steps + n_agents
        self.rows = np.zeros((capacity + 1 + n_agents + self.finals, width), dtype=dtype)
        self.x = self.rows[:capacity]
        self.nxt = np.zeros(capacity, dtype=np.int32)
        self.a = np.zeros(capacity, dtype=np.int8)
        self.r = np.zeros(capacity, dtype=np.float64)
        self.done = np.zeros(capacity, dtype=bool)
        self.capacity, self.stage, self.final_base = capacity, capacity + 1, capacity + 1 + n_agents
        self.staged = np.zeros(0, dtype=np.intp)
        self.idx = self.size = self.final_idx = 0

    def push(self, x, a, r, nxt, to, final: bool):
        """One step's rows. Row ``j`` leads to ``nxt[to[j]]``, or is terminal
        where ``to[j] < 0``; ``nxt`` holds the next step's rows or, with
        ``final``, the survivors' final rows."""
        c, k, m, staged = self.capacity, len(x), len(nxt), self.staged
        self.nxt[staged] = (self.nxt[staged] + (self.idx - self.stage)) % c
        if final:
            at = self.final_base + (self.final_idx + np.arange(m)) % self.finals
            ptr = np.where(to < 0, c, self.final_base + (self.final_idx + to) % self.finals)
            self.final_idx = (self.final_idx + m) % self.finals
        else:  # the stage sits just above the zero row, which to == -1 picks
            at, ptr = slice(self.stage, self.stage + m), to + self.stage
        self.rows[at] = nxt
        skip = max(0, k - c)  # a step of more rows than slots keeps its last
        slots, done = np.arange(self.idx + skip, self.idx + k) % c, to[skip:] < 0
        self.x[slots], self.a[slots], self.r[slots] = x[skip:], a[skip:], r[skip:]
        self.done[slots], self.nxt[slots] = done, ptr[skip:]
        self.staged = slots[:0] if final else slots[~done]
        self.idx, self.size = (self.idx + k) % c, min(self.size + k, c)

    def sample(self, rng, n):
        idx = rng.integers(0, self.size, n)
        return self.x[idx], self.a[idx], self.r[idx], self.rows[self.nxt[idx]], self.done[idx]


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
    provider = make_provider(latent_mode, feat_width, encoder=encoder, rng=latent_rng)
    width = feat_width + provider.width
    qnet = QNetwork(width, hyper.hidden_width, np.random.default_rng(init_s))
    target = QNetwork(width, hyper.hidden_width, np.random.default_rng(init_s))
    target.copy_from(qnet)
    replay = ReplayRing(hyper.replay_capacity, width, task_cfg.n_omnivores, task_cfg.max_steps)

    env_steps = 0
    grad_steps = 0
    metrics = []
    for episode in range(hyper.episodes):
        world = new_world(replace(task_cfg, seed=int(env_rng.integers(2 ** 62))))
        provider.reset()
        pending = None  # (ids, x, a, r, alive_after, food_out), arrays aligned with ids
        episode_return = 0.0
        losses = []
        while not world.done:
            ids = world.alive_agents()
            x = featurize(world, ids, compressor, provider)
            if pending is not None:
                _flush(replay, pending, ids, x)
            eps = epsilon_at(hyper, env_steps)
            q = qnet.q_values(x)
            greedy = q.argmax(axis=1)
            explore = action_rng.random(len(ids)) < eps
            randoms = action_rng.integers(0, N_ACTIONS, len(ids))
            actions = np.where(explore, randoms, greedy)
            result = step(world, actions)
            episode_return += float(result.rewards.sum())
            pending = (result.ids, x, actions, result.rewards, result.alive,
                       result.food_remaining == 0)
            env_steps += 1
            if replay.size >= hyper.min_replay:
                losses.append(_gradient_step(qnet, target, replay, hyper, sample_rng))
                grad_steps += 1
                if grad_steps % hyper.target_sync == 0:
                    target.copy_from(qnet)
        if pending is not None:
            survivors = world.alive_agents() if world.truncated else []
            last = featurize(world, survivors, compressor, provider) if survivors else x[:0]
            _flush(replay, pending, survivors, last, final=True)
        metrics.append({
            "epoch": episode,
            "mean_return": episode_return,
            "mean_end_steps": float(world.t),
            "food_eaten_frac": world.food_eaten_frac,
            "actor_obj": 0.0,
            "critic_loss": float(np.mean(losses)) if losses else 0.0,
            "entropy": 0.0,
        })
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "metrics.csv", metrics)
    return DQNResult(metrics=metrics, qnet=qnet)


def _flush(replay: ReplayRing, pending, next_ids, next_x, final=False):
    """Pushes the pending step; a live agent leads to its row of ``next_x``,
    found by its position in ``next_ids`` (ascending, as ``alive_agents()``)."""
    ids, x, actions, rewards, alive_after, food_out = pending
    row = np.searchsorted(next_ids, ids)
    live = alive_after & (not food_out)
    missing = live & (np.append(next_ids, -1)[row] != ids)
    if missing.any():
        raise ProtocolError(f"replay: agents {ids[missing].tolist()} are not terminal "
                            f"but have no next row")
    replay.push(x, actions, rewards, next_x, np.where(live, row, -1), final)


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
