"""Clipped-objective policy optimization with agent-specific rewards.

One trainer serves every algorithm variant; the latent provider decides
whether agents see encoder latents (neighbor or complete graph), the mean
compressed observation, or nothing. Per epoch: collect episodes as (T, n)
step-by-agent arrays, one GAE pass each giving every agent's advantages and
return targets (advantage plus value, the lambda-return), then several
shuffled passes over minibatches of timesteps maximizing the clipped
surrogate (plus an entropy bonus) and minimizing the squared value error.

The checkpoint (one file, ``<out_dir>/checkpoint``, rewritten after every
epoch) carries parameters, optimizer moments, all rng streams, the metric
rows and the run's settings, so a resumed run replays the remaining epochs
bit-exactly; a resume with other settings is refused before it runs.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..diffcore import (
    Tensor,
    backward,
    clamp,
    exp,
    load_checkpoint,
    log_softmax,
    minimum,
    mse,
    mul,
    optimizer_step,
    save_checkpoint,
    sub,
    sum as tsum,
    take_per_row,
)
from ..env_gather import TaskConfig, new_world, step
from ..errors import ConfigError, DataError, require_counts, require_rates
from ..nvif import NvifEncoder, ObsCompressor
from .actor_critic import ActorCritic, PolicyConfig
from .providers import featurize, make_provider
from .returns import compute_gae

METRIC_COLUMNS = ("epoch", "mean_return", "mean_end_steps", "food_eaten_frac",
                  "actor_obj", "critic_loss", "entropy")
RNG_STREAMS = ("env", "action", "latent", "shuffle")  # the checkpoint's keys


@dataclass
class PPOHyper:
    gamma: float = 0.99
    lam: float = 0.95
    clip_eps: float = 0.2
    epochs: int = 100
    episodes_per_epoch: int = 16
    update_passes: int = 4
    minibatch_slots: int = 64          # timestep groups per minibatch
    entropy_coef: float = 0.01
    lr: float = 3e-4
    hidden_width: int = 64
    seed: int = 0

    def validate(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigError(f"clip_eps must be in (0, 1), got {self.clip_eps}")
        if not self.entropy_coef >= 0.0:
            raise ConfigError(f"entropy_coef must be >= 0, got {self.entropy_coef}")
        require_rates("ppo", lr=self.lr)
        require_counts("ppo", episodes_per_epoch=self.episodes_per_epoch,
                       update_passes=self.update_passes, minibatch_slots=self.minibatch_slots,
                       hidden_width=self.hidden_width)


@dataclass
class EpochBatch:
    x: np.ndarray          # (rows, input_width)
    actions: np.ndarray    # (rows,)
    probs: np.ndarray      # (rows,) behavior probabilities of the actions
    adv: np.ndarray        # (rows,)
    ret: np.ndarray        # (rows,)
    slot: np.ndarray       # (rows,) timestep-group index


@dataclass
class EpisodeStats:
    episode_return: float
    end_steps: int
    food_eaten_frac: float


@dataclass
class PPOResult:
    metrics: list[dict]
    actor_critic: ActorCritic


def clipped_term(ratio, adv, eps: float) -> Tensor:
    """Per-sample surrogate min(rho*A, clip(rho, 1-eps, 1+eps)*A) of the
    probability ratio rho."""
    return minimum(mul(ratio, adv), mul(clamp(ratio, 1.0 - eps, 1.0 + eps), adv))


def ppo_actor_objective(ac: ActorCritic, batch_x, actions, logp_old, adv,
                        n_slots: int, clip_eps: float):
    """Surrogate objective tensor (to maximize) and the summed policy entropy.

    Both are normalized by the number of timestep groups, i.e. they estimate
    a per-timestep sum over agents.
    """
    if np.any(logp_old == -np.inf) or np.any(np.isnan(logp_old)):
        raise DataError("ppo_actor_objective: stored behavior probability is zero/invalid")
    logp = log_softmax(ac.logits(Tensor(batch_x)))
    lp_a = take_per_row(logp, actions)
    ratio = exp(sub(lp_a, logp_old.astype(batch_x.dtype)))
    surrogate = clipped_term(ratio, adv.astype(batch_x.dtype), clip_eps)
    objective = mul(tsum(surrogate), 1.0 / n_slots)
    entropy = mul(tsum(mul(exp(logp), logp)), -1.0 / n_slots)
    return objective, entropy


def critic_loss(ac: ActorCritic, batch_x, returns) -> Tensor:
    """Mean squared error of predicted values against the return targets."""
    v = ac.value(Tensor(batch_x))
    target = returns.astype(batch_x.dtype).reshape(-1, 1)
    return mse(v, target)


def collect_episode(task_cfg: TaskConfig, env_seed: int, compressor: ObsCompressor,
                    provider, ac: ActorCritic, action_rng, gamma: float, lam: float):
    """Roll one episode; returns flattened update rows plus episode stats.

    Each step fills its alive agents' cells of (T, n) arrays, T = ``max_steps``
    and n = ``n_agents``. The values get one more row for the bootstrap, and
    cells no agent filled stay 0, so one :func:`compute_gae` over the time
    axis serves every agent. When the episode is cut at ``max_steps`` with
    food left (``world.truncated``), a survivor bootstraps from V(s_T) of the
    final state (one extra :func:`featurize` and value call), because the
    time limit is not part of the task (arXiv 1712.00378). An agent that
    died, and every agent when the food ran out, bootstraps from 0.

    The rows are (inputs, actions, action probabilities, advantages, return
    targets, timesteps), agent-major: agents ascending, each agent's steps in
    time order. Advantages are GAE; the return target is advantage plus value.
    """
    world = new_world(replace(task_cfg, seed=env_seed))
    provider.reset()
    horizon, n = task_cfg.max_steps, world.n_agents
    live = np.zeros((horizon, n), dtype=bool)
    acts = np.zeros((horizon, n), dtype=np.int64)
    probs, rewards = np.zeros((2, horizon, n))
    values = np.zeros((horizon + 1, n))
    xs = np.zeros((horizon, n, compressor.config.latent_width + provider.width),
                  dtype=compressor.config.dtype)
    while not world.done:
        t, ids = world.t, world.alive_agents()
        x = featurize(world, ids, compressor, provider)
        actions, p = ac.act(x, action_rng)
        live[t, ids], xs[t, ids], acts[t, ids], probs[t, ids] = True, x, actions, p
        values[t, ids] = ac.values(x)
        rewards[t, ids] = step(world, actions).rewards
    end = world.t
    if world.truncated:
        survivors = world.alive_agents()
        values[end, survivors] = ac.values(featurize(world, survivors, compressor, provider))
    adv = compute_gae(rewards[:end], values[:end + 1], gamma, lam)
    by_agent = live[:end].T
    x, a, p, adv, v, r = (arr[:end].swapaxes(0, 1)[by_agent]
                          for arr in (xs, acts, probs, adv, values, rewards))
    episode_return = 0.0  # per-agent sums in agent order; one sum of all rows rounds otherwise
    for agent_r in np.split(r, np.cumsum(by_agent.sum(axis=1))[:-1]):
        episode_return += float(agent_r.sum())
    stats = EpisodeStats(episode_return=episode_return, end_steps=end,
                         food_eaten_frac=world.food_eaten_frac)
    return (x, a, p, adv, adv + v, np.nonzero(by_agent)[1]), stats


def _update(ac: ActorCritic, batch: EpochBatch, hyper: PPOHyper, shuffle_rng):
    """The k-pass minibatch update over normalized advantages; returns
    averaged diagnostics."""
    adv = (batch.adv - batch.adv.mean()) / (batch.adv.std() + 1e-8)
    # every slot from 0 up has a row: each episode step has an alive agent
    slot_rows = np.split(np.argsort(batch.slot, kind="stable"),
                         np.cumsum(np.bincount(batch.slot))[:-1])
    logp_old = np.log(batch.probs)
    sums = np.zeros(3)
    n_updates = 0
    for _ in range(hyper.update_passes):
        order = shuffle_rng.permutation(len(slot_rows))
        for lo in range(0, len(order), hyper.minibatch_slots):
            chosen = order[lo:lo + hyper.minibatch_slots]
            rows = np.concatenate([slot_rows[k] for k in chosen])
            x = batch.x[rows]
            objective, entropy = ppo_actor_objective(
                ac, x, batch.actions[rows], logp_old[rows], adv[rows],
                n_slots=len(chosen), clip_eps=hyper.clip_eps)
            actor_loss = mul(objective + mul(entropy, hyper.entropy_coef), -1.0)
            closs = critic_loss(ac, x, batch.ret[rows])
            # the stores are disjoint and the critic reads no actor parameter,
            # so one pass gives each store its own loss's gradient
            backward(actor_loss + closs)
            optimizer_step(ac.actor, lr=hyper.lr)
            optimizer_step(ac.critic, lr=hyper.lr)
            per_row_entropy = float(entropy.data) * len(chosen) / len(rows)
            sums += [float(objective.data), float(closs.data), per_row_entropy]
            n_updates += 1
    return sums / n_updates


def _restore_rng(state: dict):
    gen = np.random.default_rng(0)
    gen.bit_generator.state = state
    return gen


def write_metrics_csv(path, rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in METRIC_COLUMNS])


def train_ppo(task_cfg: TaskConfig, compressor: ObsCompressor, hyper: PPOHyper,
              latent_mode: str = "nvif", encoder: NvifEncoder | None = None,
              out_dir=None, resume: bool = False) -> PPOResult:
    """Full training run (optionally resumed from ``out_dir``'s checkpoint)."""
    hyper.validate()
    feat_width = compressor.config.latent_width
    compressor.check_obs_width(task_cfg)
    out_dir = Path(out_dir) if out_dir is not None else None
    ckpt = out_dir / "checkpoint" if out_dir else None
    # what a resume must keep, as the checkpoint's JSON holds it: all but epochs
    settings = json.loads(json.dumps({
        "latent_mode": latent_mode, **{f"task.{k}": v for k, v in asdict(task_cfg).items()},
        **{f"ppo.{k}": v for k, v in asdict(hyper).items() if k != "epochs"}}))

    if resume:
        if ckpt is None:
            raise ConfigError("resume requested without an out_dir to resume from")
        saved, stores = load_checkpoint(ckpt)
        recorded = saved.get("settings", {})
        if recorded != settings:
            diff = [f"{k} saved {recorded.get(k)!r}, given {settings.get(k)!r}"
                    for k in sorted(recorded.keys() | settings.keys())
                    if recorded.get(k) != settings.get(k)]
            raise ConfigError(f"{ckpt}: a resume must keep the run's settings: "
                              + ("; ".join(diff) if recorded else "none recorded"))
        ac = ActorCritic.from_checkpoint(saved, stores)
        env_rng, action_rng, latent_rng, shuffle_rng = (
            _restore_rng(saved["rng"][k]) for k in RNG_STREAMS)
        metrics = saved["metrics"]
        epoch = saved["epoch"]
    else:
        seq = np.random.SeedSequence(hyper.seed)
        env_s, act_s, lat_s, shuf_s, init_s = seq.spawn(5)
        env_rng = np.random.default_rng(env_s)
        action_rng = np.random.default_rng(act_s)
        latent_rng = np.random.default_rng(lat_s)
        shuffle_rng = np.random.default_rng(shuf_s)
        metrics = []
        epoch = 0

    provider = make_provider(latent_mode, feat_width, encoder=encoder, rng=latent_rng)
    if not resume:
        ac = ActorCritic(PolicyConfig(input_width=feat_width + provider.width,
                                      hidden_width=hyper.hidden_width),
                         np.random.default_rng(init_s))

    def save_state():
        if ckpt is None:
            return
        policy_meta, stores = ac.checkpoint_parts()
        state = {
            "epoch": epoch, "metrics": metrics, "settings": settings,
            "rng": {k: g.bit_generator.state for k, g in zip(
                RNG_STREAMS, (env_rng, action_rng, latent_rng, shuffle_rng))},
        }
        save_checkpoint(ckpt, state | policy_meta, stores)
        write_metrics_csv(out_dir / "metrics.csv", metrics)

    while epoch < hyper.epochs:
        parts, stats = [], []
        for _ in range(hyper.episodes_per_epoch):
            env_seed = int(env_rng.integers(2 ** 62))
            (x, a, p, adv, ret, t), st = collect_episode(
                task_cfg, env_seed, compressor, provider, ac, action_rng,
                hyper.gamma, hyper.lam)
            parts.append((x, a, p, adv, ret, t + sum(s.end_steps for s in stats)))
            stats.append(st)
        batch = EpochBatch(*map(np.concatenate, zip(*parts)))
        actor_obj, closs, entropy = _update(ac, batch, hyper, shuffle_rng)
        metrics.append({
            "epoch": epoch,
            "mean_return": float(np.mean([s.episode_return for s in stats])),
            "mean_end_steps": float(np.mean([s.end_steps for s in stats])),
            "food_eaten_frac": float(np.mean([s.food_eaten_frac for s in stats])),
            "actor_obj": float(actor_obj),
            "critic_loss": float(closs),
            "entropy": float(entropy),
        })
        epoch += 1
        save_state()
    if out_dir is not None:
        write_metrics_csv(out_dir / "metrics.csv", metrics)
    return PPOResult(metrics=metrics, actor_critic=ac)
