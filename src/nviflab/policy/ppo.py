"""Clipped-objective policy optimization with agent-specific rewards.

One trainer serves every algorithm variant; the latent provider decides
whether agents see encoder latents (neighbor or complete graph), the mean
compressed observation, or nothing. Per epoch: collect episodes, finalize
per-agent advantages and return targets (advantage plus value, the
lambda-return), then several shuffled minibatch passes maximizing the
clipped surrogate (plus an entropy bonus) and minimizing the squared value
error against the return targets.

The checkpoint (one file, ``<out_dir>/checkpoint``, rewritten after every
epoch) carries parameters, optimizer moments, all rng streams, and the
metric rows, so a resumed run replays the remaining epochs bit-exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
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
from ..errors import ConfigError, DataError, require_counts
from ..nvif import NvifEncoder, ObsCompressor
from .actor_critic import ActorCritic, PolicyConfig
from .providers import featurize, make_provider
from .returns import compute_gae

METRIC_COLUMNS = ("epoch", "mean_return", "mean_end_steps", "food_eaten_frac",
                  "actor_obj", "critic_loss", "entropy")


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
    adv_norm: bool = True
    latent_sample: bool = True
    stop_food_frac: float | None = None  # stop once an epoch's mean hits this
    seed: int = 0

    def validate(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigError(f"clip_eps must be in (0, 1), got {self.clip_eps}")
        require_counts("ppo", episodes_per_epoch=self.episodes_per_epoch,
                       update_passes=self.update_passes, minibatch_slots=self.minibatch_slots,
                       hidden_width=self.hidden_width)


@dataclass
class EpochBatch:
    x: np.ndarray          # (rows, input_width)
    actions: np.ndarray    # (rows,)
    logp_old: np.ndarray   # (rows,)
    adv: np.ndarray        # (rows,)
    ret: np.ndarray        # (rows,)
    slot: np.ndarray       # (rows,) timestep-group index
    n_slots: int


@dataclass
class EpisodeStats:
    episode_return: float
    end_steps: int
    food_eaten_frac: float


@dataclass
class PPOResult:
    metrics: list[dict]
    actor_critic: ActorCritic
    episodes_done: int


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

    The rows are (inputs, actions, action probabilities, advantages, return
    targets, timesteps), grouped by agent. Advantages are GAE; the return
    target is advantage plus value. Each agent's stream ends with a bootstrap
    value: when the episode is cut at ``max_steps`` with food left
    (``world.truncated``), a survivor bootstraps from V(s_T) of the final
    state (one extra :func:`featurize` and value call), because the time
    limit is not part of the task (arXiv 1712.00378). An agent that died,
    and every agent when the food ran out, bootstraps from 0.
    """
    world = new_world(replace(task_cfg, seed=env_seed))
    provider.reset()
    streams: dict[int, dict] = {}
    while not world.done:
        ids = world.alive_agents()
        x = featurize(world, ids, compressor, provider)
        t_now = world.t
        actions, probs = ac.act(x, action_rng)
        values = ac.values(x)
        result = step(world, dict(zip(ids, actions.tolist())))
        for row, i in enumerate(ids):
            s = streams.setdefault(i, {"x": [], "a": [], "p": [], "r": [], "v": [], "t": []})
            s["x"].append(x[row])
            s["a"].append(actions[row])
            s["p"].append(probs[row])
            s["r"].append(result.rewards[i])
            s["v"].append(values[row])
            s["t"].append(t_now)
    final_v = {}
    if world.truncated:
        survivors = world.alive_agents()
        final_v = dict(zip(survivors, ac.values(
            featurize(world, survivors, compressor, provider))))
    rows_x, rows_a, rows_p, rows_adv, rows_ret, rows_t = [], [], [], [], [], []
    episode_return = 0.0
    for i, s in streams.items():
        r = np.asarray(s["r"])
        v = np.asarray(s["v"])
        episode_return += float(r.sum())
        adv = compute_gae(r, np.append(v, final_v.get(i, 0.0)), gamma, lam)
        ret = adv + v
        rows_x.extend(s["x"])
        rows_a.extend(s["a"])
        rows_p.extend(s["p"])
        rows_adv.extend(adv)
        rows_ret.extend(ret)
        rows_t.extend(s["t"])
    stats = EpisodeStats(
        episode_return=episode_return,
        end_steps=world.t,
        food_eaten_frac=(task_cfg.n_food - world.food_remaining()) / task_cfg.n_food,
    )
    return (np.asarray(rows_x), np.asarray(rows_a), np.asarray(rows_p),
            np.asarray(rows_adv), np.asarray(rows_ret), np.asarray(rows_t)), stats


def _update(ac: ActorCritic, batch: EpochBatch, hyper: PPOHyper, shuffle_rng):
    """The k-pass minibatch update; returns averaged diagnostics."""
    adv = batch.adv
    if hyper.adv_norm:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    slot_rows: dict[int, list[int]] = {}
    for row, slot in enumerate(batch.slot):
        slot_rows.setdefault(int(slot), []).append(row)
    slot_ids = sorted(slot_rows)
    logp_old = np.log(batch.logp_old)
    sums = np.zeros(3)
    n_updates = 0
    for _ in range(hyper.update_passes):
        order = shuffle_rng.permutation(len(slot_ids))
        for lo in range(0, len(order), hyper.minibatch_slots):
            chosen = order[lo:lo + hyper.minibatch_slots]
            rows = np.concatenate([slot_rows[slot_ids[k]] for k in chosen])
            x = batch.x[rows]
            objective, entropy = ppo_actor_objective(
                ac, x, batch.actions[rows], logp_old[rows], adv[rows],
                n_slots=len(chosen), clip_eps=hyper.clip_eps)
            actor_loss = mul(objective + mul(entropy, hyper.entropy_coef), -1.0)
            ac.actor.zero_grad()
            backward(actor_loss)
            optimizer_step(ac.actor, lr=hyper.lr)
            closs = critic_loss(ac, x, batch.ret[rows])
            ac.critic.zero_grad()
            backward(closs)
            optimizer_step(ac.critic, lr=hyper.lr)
            per_row_entropy = float(entropy.data) * len(chosen) / len(rows)
            sums += [float(objective.data), float(closs.data), per_row_entropy]
            n_updates += 1
    return sums / n_updates


def _rng_state(gen) -> dict:
    return gen.bit_generator.state


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

    if resume:
        if ckpt is None:
            raise ConfigError("resume requested without an out_dir to resume from")
        saved, stores = load_checkpoint(ckpt)
        ac = ActorCritic.from_checkpoint(saved, stores)
        env_rng = _restore_rng(saved["rng"]["env"])
        action_rng = _restore_rng(saved["rng"]["action"])
        latent_rng = _restore_rng(saved["rng"]["latent"])
        shuffle_rng = _restore_rng(saved["rng"]["shuffle"])
        metrics = saved["metrics"]
        epoch = saved["epoch"]
        episodes_done = saved["episodes_done"]
        stopped = saved["stopped"]
    else:
        seq = np.random.SeedSequence(hyper.seed)
        env_s, act_s, lat_s, shuf_s, init_s = seq.spawn(5)
        env_rng = np.random.default_rng(env_s)
        action_rng = np.random.default_rng(act_s)
        latent_rng = np.random.default_rng(lat_s)
        shuffle_rng = np.random.default_rng(shuf_s)
        metrics = []
        epoch = 0
        episodes_done = 0
        stopped = False

    provider = make_provider(latent_mode, feat_width, encoder=encoder,
                             rng=latent_rng, sample=hyper.latent_sample)
    if not resume:
        ac = ActorCritic(PolicyConfig(input_width=feat_width + provider.width,
                                      hidden_width=hyper.hidden_width),
                         np.random.default_rng(init_s))

    def save_state():
        if ckpt is None:
            return
        policy_meta, stores = ac.checkpoint_parts()
        state = {
            "epoch": epoch, "episodes_done": episodes_done, "stopped": stopped,
            "metrics": metrics,
            "rng": {"env": _rng_state(env_rng), "action": _rng_state(action_rng),
                    "latent": _rng_state(latent_rng), "shuffle": _rng_state(shuffle_rng)},
        }
        save_checkpoint(ckpt, state | policy_meta, stores)
        write_metrics_csv(out_dir / "metrics.csv", metrics)

    while epoch < hyper.epochs and not stopped:
        parts, stats = [], []
        slot_base = 0
        for _ in range(hyper.episodes_per_epoch):
            env_seed = int(env_rng.integers(2 ** 62))
            (x, a, p, adv, ret, t), st = collect_episode(
                task_cfg, env_seed, compressor, provider, ac, action_rng,
                hyper.gamma, hyper.lam)
            parts.append((x, a, p, adv, ret, t + slot_base))
            slot_base += int(t.max()) + 1
            stats.append(st)
            episodes_done += 1
        batch = EpochBatch(
            x=np.concatenate([p[0] for p in parts]),
            actions=np.concatenate([p[1] for p in parts]),
            logp_old=np.concatenate([p[2] for p in parts]),
            adv=np.concatenate([p[3] for p in parts]),
            ret=np.concatenate([p[4] for p in parts]),
            slot=np.concatenate([p[5] for p in parts]),
            n_slots=slot_base,
        )
        actor_obj, closs, entropy = _update(ac, batch, hyper, shuffle_rng)
        food_frac = float(np.mean([s.food_eaten_frac for s in stats]))
        metrics.append({
            "epoch": epoch,
            "mean_return": float(np.mean([s.episode_return for s in stats])),
            "mean_end_steps": float(np.mean([s.end_steps for s in stats])),
            "food_eaten_frac": food_frac,
            "actor_obj": float(actor_obj),
            "critic_loss": float(closs),
            "entropy": float(entropy),
        })
        epoch += 1
        if hyper.stop_food_frac is not None and food_frac >= hyper.stop_food_frac:
            stopped = True
        save_state()
    if out_dir is not None:
        write_metrics_csv(out_dir / "metrics.csv", metrics)
    return PPOResult(metrics=metrics, actor_critic=ac, episodes_done=episodes_done)
