"""Protocol pre-training on random-policy episodes.

Episodes are replayed in batches, time-major: at each timestep the alive
agents of every episode in the batch are stacked into one feature matrix and
run through :meth:`NvifEncoder.step` with a block-diagonal normalized
adjacency, so no information leaks between episodes while the matmuls stay
large. The loss weights the per-agent rows of the reconstruction, divergence,
and consistency terms from :mod:`.losses` so that it averages them over
agents and episode-timesteps, and one optimizer step is taken per episode
batch. Gradients flow through the full hidden-state chain of each episode.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..commgraph import build_graph, fully_connected, normalize
from ..diffcore import backward, mul, no_grad, optimizer_step, sum as tsum
from ..env_gather import N_ACTIONS, new_world, observe, step
from ..errors import DataError, require_counts
from .encoder import NvifEncoder
from .losses import NvifLossReport, consistency_rows, kl_rows, recon_rows
from .obs_vae import ObsCompressor


@dataclass
class StepData:
    ids: tuple[int, ...]
    raw_obs: np.ndarray        # (n, obs_dim)
    feats: np.ndarray          # (n, obs_feat_width)
    positions: np.ndarray      # (n, 2) normalized
    adj_norm: np.ndarray       # (n, n)


@dataclass
class EpisodeRecord:
    steps: list[StepData]


@dataclass
class PretrainHyper:
    alpha: float = 0.1
    epochs: int = 200
    lr: float = 3e-3
    batch_episodes: int = 16
    recon_weight: float = 1.0
    seed: int = 0
    stop_recon_frac: float | None = None  # stop once recon <= frac * epoch-1 recon
                                          # and the consistency term sits below epoch 1

    def validate(self):
        require_counts("nvif", epochs=self.epochs, batch_episodes=self.batch_episodes)


def gather_step_data(world, ids, compressor: ObsCompressor, graph_kind: str = "neighbor",
                     dtype=np.float32) -> StepData:
    """Observations, compressed features, positions, and adjacency for one step."""
    obs = [observe(world, i) for i in ids]
    raw = np.stack([o.flat() for o in obs]).astype(dtype)
    feats = compressor.encode(raw).astype(dtype)
    pos = np.asarray([o.position for o in obs], dtype=dtype)
    if graph_kind == "full":
        graph = fully_connected(ids)
    else:
        graph = build_graph(world.agent_positions(ids), ids)
    return StepData(ids=tuple(ids), raw_obs=raw, feats=feats, positions=pos,
                    adj_norm=normalize(graph).astype(dtype))


def collect_pretrain_buffer(task_config, n_episodes: int, compressor: ObsCompressor,
                            rng: np.random.Generator, graph_kind: str = "neighbor"
                            ) -> list[EpisodeRecord]:
    """Random-policy episodes recorded as (observations, positions, graphs)."""
    buffer = []
    for _ in range(n_episodes):
        world = new_world(replace(task_config, seed=int(rng.integers(2 ** 62))))
        steps = []
        while not world.done:
            ids = world.alive_agents()
            if not ids:
                break
            steps.append(gather_step_data(world, ids, compressor, graph_kind))
            actions = {i: int(a) for i, a in zip(ids, rng.integers(0, N_ACTIONS, len(ids)))}
            step(world, actions)
        if not steps:
            raise DataError("collected an episode with no alive agents at t=0")
        buffer.append(EpisodeRecord(steps=steps))
    return buffer


def _block_diag(blocks: list[np.ndarray], dtype) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=dtype)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def _batch_loss(encoder: NvifEncoder, episodes: list[EpisodeRecord], alpha: float,
                recon_weight: float, rng: np.random.Generator):
    """Episode-batch loss tensor plus the averaged term values."""
    dt = encoder.config.np_dtype
    n_slots = sum(len(ep.steps) for ep in episodes)
    t_max = max(len(ep.steps) for ep in episodes)
    state = None
    total = None
    recon_val = kl_val = cons_val = 0.0
    for t in range(t_max):
        live = [(i, ep.steps[t]) for i, ep in enumerate(episodes) if len(ep.steps) > t]
        sizes = [len(sd.ids) for _, sd in live]
        keys = [(i, a) for i, sd in live for a in sd.ids]
        raw = np.concatenate([sd.raw_obs for _, sd in live])
        pos = np.concatenate([sd.positions for _, sd in live])
        adj = _block_diag([sd.adj_norm for _, sd in live], dt)
        center = _block_diag([np.full((k, k), 1.0 / k, dtype=dt) for k in sizes], dt)
        weights = np.concatenate([np.full(k, 1.0 / (k * n_slots), dtype=dt) for k in sizes])
        if state is None:
            state = encoder.init_state(keys)
        state, dist = encoder.step(np.concatenate([sd.feats for _, sd in live]), state,
                                   keys, adj, rng=rng)
        logits = encoder.decode(dist.latent, pos)

        recon_t = tsum(mul(recon_rows(raw, logits), weights))
        kl_t = tsum(mul(kl_rows(dist.mu, dist.log_sigma), weights))
        cons_t = tsum(mul(consistency_rows(dist.latent, center), weights))

        contrib = mul(recon_t, recon_weight) + kl_t
        if alpha != 0.0:
            contrib = contrib + mul(cons_t, alpha)
        total = contrib if total is None else total + contrib
        recon_val += recon_weight * float(recon_t.data)
        kl_val += float(kl_t.data)
        cons_val += float(cons_t.data)
    return total, recon_val, kl_val, cons_val, n_slots


def pretrain(buffer: list[EpisodeRecord], hyper: PretrainHyper, encoder: NvifEncoder):
    """Optimize encoder and decoder over the buffer; returns (encoder, history).

    One epoch iterates every episode once in seeded-shuffled batches. With
    ``stop_recon_frac`` set, training ends as soon as the epoch reconstruction
    term falls to that fraction of the first epoch's and the consistency term
    is below its first-epoch value.
    """
    hyper.validate()
    if not buffer:
        raise DataError("pretrain: empty episode buffer")
    rng = np.random.default_rng(hyper.seed)
    history: list[NvifLossReport] = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(buffer))
        sums = np.zeros(3)
        slots = 0
        for lo in range(0, len(order), hyper.batch_episodes):
            episodes = [buffer[i] for i in order[lo:lo + hyper.batch_episodes]]
            total, recon, kl, cons, n_slots = _batch_loss(
                encoder, episodes, hyper.alpha, hyper.recon_weight, rng)
            encoder.store.zero_grad()
            backward(total)
            optimizer_step(encoder.store, lr=hyper.lr)
            sums += np.array([recon, kl, cons]) * n_slots
            slots += n_slots
        recon, kl, cons = sums / slots
        history.append(NvifLossReport(
            recon=recon, kl=kl, consistency=cons,
            total=recon + kl + hyper.alpha * cons, alpha=hyper.alpha))
        if (hyper.stop_recon_frac is not None and len(history) > 1
                and recon <= hyper.stop_recon_frac * history[0].recon
                and cons < history[0].consistency):
            break
    return encoder, history


def pretrain_loss(buffer, encoder: NvifEncoder, alpha: float, recon_weight: float,
                  seed: int, batch_episodes: int = 16) -> NvifLossReport:
    """Loss of a frozen model over the buffer; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    sums = np.zeros(3)
    slots = 0
    with no_grad():
        for lo in range(0, len(buffer), batch_episodes):
            episodes = buffer[lo:lo + batch_episodes]
            _, recon, kl, cons, n_slots = _batch_loss(encoder, episodes, alpha,
                                                      recon_weight, rng)
            sums += np.array([recon, kl, cons]) * n_slots
            slots += n_slots
    recon, kl, cons = sums / slots
    return NvifLossReport(recon=recon, kl=kl, consistency=cons,
                          total=recon + kl + alpha * cons, alpha=alpha)
