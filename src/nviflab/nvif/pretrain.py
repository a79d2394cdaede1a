"""Protocol pre-training on random-policy episodes.

Episodes are replayed in batches, time-major, on fixed agent slots: agents
never respawn and their ids are 0..N-1, so agent a of the j-th running
episode owns row j*N + a. Each step runs one :meth:`NvifEncoder.step` over
the (E, N, N) stack of the running episodes' normalized adjacencies, so no
information leaks between episodes. A dead agent's slot has a zero operator
row and column, so it never reaches a live row, and a zero loss weight; a
finished episode leaves the stack. The loss weights the per-agent rows of the
reconstruction, divergence and consistency terms from :mod:`.losses` by
1 / (k * episode-timesteps), k the episode's live agents, summing the live
rows alone in row order, and one optimizer step is taken per episode batch.
Gradients flow through each episode's full hidden-state chain.

The decoder is not recurrent, so its share of the backward pass runs at the
timestep that used it (per-step gradient checkpointing of the head): the
reconstruction term is decoded from a leaf copy of the live latents,
backpropagated at once into the ``dec/*`` gradients and the leaf, and joined
to the batch tape by :func:`diffcore.splice`. So the obs_dim-wide logits,
targets and decoder activations live for one timestep, not for the whole
batch, and the gradients are exactly those of the decoder on the batch tape.

The buffer stores the observation windows as the uint8 hp-count codes of
:func:`env_gather.observe`, 2*w*w bytes a window against the 28*w*w of
float32 rows, and the compressed features are encoded from those same codes,
as rollouts encode them. :func:`env_gather.decode_windows` rebuilds the float
windows exactly for the reconstruction targets from each episode's hp maxima
and map size, so the episodes of one batch must share them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..commgraph import build_graph, fully_connected, normalize
from ..diffcore import Tensor, backward, gather_rows, mul, optimizer_step, splice, sum as tsum
from ..env_gather import N_ACTIONS, decode_windows, new_world, observe, step
from ..errors import ConfigError, DataError, require_counts, require_rates
from .encoder import NvifEncoder
from .losses import NvifLossReport, consistency_rows, kl_rows, recon_rows
from .obs_vae import ObsCompressor


@dataclass(eq=False)  # array fields have no single truth value
class StepData:
    ids: tuple[int, ...]
    raw_obs: np.ndarray        # (n, 2*w*w) uint8 hp-count codes; see observe
    feats: np.ndarray          # (n, obs_feat_width)
    positions: np.ndarray      # (n, 2) normalized
    adj_norm: np.ndarray       # (n, n)


@dataclass(eq=False)  # its steps hold arrays
class EpisodeRecord:
    steps: list[StepData]
    hp_omnivore: int           # the task's hp maxima, which raw_obs counts in
    hp_food: int
    map_size: int              # the task's map, which the out-of-bounds channel follows


@dataclass
class PretrainHyper:
    alpha: float = 0.1
    epochs: int = 200
    lr: float = 3e-3
    batch_episodes: int = 16
    recon_weight: float = 1.0
    seed: int = 0

    def validate(self):
        require_counts("nvif", epochs=self.epochs, batch_episodes=self.batch_episodes)
        require_rates("nvif", lr=self.lr)
        for name in ("alpha", "recon_weight"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def gather_step_data(world, ids, compressor: ObsCompressor, full_graph: bool = False,
                     dtype=np.float32) -> StepData:
    """Window codes, compressed features, positions, and adjacency (of the
    complete graph with ``full_graph``, else the neighbor graph) for one step."""
    pos = world.agent_positions(ids)
    graph = fully_connected(ids) if full_graph else build_graph(pos, ids)
    codes = observe(world, ids)
    return StepData(ids=tuple(ids), raw_obs=codes,
                    feats=compressor.encode(codes, pos, world.config).astype(dtype),
                    positions=(pos / (world.config.map_size - 1)).astype(dtype),
                    adj_norm=normalize(graph).astype(dtype))


def collect_pretrain_buffer(task_config, n_episodes: int, compressor: ObsCompressor,
                            rng: np.random.Generator, full_graph: bool = False
                            ) -> list[EpisodeRecord]:
    """Random-policy episodes recorded as (observations, positions, graphs)."""
    require_counts("nvif", buffer_episodes=n_episodes)
    buffer = []
    for _ in range(n_episodes):
        world = new_world(replace(task_config, seed=int(rng.integers(2 ** 62))))
        steps = []
        while not world.done:
            ids = world.alive_agents()
            steps.append(gather_step_data(world, ids, compressor, full_graph))
            step(world, rng.integers(0, N_ACTIONS, len(ids)))
        if not steps:
            raise DataError("collected an episode with no alive agents at t=0")
        buffer.append(EpisodeRecord(steps, task_config.hp_omnivore, task_config.hp_food,
                                    task_config.map_size))
    return buffer


def _weighted_sum(rows: Tensor, weights: np.ndarray, live: np.ndarray) -> Tensor:
    """``sum(rows * weights)`` as one node whose gradient is ``weights``. Its
    value adds the ``live`` rows alone, in row order, so it is the sum over
    the stacked live rows whatever slots lie between them."""
    return splice(rows, (rows.data * weights)[live].sum(), weights)


def _recon_term(encoder: NvifEncoder, latent: Tensor, live: np.ndarray, pos: np.ndarray,
                obs: np.ndarray, weights: np.ndarray, recon_weight: float):
    """One timestep's weighted reconstruction term of the ``live`` rows of
    ``latent``, and its unweighted value. Its backward pass runs here: it
    adds the ``dec/*`` weight gradients into the store, and the term joins the
    caller's tape as a :func:`splice` on ``latent``, so the decoder's
    obs_dim-wide arrays die with this call."""
    leaf = Tensor(latent.data[live], requires_grad=True)
    recon = tsum(mul(recon_rows(obs, encoder.decode(leaf, pos)), weights))
    term = mul(recon, recon_weight)
    backward(term)
    grad = np.zeros_like(latent.data)
    grad[live] = leaf.grad
    return splice(latent, term.data, grad), float(recon.data)


def _batch_loss(encoder: NvifEncoder, episodes: list[EpisodeRecord], alpha: float,
                recon_weight: float, rng: np.random.Generator):
    """Episode-batch loss tensor plus the averaged term values.

    The ``dec/*`` gradients of the returned loss are already added to the
    store's; backpropagating the loss adds the rest."""
    dt = encoder.config.np_dtype
    first = episodes[0]
    codec = (first.hp_omnivore, first.hp_food, first.map_size)
    if any((ep.hp_omnivore, ep.hp_food, ep.map_size) != codec for ep in episodes[1:]):
        raise DataError("an episode batch mixes tasks with different hp maxima or map sizes")
    n = 1 + max(max(ep.steps[0].ids) for ep in episodes)
    n_slots = sum(len(ep.steps) for ep in episodes)
    hidden = np.zeros((len(episodes) * n, encoder.config.hidden_width), dtype=dt)
    running, live, center, total = list(range(len(episodes))), None, None, None
    recon_val = kl_val = cons_val = 0.0
    for t in range(max(len(ep.steps) for ep in episodes)):
        # a finished episode leaves the stack rather than pad it: the rows
        # are those of the concatenated live agents, which BLAS rounds alike
        at = [j for j, i in enumerate(running) if t < len(episodes[i].steps)]
        if len(at) < len(running):
            hidden = gather_rows(hidden, (np.asarray(at)[:, None] * n + np.arange(n)).ravel())
            running, live, center = [running[j] for j in at], live[at], None
        steps = [episodes[i].steps[t] for i in running]
        now, adj = np.zeros((len(steps), n), dtype=bool), np.zeros((len(steps), n, n), dtype=dt)
        feats, codes, pos = (np.zeros((len(steps) * n, a.shape[1]), a.dtype) for a in
                             (steps[0].feats, steps[0].raw_obs, steps[0].positions))
        for j, sd in enumerate(steps):
            ids = np.asarray(sd.ids)
            now[j, ids], adj[j][np.ix_(ids, ids)] = True, sd.adj_norm
            at = j * n + ids
            feats[at], codes[at], pos[at] = sd.feats, sd.raw_obs, sd.positions
        if live is not None and (now & ~live).any():
            raise DataError(f"an agent alive at step {t} was dead at {t - 1}: none respawn")
        if center is None or not np.array_equal(now, live):
            live, k = now, np.maximum(now.sum(axis=1), 1)[:, None]
            weights = (live / (k * n_slots)).astype(dt).ravel()
            center = ((live[:, :, None] & live[:, None, :]) / k[:, :, None]).astype(dt)
        rows = live.ravel()
        hidden, dist = encoder.step(feats, hidden, adj, rng=rng, live=rows)
        recon_t, recon = _recon_term(encoder, dist.latent, rows, pos[rows],
                                     decode_windows(codes[rows], pos[rows], first),
                                     weights[rows], recon_weight)
        kl_t = _weighted_sum(kl_rows(dist.mu, dist.log_sigma), weights, rows)
        cons_t = _weighted_sum(consistency_rows(dist.latent, center), weights, rows)

        contrib = recon_t + kl_t if alpha == 0.0 else recon_t + kl_t + mul(cons_t, alpha)
        total = contrib if total is None else total + contrib
        recon_val += recon_weight * recon
        kl_val += float(kl_t.data)
        cons_val += float(cons_t.data)
    return total, recon_val, kl_val, cons_val, n_slots


def pretrain(buffer: list[EpisodeRecord], hyper: PretrainHyper, encoder: NvifEncoder):
    """Optimize encoder and decoder over the buffer; returns (encoder, history).

    One epoch iterates every episode once in seeded-shuffled batches."""
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
            backward(total)
            del total  # frees this batch's tape before the next one is built
            optimizer_step(encoder.store, lr=hyper.lr)
            sums += np.array([recon, kl, cons]) * n_slots
            slots += n_slots
        recon, kl, cons = sums / slots
        history.append(NvifLossReport(
            recon=recon, kl=kl, consistency=cons,
            total=recon + kl + hyper.alpha * cons, alpha=hyper.alpha))
    return encoder, history
