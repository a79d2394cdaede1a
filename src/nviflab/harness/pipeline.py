"""High-level experiment steps shared by the CLI and the test suite."""
from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..env_gather import N_ACTIONS, new_world, observe, step
from ..errors import ConfigError, require_counts
from ..nvif import (
    NvifConfig,
    NvifEncoder,
    ObsCompressor,
    ObsCorpus,
    ObsVaeConfig,
    collect_pretrain_buffer,
    pretrain,
)
from ..policy import train_dqn, train_ppo
from .bundle import PolicyBundle
from .config import ALGORITHMS, ExperimentConfig


def collect_obs_corpus(task_cfg, episodes: int, rng: np.random.Generator,
                       max_samples: int | None = None) -> ObsCorpus:
    """Observation windows from random-policy play, in the order observed,
    as their uint8 hp-count codes (:func:`env_gather.observe`), the
    agents' normalized positions, and the task's hp maxima and map size.
    With ``max_samples``, the first ``max_samples`` windows.

    Both codes and positions are written into arrays sized for the most
    windows the episodes can yield (every agent alive at every step, cut at
    ``max_samples``) and shrunk to the rows filled."""
    limit = {} if max_samples is None else {"corpus_max_samples": max_samples}
    require_counts("obs_vae", corpus_episodes=episodes, **limit)
    room = episodes * task_cfg.max_steps * task_cfg.n_omnivores
    room = room if max_samples is None else min(room, max_samples)
    codes = np.empty((room, 2 * task_cfg.window ** 2), dtype=np.uint8)
    positions = np.empty((room, 2), dtype=np.float32)
    count = 0
    for _ in range(episodes):
        world = new_world(replace(task_cfg, seed=int(rng.integers(2 ** 62))))
        while not world.done and count < room:
            ids = world.alive_agents()
            kept = ids[:room - count]
            codes[count:count + len(kept)] = observe(world, kept)
            positions[count:count + len(kept)] = world.agent_positions(kept) / (
                task_cfg.map_size - 1)
            count += len(kept)
            step(world, rng.integers(0, N_ACTIONS, len(ids)))
        if count == room:  # no further rng draw, so the caller's stream goes on from here
            break
    # drop the rows no window filled; realloc shrinks each block in place, so
    # no second copy is made, as a slice's copy would
    codes.resize((count, codes.shape[1]), refcheck=False)
    positions.resize((count, 2), refcheck=False)
    return ObsCorpus(codes, positions, task_cfg.hp_omnivore, task_cfg.hp_food,
                     task_cfg.map_size)


def obs_vae_path(cfg: ExperimentConfig) -> Path:
    if cfg.obs_vae_checkpoint:
        return Path(cfg.obs_vae_checkpoint)
    return Path(cfg.out_dir) / "obs_vae.ckpt"


def encoder_path(cfg: ExperimentConfig) -> Path:
    if cfg.encoder_checkpoint:
        return Path(cfg.encoder_checkpoint)
    return Path(cfg.out_dir) / "encoder.ckpt"


def run_pretrain_obs(cfg: ExperimentConfig) -> ObsCompressor:
    task_cfg = cfg.task_config()
    section = cfg.obs_vae
    rng = np.random.default_rng(section.seed)
    corpus = collect_obs_corpus(
        task_cfg,
        episodes=section.corpus_episodes,
        rng=rng,
        max_samples=section.corpus_max_samples,
    )
    vae_cfg = ObsVaeConfig(
        obs_dim=task_cfg.obs_dim,
        latent_width=section.latent_width,
        hidden_width=section.hidden_width,
    )
    compressor = ObsCompressor(vae_cfg, rng)
    compressor.train(corpus, section)
    compressor.save(obs_vae_path(cfg))
    return compressor


def load_compressor(cfg: ExperimentConfig) -> ObsCompressor:
    return ObsCompressor.load(obs_vae_path(cfg))


def run_pretrain_nvif(cfg: ExperimentConfig, compressor: ObsCompressor | None = None):
    """Pre-train the encoder on the graphs the algorithm communicates over:
    the complete graph for latent mode "full", else neighbor graphs."""
    if compressor is None:
        compressor = load_compressor(cfg)
    task_cfg = cfg.task_config()
    section = cfg.nvif
    rng = np.random.default_rng(section.seed)
    buffer = collect_pretrain_buffer(task_cfg, section.buffer_episodes, compressor, rng,
                                     full_graph=ALGORITHMS[cfg.algorithm][1] == "full")
    enc_cfg = NvifConfig(
        obs_feat_width=compressor.config.latent_width,
        obs_dim=task_cfg.obs_dim,
        hidden_width=section.hidden_width,
        latent_width=section.latent_width,
        flow_layers=section.flow_layers,
        decoder_hidden=section.decoder_hidden,
    )
    encoder = NvifEncoder(enc_cfg, rng)
    encoder, history = pretrain(buffer, section, encoder)
    path = encoder_path(cfg)
    encoder.save(path)
    with open(path.parent / "pretrain_history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "recon", "kl", "consistency", "total"])
        for i, rep in enumerate(history):
            writer.writerow([i, rep.recon, rep.kl, rep.consistency, rep.total])
    return encoder, history


def load_encoder(cfg: ExperimentConfig) -> NvifEncoder:
    return NvifEncoder.load(encoder_path(cfg))


def train_run_dir(cfg: ExperimentConfig, seed: int) -> Path:
    return Path(cfg.out_dir) / f"train-{cfg.algorithm}-seed{seed}"


def run_training(cfg: ExperimentConfig, seed: int, resume: bool = False,
                 compressor: ObsCompressor | None = None,
                 encoder: NvifEncoder | None = None) -> Path:
    """Train one seed, write metrics + a self-contained bundle; returns run dir."""
    family, latent_mode = ALGORITHMS[cfg.algorithm]
    if resume and family != "ppo":
        raise ConfigError(f"{cfg.algorithm} cannot resume: only the PPO algorithms resume")
    if compressor is None:
        compressor = load_compressor(cfg)
    if encoder is None and latent_mode in ("nvif", "full"):
        encoder = load_encoder(cfg)
    task_cfg = cfg.task_config()
    run_dir = train_run_dir(cfg, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    if family == "ppo":
        result = train_ppo(task_cfg, compressor, replace(cfg.ppo, seed=seed),
                           latent_mode=latent_mode, encoder=encoder,
                           out_dir=run_dir, resume=resume)
        bundle = PolicyBundle(cfg.algorithm, latent_mode, cfg.task, compressor,
                              encoder=encoder, actor_critic=result.actor_critic)
    else:
        result = train_dqn(task_cfg, compressor, replace(cfg.dqn, seed=seed),
                           latent_mode=latent_mode, encoder=encoder, out_dir=run_dir)
        bundle = PolicyBundle(cfg.algorithm, latent_mode, cfg.task, compressor,
                              encoder=encoder, qnet=result.qnet)
    bundle.save(run_dir / "bundle.ckpt")
    return run_dir
