"""Seeded golden outputs of the communication encoder's two callers.

- ``rollout``: the latents :class:`policy.NvifLatents` returns over one
  seeded random-policy ``desk-random-16`` episode;
- ``shrinking``: its latents over a hand-built step sequence whose alive
  set shrinks, one agent at a time and then several at once;
- ``pretrain``: the encoder store and the loss history after one
  :func:`nvif.pretrain` epoch on a small buffer of two episodes of
  different lengths, one of which loses an agent part-way.

Each array is recorded as its sha256, its shape and a sample of its
values, so a run on another numpy or BLAS build can still be compared to a
tolerance. Regenerate the file with

    PYTHONPATH=src python tests/golden/make_golden.py

only when a change to the numerics is deliberate, and say so in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from nviflab.env_gather import N_ACTIONS, new_world, preset, step
from nviflab.nvif import (NvifConfig, NvifEncoder, ObsCompressor, ObsVaeConfig, PretrainHyper,
                          collect_pretrain_buffer, pretrain)
from nviflab.policy import NvifLatents, featurize

GOLDEN = Path(__file__).with_name("encoder.json")
SAMPLES = 32  # values kept of each array, evenly spaced over its elements


def build() -> dict:
    """numpy, its BLAS build and the SIMD targets it dispatches to: the
    outputs are bit-exact only where all three match."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}


def record(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    at = np.linspace(0, a.size - 1, min(SAMPLES, a.size)).astype(np.int64)
    return {"sha256": hashlib.sha256(a.tobytes()).hexdigest(), "shape": list(a.shape),
            "dtype": str(a.dtype), "sample": a.ravel()[at].astype(np.float64).tolist()}


def compressor(task) -> ObsCompressor:
    """A freshly initialized compressor, marked trained."""
    config = ObsVaeConfig(obs_dim=task.obs_dim, latent_width=8, hidden_width=48)
    return ObsCompressor(config, np.random.default_rng(3), trained=True)


def encoder(task) -> NvifEncoder:
    return NvifEncoder(NvifConfig(obs_feat_width=8, obs_dim=task.obs_dim),
                       np.random.default_rng(4))


def rollout_latents() -> np.ndarray:
    """Every step's latents over one random-policy episode, stacked."""
    task = preset("desk-random-16", seed=5)
    comp, provider = compressor(task), NvifLatents(encoder(task), np.random.default_rng(6))
    world, actions, rows = new_world(task), np.random.default_rng(7), []
    provider.reset()
    while not world.done:
        ids = world.alive_agents()
        rows.append(featurize(world, ids, comp, provider)[:, 8:])
        step(world, actions.integers(0, N_ACTIONS, len(ids)))
    return np.concatenate(rows)


SHRINKING = [(0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 3, 4, 5), (0, 1, 3, 4, 5),
             (1, 3, 5), (3,), (3,)]


def shrinking_latents() -> np.ndarray:
    """The latents of a hand-built step sequence in which agents only die."""
    task = preset("desk-random-16", seed=5)
    provider = NvifLatents(encoder(task), np.random.default_rng(8))
    rng, rows = np.random.default_rng(9), []
    provider.reset()
    for ids in SHRINKING:
        cells = rng.permutation(task.map_size ** 2)[:len(ids)]
        positions = np.stack([cells % task.map_size, cells // task.map_size], axis=1)
        feats = rng.standard_normal((len(ids), 8)).astype(np.float32)
        rows.append(provider.step(feats, positions, list(ids)))
    return np.concatenate(rows)


def pretrain_buffer() -> list:
    """Two episodes of different lengths; the second loses an agent at t=7."""
    task = preset("desk-random-16", seed=1, hp_omnivore=1, max_steps=12)
    buffer = collect_pretrain_buffer(task, 2, compressor(task), np.random.default_rng(1))
    return [replace(buffer[0], steps=buffer[0].steps[:9]), buffer[1]]


def pretrained() -> tuple[dict, list]:
    buffer = pretrain_buffer()
    enc, history = pretrain(buffer, PretrainHyper(epochs=1, batch_episodes=2, seed=2),
                            encoder(preset("desk-random-16")))
    return {n: enc.store[n].data for n in enc.store.names()}, [asdict(r) for r in history]


def outputs() -> dict:
    store, history = pretrained()
    return {"rollout": record(rollout_latents()), "shrinking": record(shrinking_latents()),
            "pretrain": {"store": {n: record(a) for n, a in store.items()},
                         "history": history}}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"build": build(), **outputs()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
