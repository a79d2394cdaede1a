"""Latent feature providers: what gets concatenated to the local observation.

The trainers are identical across algorithms; only the provider changes.
:func:`featurize` is the one observe -> compress -> provide -> concat step
that every rollout loop calls.
"""
from __future__ import annotations

import numpy as np

from ..commgraph import build_graph, fully_connected, normalize
from ..diffcore import no_grad
from ..env_gather import observe
from ..errors import ConfigError
from ..nvif import NvifEncoder, ObsCompressor


class EmptyLatents:
    """Independent learner: no auxiliary feature at all."""

    width = 0

    def reset(self):
        pass

    def step(self, feats, positions_int, ids) -> np.ndarray:
        return np.zeros((len(ids), 0), dtype=feats.dtype)


class MeanObsLatents:
    """Mean of all alive agents' compressed observations, tiled per agent."""

    def __init__(self, feat_width: int):
        self.width = feat_width

    def reset(self):
        pass

    def step(self, feats, positions_int, ids) -> np.ndarray:
        mean = feats.mean(axis=0)
        return np.tile(mean, (len(ids), 1))


class NvifLatents:
    """Latents sampled from a frozen encoder run over the live graph.

    ``neighbor_graph`` is the neighbor graph the latest :meth:`step` built,
    for callers that need the same graph (``None`` in full-graph mode).
    """

    def __init__(self, encoder: NvifEncoder, rng: np.random.Generator, full_graph: bool = False):
        self.encoder = encoder
        self.rng = rng
        self.full_graph = full_graph
        self.width = encoder.config.latent_width
        self._state = None
        self.neighbor_graph = None

    def reset(self):
        self._state = None
        self.neighbor_graph = None

    def step(self, feats, positions_int, ids) -> np.ndarray:
        graph = fully_connected(ids) if self.full_graph else build_graph(positions_int, ids)
        self.neighbor_graph = None if self.full_graph else graph
        if self._state is None:
            self._state = self.encoder.init_state(ids)
        adj = normalize(graph).astype(self.encoder.config.np_dtype)
        with no_grad():
            self._state, dist = self.encoder.step(feats, self._state, graph.ids, (adj,),
                                                  rng=self.rng)
        return dist.latent.data


def make_provider(mode: str, feat_width: int, encoder=None, rng=None):
    if mode == "none":
        return EmptyLatents()
    if mode == "mean":
        return MeanObsLatents(feat_width)
    if mode in ("nvif", "full"):
        if encoder is None:
            raise ConfigError(f"latent mode {mode!r} needs a pre-trained encoder")
        if encoder.config.obs_feat_width != feat_width:
            raise ConfigError(
                f"encoder expects feature width {encoder.config.obs_feat_width}, "
                f"compressor produces {feat_width}")
        return NvifLatents(encoder, rng=rng, full_graph=(mode == "full"))
    raise ConfigError(f"unknown latent mode {mode!r}")


def featurize(world, ids, compressor: ObsCompressor, provider) -> np.ndarray:
    """Policy input rows [compressed observation || latent] for ``ids``."""
    cells = world.agent_positions(ids)
    feats = compressor.encode(observe(world, ids), cells, world.config)
    latent = provider.step(feats, cells, ids)
    return np.concatenate([feats, latent.astype(feats.dtype)], axis=1)
