"""Reconstruction, divergence, and latent-consistency losses.

Each term is computed per agent row; pre-training weights and sums the rows
over a block-diagonal episode batch, and the obs-VAE and the scalar helpers
below take their row means.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import (
    Tensor,
    as_tensor,
    bce_loss,
    exp,
    mean,
    mul,
    sparse_matmul,
    sub,
    sum as tsum,
)
from ..errors import DataError


@dataclass
class NvifLossReport:
    recon: float
    kl: float
    consistency: float
    total: float
    alpha: float


def recon_rows(obs, probs) -> Tensor:
    """Per-row mean binary cross entropy of predicted cell probabilities."""
    return bce_loss(obs, probs, axis=1)


def kl_rows(mu, log_sigma) -> Tensor:
    """Per-row KL(N(mu, sigma^2) || N(0, I)) summed over latent dims:
    0.5 * sum_d(mu^2 + sigma^2 - 1 - 2 log sigma)."""
    per_dim = mul(mu, mu) + exp(mul(log_sigma, 2.0)) - 1.0 - mul(log_sigma, 2.0)
    return mul(tsum(per_dim, axis=1), 0.5)


def consistency_rows(latents, center: np.ndarray) -> Tensor:
    """Per-row squared deviation ||s_i - (C s)_i||^2 from the group mean.

    ``center`` is the group-centering matrix: C[i, j] = 1/k when agents i and
    j share a group of k agents, else 0 (block-diagonal over episodes)."""
    lat = as_tensor(latents)
    dev = sub(lat, sparse_matmul(center, lat))
    return tsum(mul(dev, dev), axis=1)


def kl_standard_normal(mu, log_sigma) -> Tensor:
    """Mean over agents of :func:`kl_rows`."""
    return mean(kl_rows(mu, log_sigma))


def loss_variational(decoder, obs, positions, latents, mu, log_sigma):
    """Per-agent average of (reconstruction bce, closed-form KL).

    ``decoder`` is called as decoder(latents, positions) and must return
    per-cell probabilities for the flattened observation windows.
    """
    n = as_tensor(latents).data.shape[0]
    if n == 0:
        raise DataError("loss_variational: empty batch")
    recon = mean(recon_rows(obs, decoder(latents, positions)))
    return recon, kl_standard_normal(mu, log_sigma)


def loss_consistency(latents) -> Tensor:
    """Mean over agents of :func:`consistency_rows` with every agent in one
    group: (1/n) sum_i ||s_i - mean_j s_j||^2."""
    n = as_tensor(latents).data.shape[0]
    return mean(consistency_rows(latents, np.full((n, n), 1.0 / n)))
