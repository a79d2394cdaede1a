"""Reconstruction, divergence, and latent-consistency losses.

Each term is computed per agent row; pre-training weights and sums the rows
over a batch of stacked episodes, and the obs-VAE takes the mean of the
KL rows (:func:`kl_standard_normal`).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..diffcore import Tensor, bce_loss, centered_sq_dist_rows, mean, nn


@dataclass
class NvifLossReport:
    recon: float
    kl: float
    consistency: float
    total: float
    alpha: float


def recon_rows(obs, logits) -> Tensor:
    """Per-row mean binary cross entropy of the observed cells against the
    decoder's per-cell logits."""
    return bce_loss(obs, logits, axis=1)


def kl_rows(mu, log_sigma) -> Tensor:
    """Per-row KL(N(mu, sigma^2) || N(0, I)) summed over latent dims:
    0.5 * sum_d(mu^2 + sigma^2 - 1 - 2 log sigma), as one node
    (:func:`diffcore.nn.kl_rows`) that saves nothing.

    The node's parents are ``(mu, mu, log_sigma, log_sigma)``: each operand
    appears once per use in the expression, so its two gradient terms are
    added one at a time, in the order of the expression written as nine
    nodes. A node over ``(mu, log_sigma)`` that summed each pair first would
    round ``log_sigma``'s gradient differently wherever the latent sample
    adds its own term to it."""
    return nn.kl_rows(mu, log_sigma)


def consistency_rows(latents, center) -> Tensor:
    """Per-row squared deviation ||s_i - (C s)_i||^2 from the group mean.

    C is the group-centering matrix: C[i, j] = 1/k when agents i and j share
    a group of k agents, else 0. ``center`` is its (E, n, n) stack of
    diagonal blocks, one per group of n row slots (see
    :func:`diffcore.sparse_matmul`), zero in an empty slot's row and column;
    the distance is one :func:`diffcore.centered_sq_dist_rows` node, which
    saves only ``center`` and recomputes ``C s`` in its backward pass."""
    return centered_sq_dist_rows(center, latents)


def kl_standard_normal(mu, log_sigma) -> Tensor:
    """Mean over agents of :func:`kl_rows`."""
    return mean(kl_rows(mu, log_sigma))
