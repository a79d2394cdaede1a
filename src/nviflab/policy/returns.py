"""Advantage estimation for agents' reward streams."""
from __future__ import annotations

import numpy as np


def compute_gae(rewards, values, gamma: float, lam: float) -> np.ndarray:
    """Generalized advantage estimate over the time axis, axis 0.

    ``rewards`` is (T, ...), one column per stream, and ``values`` must hold
    one more row: the last is the bootstrap value of the state after the
    last step. It is zero when the stream terminated (death, or the food ran
    out) and V(s_T) when the episode was only cut at the time limit.
    A_t = sum_{l>=0} (gamma*lam)^l * delta_{t+l},
    delta_t = r_{t+1} + gamma*V_{t+1} - V_t.
    With lam = 1 and zero values A_t is the discounted reward-to-go, and
    A_t + V_t is the lambda-return that trains the critic. A column of L < T
    steps and zeros after them, its bootstrap row L in ``values`` included,
    gets the bits of a call on its prefix alone, then zeros.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != rewards.shape[0] + 1:
        raise ValueError(
            f"compute_gae: need len(values) == len(rewards)+1, got "
            f"{values.shape[0]} and {rewards.shape[0]}")
    deltas = rewards + gamma * values[1:] - values[:-1]
    adv = np.empty_like(deltas)
    acc = 0.0
    for t in range(len(deltas) - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        adv[t] = acc
    return adv
