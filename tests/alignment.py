"""Executable form of the NVIF-PPO cooperation analysis: per-agent and team
clipped-gradient directions agree.

For an additive task (team reward a positive-weighted sum of agent rewards)
the team advantage is the same weighted sum of agent advantages. The exact
agreement condition compares the clipped-ratio-weighted sums; replacing each
ratio share by 1/n reduces it to (sum w_i A_i)(sum A_i) >= 0, which holds for
every advantage vector when all weights are equal (it becomes a scaled
square) and can fail otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AlignmentReport:
    dot_exact: float
    dot_approx: float
    sign_ok: bool
    team_advantage: float
    team_value: float | None


def alignment_check(agent_advantages, weights, clipped_ratios,
                    values=None) -> AlignmentReport:
    adv = np.asarray(agent_advantages, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    alpha = np.asarray(clipped_ratios, dtype=np.float64)
    if adv.shape != w.shape or adv.shape != alpha.shape:
        raise ValueError("alignment_check: advantages, weights, ratios must align")
    if np.any(w <= 0):
        raise ValueError(f"alignment_check: weights must be positive, got {w}")
    team_adv = float(np.sum(w * adv))
    dot_exact = float(np.sum(alpha * team_adv) * np.sum(alpha * adv))
    dot_approx = float(np.sum(w * adv) * np.sum(adv))
    team_value = float(np.sum(w * np.asarray(values, dtype=np.float64))) \
        if values is not None else None
    return AlignmentReport(
        dot_exact=dot_exact,
        dot_approx=dot_approx,
        sign_ok=bool(dot_approx >= 0.0),
        team_advantage=team_adv,
        team_value=team_value,
    )
