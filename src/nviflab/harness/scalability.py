"""Cross-task scalability matrix: policies (rows) evaluated on tasks (cols).

Each task column is scored against the random policy, run with the same
``episodes`` and ``seed`` as the policies (so on the same env episodes):

    score = clip(R - R_random, 0) / max_over_policies(R - R_random)

as in the Atari normalized score (score - random) / (best - random)
(Rainbow, arXiv 1710.02298). The best policy on each task scores 1.0 and
a policy no better than random scores 0. Most Gather rewards are penalties
(``p_step``, ``p_blank``, ``p_attacked``), so weak or transferred policies
often have negative returns, and dividing by the column maximum would reject
such a task outright. Measured from the random policy rather than from zero,
the scores no longer depend on where the reward scale puts zero: a constant
added to every return on a task cancels. ``PAPER.md`` holds only the
abstract and does not settle the normalization protocol; this reference
rule is this package's choice.
"""
from __future__ import annotations

import csv

import numpy as np

from ..errors import DataError
from .evaluate import evaluate


def normalize_matrix(raw: np.ndarray, reference=0.0, col_names=None) -> np.ndarray:
    """Column-normalized scores in [0, 1]: ``clip(R - ref, 0) / max(R - ref)``.

    ``reference`` is a scalar or one value per column (default 0, which
    divides each column by its maximum). Returns at or below the reference
    clamp to zero. Every column's best return must exceed its reference,
    and maps to exactly 1.0; otherwise ``DataError`` names each rejected
    column (by ``col_names`` if given) with its best and reference returns.
    """
    raw = np.asarray(raw, dtype=np.float64)
    ref = np.broadcast_to(np.asarray(reference, dtype=np.float64), raw.shape[1:])
    gain = raw - ref
    col_max = gain.max(axis=0)
    bad = np.flatnonzero(col_max <= 0).tolist()
    if bad:
        names = list(range(raw.shape[1])) if col_names is None else list(col_names)
        detail = ", ".join(f"task {names[j]} (best {raw[:, j].max():.4g}, "
                           f"reference {ref[j]:.4g})" for j in bad)
        raise DataError(f"scalability: no policy beats the reference on {detail}")
    return np.clip(gain, 0.0, None) / col_max


def scalability_matrix(policies, tasks, episodes: int, seed: int):
    """``policies``: [(name, bundle_or_path)], ``tasks``: [(name, TaskConfig)].

    Each column is normalized against the built-in ``"random"`` policy
    evaluated with the same ``episodes`` and ``seed``; raises ``DataError``
    if on some task no policy beats it.
    Returns (row_names, col_names, raw_returns, reference, scores), where
    ``reference`` holds the random policy's return on each task.
    """
    raw = np.zeros((len(policies), len(tasks)))
    reference = np.zeros(len(tasks))
    for j, (_, task_cfg) in enumerate(tasks):
        reference[j] = evaluate("random", task_cfg, episodes, seed)["mean_return"]
        for i, (_, policy) in enumerate(policies):
            raw[i, j] = evaluate(policy, task_cfg, episodes, seed)["mean_return"]
    col_names = [n for n, _ in tasks]
    return ([n for n, _ in policies], col_names,
            raw, reference, normalize_matrix(raw, reference, col_names))


def write_matrix_csv(path, row_names, col_names, matrix):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy\\task"] + list(col_names))
        for name, row in zip(row_names, np.asarray(matrix)):
            writer.writerow([name] + [f"{v:.6f}" for v in row])
