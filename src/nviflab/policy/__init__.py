"""Trainers: clipped-surrogate policy optimization, Q-learning, baselines."""
from .actor_critic import ActorCritic, PolicyConfig
from .dqn import DQNHyper, DQNResult, QNetwork, ReplayRing, epsilon_at, q_target, train_dqn
from .ppo import (
    METRIC_COLUMNS,
    PPOHyper,
    PPOResult,
    clipped_term,
    collect_episode,
    critic_loss,
    ppo_actor_objective,
    train_ppo,
    write_metrics_csv,
)
from .providers import EmptyLatents, MeanObsLatents, NvifLatents, featurize, make_provider
from .returns import compute_gae

__all__ = [
    "ActorCritic", "DQNHyper", "DQNResult", "EmptyLatents",
    "METRIC_COLUMNS", "MeanObsLatents", "NvifLatents", "PPOHyper", "PPOResult",
    "PolicyConfig", "QNetwork", "ReplayRing", "clipped_term",
    "collect_episode", "compute_gae", "critic_loss",
    "epsilon_at", "featurize", "make_provider",
    "ppo_actor_objective", "q_target", "train_dqn", "train_ppo",
    "write_metrics_csv",
]
