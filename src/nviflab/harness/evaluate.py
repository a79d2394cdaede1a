"""Policy evaluation and replay export. A policy's ``act(world, ids, rng)``
returns one action index per agent of ``ids``, as an array in that order."""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from ..commgraph import build_graph
from ..env_gather import N_ACTIONS, NOOP_INDEX, ReplayWriter, new_world, step
from ..errors import require_counts
from ..policy import featurize, make_provider
from .bundle import PolicyBundle


class RandomPolicy:
    def reset(self):
        pass

    def act(self, world, ids, rng) -> np.ndarray:
        return rng.integers(0, N_ACTIONS, len(ids))


class NoopPolicy:
    def reset(self):
        pass

    def act(self, world, ids, rng) -> np.ndarray:
        return np.full(len(ids), NOOP_INDEX)


class BundlePolicy:
    """Runs a saved bundle: compress, provide latents, act."""

    def __init__(self, bundle: PolicyBundle, rng: np.random.Generator,
                 greedy: bool | None = None):
        self.bundle = bundle
        self.greedy = (bundle.kind == "dqn") if greedy is None else greedy
        feat_width = bundle.compressor.config.latent_width
        self.provider = make_provider(bundle.latent_mode, feat_width,
                                      encoder=bundle.encoder, rng=rng)

    def reset(self):
        self.provider.reset()

    def act(self, world, ids, rng) -> np.ndarray:
        x = featurize(world, ids, self.bundle.compressor, self.provider)
        if self.bundle.kind == "dqn":
            return self.bundle.qnet.q_values(x).argmax(axis=1)
        if self.greedy:
            return self.bundle.actor_critic.greedy(x)
        return self.bundle.actor_critic.act(x, rng)[0]


def make_policy(name_or_bundle, rng, greedy=None):
    if name_or_bundle == "random":
        return RandomPolicy()
    if name_or_bundle == "noop":
        return NoopPolicy()
    if isinstance(name_or_bundle, PolicyBundle):
        return BundlePolicy(name_or_bundle, rng, greedy=greedy)
    return BundlePolicy(PolicyBundle.load(name_or_bundle), rng, greedy=greedy)


def _replay_graph(policy, world, ids):
    """This step's neighbor graph: the one the policy's provider just built
    when it has one, else built here."""
    graph = getattr(getattr(policy, "provider", None), "neighbor_graph", None)
    return graph if graph is not None else build_graph(world.agent_positions(ids), ids)


def evaluate(policy_source, task_cfg, episodes: int, seed: int,
             replay_path=None, greedy=None) -> dict:
    """Mean return / end step / food fraction over fixed-seed episodes.

    ``policy_source`` is "random", "noop", a PolicyBundle, or a bundle path.
    Deterministic for fixed arguments.
    """
    require_counts("eval", episodes=episodes)
    env_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
    env_rng = np.random.default_rng(env_seq)
    pol_rng = np.random.default_rng(pol_seq)
    policy = make_policy(policy_source, pol_rng, greedy=greedy)
    returns, ends, fracs = [], [], []
    with ReplayWriter(replay_path) if replay_path else nullcontext() as writer:
        for _ in range(episodes):
            world = new_world(replace(task_cfg, seed=int(env_rng.integers(2 ** 62))))
            if writer:
                writer.start_episode(world)
            policy.reset()
            episode_return = 0.0
            while not world.done:
                ids = world.alive_agents()
                actions = policy.act(world, ids, pol_rng)
                edges = _replay_graph(policy, world, ids).edges() if writer else None
                result = step(world, actions)
                episode_return += float(result.rewards.sum())
                if writer:
                    writer.write_step(world, actions, result, edges=edges)
            returns.append(episode_return)
            ends.append(world.t)
            fracs.append((task_cfg.n_food - world.food_remaining()) / task_cfg.n_food)
    return {
        "mean_return": float(np.mean(returns)),
        "mean_end_steps": float(np.mean(ends)),
        "food_eaten_frac": float(np.mean(fracs)),
        "episodes": episodes,
    }
