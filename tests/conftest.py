"""Shared fixtures and oracles."""
from dataclasses import replace

import numpy as np
import pytest

from nviflab import diffcore as dc
from nviflab.env_gather import EMPTY, preset
from nviflab.env_gather.world import _channel_grids
from nviflab.nvif import ObsCompressor, ObsVaeConfig, ObsVaeHyper
from nviflab.harness.pipeline import collect_obs_corpus


def central_diff_grads(f, arrays, h=1e-4):
    """Central finite differences of scalar f() w.r.t. each array, in place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            fp = f()
            flat[i] = old - h
            fm = f()
            flat[i] = old
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    return float(np.max(np.abs(analytic - numeric) /
                        np.maximum(np.abs(numeric), 1.0)))


def composite_gru_cell(x, h, params):
    """The GRU cell of :func:`diffcore.gru_cell` built from 13 elementwise,
    affine and concat nodes: the oracle of the fused node's value and
    gradients."""
    x, h = dc.as_tensor(x), dc.as_tensor(h)
    xh = dc.concat([x, h], axis=1)
    z = dc.sigmoid(dc.affine(xh, params["w_z"], params["b_z"]))
    r = dc.sigmoid(dc.affine(xh, params["w_r"], params["b_r"]))
    xrh = dc.concat([x, dc.mul(r, h)], axis=1)
    n = dc.tanh(dc.affine(xrh, params["w_n"], params["b_n"]))
    return dc.add(dc.mul(dc.sub(1.0, z), h), dc.mul(z, n))


def composite_matmul_relu(x, w):
    """:func:`diffcore.matmul_relu` as a matmul node and a relu node."""
    return dc.relu(dc.matmul(x, w))


def composite_gaussian_sample(mu, log_sigma, rng):
    """:func:`diffcore.gaussian_sample` as exp, mul and add nodes, drawing
    the same noise from ``rng``."""
    mu, log_sigma = dc.as_tensor(mu), dc.as_tensor(log_sigma)
    eps = rng.standard_normal(mu.data.shape).astype(mu.data.dtype)
    return dc.add(mu, dc.mul(dc.exp(log_sigma), eps))


def composite_sq_dist_rows(a, b):
    """:func:`diffcore.sq_dist_rows` as sub, mul and sum nodes."""
    dev = dc.sub(a, b)
    return dc.sum(dc.mul(dev, dev), axis=1)


def tape_size(loss, skip=()):
    """(nodes, bytes) of the tape behind ``loss``. The bytes count each
    distinct array that a node holds in ``data`` or ``_saved`` once, except
    the arrays whose ids are in ``skip``."""
    order = dc.topological_order(loss)
    arrays, stack = {}, [item for node in order for item in (node.data, node._saved)]
    while stack:  # no recursive closure: its cycle would keep the arrays alive
        item = stack.pop()
        if isinstance(item, np.ndarray):
            if id(item) not in skip:
                arrays[id(item)] = item
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return len(order), sum(a.nbytes for a in arrays.values())


def refresh_grids(world):
    """Rebuild a world's kept observation grids after a test wrote its arrays."""
    world.grids[:] = _channel_grids(world.config, world.pos, world.hp, world.alive)


class EpisodeSpy:
    """Wraps a trainer module's ``new_world`` and ``step``: keeps the world and
    every step's rewards, and once the world reaches ``at_t`` kills the agents
    in ``kill`` and, with ``eat_food``, every food unit."""

    def __init__(self, monkeypatch, module, at_t, kill=(), eat_food=False):
        self.world, self.rewards = None, []
        new_world, step = module.new_world, module.step

        def spy_new_world(cfg):
            self.world = new_world(cfg)
            return self.world

        def spy_step(world, actions):
            result = step(world, actions)
            if world.t == at_t:
                food = list(range(world.n_agents, len(world.hp))) if eat_food else []
                for i in list(kill) + food:
                    world.alive[i], world.hp[i] = False, 0
                    world.occupancy[world.pos[i, 1], world.pos[i, 0]] = EMPTY
                refresh_grids(world)
                result = replace(result, alive={i: bool(world.alive[i]) for i in result.alive},
                                 food_remaining=world.food_remaining(), done=world.done)
            self.rewards.append(result.rewards)
            return result

        monkeypatch.setattr(module, "new_world", spy_new_world)
        monkeypatch.setattr(module, "step", spy_step)


@pytest.fixture(scope="session")
def tiny_task():
    return preset("desk-random-12", seed=7)


@pytest.fixture(scope="session")
def tiny_compressor(tiny_task):
    """A quickly trained observation compressor shared across tests."""
    rng = np.random.default_rng(11)
    corpus = collect_obs_corpus(tiny_task, episodes=10, rng=rng, max_samples=4000)
    comp = ObsCompressor(
        ObsVaeConfig(obs_dim=tiny_task.obs_dim, latent_width=8, hidden_width=48), rng)
    comp.train(corpus, ObsVaeHyper(epochs=8, lr=2e-3, batch_size=256, seed=5))
    return comp
