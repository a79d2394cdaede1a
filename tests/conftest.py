"""Shared fixtures and oracles."""
import importlib
import json
from dataclasses import replace

import numpy as np
import pytest

from nviflab import diffcore as dc
from nviflab.diffcore.tensor import _make, _sigmoid, as_tensor
from nviflab.env_gather import EMPTY, preset
from nviflab.errors import ShapeError
from nviflab.env_gather.world import _channel_grids
from nviflab.nvif import ObsCompressor, ObsVaeConfig, ObsVaeHyper
from nviflab.harness.pipeline import collect_obs_corpus
from nviflab.policy import compute_gae, featurize


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


def _vjp_matmul(g, node, k):
    a, b = node._parents
    return g @ b.data.T if k == 0 else a.data.T @ g


def matmul(a, b):
    """A plain 2-D product node: the part of the fused nodes' oracles that
    training never builds on its own."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")
    return _make(a.data @ b.data, (a, b), _vjp_matmul)


def _vjp_matmul_relu(g, node, k):
    x, w = node._parents
    g = g * (node.data > 0)  # relu(v) > 0 exactly where v > 0
    return g @ w.data.T if k == 0 else x.data.T @ g


def matmul_relu(x, w):
    """``relu(x @ w)`` as one node that keeps only its output: the
    product-relu half of :func:`composite_graph_conv`."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"matmul_relu: shapes {x.data.shape} and {w.data.shape} incompatible")
    return _make(np.maximum(x.data @ w.data, 0), (x, w), _vjp_matmul_relu)


def _vjp_sigmoid(g, node, k):
    return g * node.data * (1.0 - node.data)


def sigmoid(x):
    """An elementwise sigmoid node, for the GRU and cross-entropy oracles."""
    x = as_tensor(x)
    return _make(_sigmoid(x.data), (x,), _vjp_sigmoid)


def _vjp_tanh(g, node, k):
    return g * (1.0 - node.data * node.data)


def tanh(x):
    """An elementwise tanh node, for the GRU oracle."""
    x = as_tensor(x)
    return _make(np.tanh(x.data), (x,), _vjp_tanh)


def per_name_adam(params, grads, moments, t, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam one parameter at a time: the oracle of the flat multi-tensor
    :func:`diffcore.optimizer_step`. ``params`` (name -> array) and
    ``moments`` (name -> {"m", "v"}) are updated out of place; a gradient
    that is ``None`` or absent from ``grads`` counts as zero, and ``t`` is
    the step's count."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else g
        bufs = moments.setdefault(name, {"m": np.zeros_like(p), "v": np.zeros_like(p)})
        bufs["m"] = beta1 * bufs["m"] + (1.0 - beta1) * g
        bufs["v"] = beta2 * bufs["v"] + (1.0 - beta2) * (g * g)
        m_hat = bufs["m"] / bc1
        v_hat = bufs["v"] / bc2
        params[name] = p - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.dtype)


def reconstruction_bce(compressor, obs_flat):
    """Per-cell mean cross entropy of an observation compressor's
    deterministic reconstructions (decoder of the posterior mean)."""
    x = np.atleast_2d(np.asarray(obs_flat, dtype=compressor.config.dtype))
    with dc.no_grad():
        mean = compressor._mean(compressor._hidden(dc.Tensor(x)))
        return float(dc.bce_loss(x, compressor._decode(mean)).data)


def read_replay(path):
    """A replay file (see :mod:`env_gather.replay`) as (header, records) per episode."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    episodes = []
    for line in lines:
        if line.get("kind") == "header":
            episodes.append((line, []))
        else:
            episodes[-1][1].append(line)
    return episodes


def episode_metrics(header: dict, records: list[dict]) -> dict:
    """Evaluation metrics recomputed from one episode's replay records alone."""
    episode_return = sum(r for rec in records for r in rec["rewards"].values())
    total_food = header["config"]["n_food"]
    final_left = records[-1]["food_remaining"] if records else total_food
    return {
        "return": episode_return,
        "end_steps": records[-1]["t"] if records else 0,
        "food_eaten_frac": (total_food - final_left) / total_food,
    }


def composite_gru_cell(x, h, params):
    """The GRU cell of :func:`diffcore.gru_cell` built from 13 elementwise,
    affine and concat nodes: the oracle of the fused node's value and
    gradients."""
    x, h = dc.as_tensor(x), dc.as_tensor(h)
    xh = dc.concat([x, h], axis=1)
    z = sigmoid(dc.affine(xh, params["w_z"], params["b_z"]))
    r = sigmoid(dc.affine(xh, params["w_r"], params["b_r"]))
    xrh = dc.concat([x, dc.mul(r, h)], axis=1)
    n = tanh(dc.affine(xrh, params["w_n"], params["b_n"]))
    return dc.add(dc.mul(dc.sub(1.0, z), h), dc.mul(z, n))


def composite_matmul_relu(x, w):
    """:func:`matmul_relu` as a matmul node and a relu node."""
    return dc.relu(matmul(x, w))


def composite_graph_conv(blocks, x, w):
    """:func:`diffcore.graph_conv` as a :func:`diffcore.sparse_matmul` node
    and a :func:`matmul_relu` node (looked up at call time, so a test can
    patch in :func:`composite_matmul_relu`)."""
    return matmul_relu(dc.sparse_matmul(blocks, x), w)


def composite_kl_rows(mu, log_sigma):
    """:func:`diffcore.kl_rows` as the nine-node chain
    0.5 * sum_d(mu*mu + exp(log_sigma*2) - 1 - log_sigma*2)."""
    per_dim = dc.mul(mu, mu) + dc.exp(dc.mul(log_sigma, 2.0)) - 1.0 - dc.mul(log_sigma, 2.0)
    return dc.mul(dc.sum(per_dim, axis=1), 0.5)


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


def per_agent_episode(task_cfg, env_seed, compressor, provider, ac, action_rng, gamma, lam):
    """:func:`policy.ppo.collect_episode` as per-agent lists, with one
    :func:`compute_gae` call per agent: the oracle of its (T, n) record. It
    reaches ``new_world`` and ``step`` through the ppo module, so an
    :class:`EpisodeSpy` on that module wraps both."""
    ppo = importlib.import_module("nviflab.policy.ppo")
    world = ppo.new_world(replace(task_cfg, seed=env_seed))
    provider.reset()
    streams: dict[int, dict] = {}
    while not world.done:
        ids = world.alive_agents()
        x = featurize(world, ids, compressor, provider)
        t_now = world.t
        actions, probs = ac.act(x, action_rng)
        values = ac.values(x)
        result = ppo.step(world, dict(zip(ids, actions.tolist())))
        for row, i in enumerate(ids):
            s = streams.setdefault(i, {"x": [], "a": [], "p": [], "r": [], "v": [], "t": []})
            s["x"].append(x[row])
            s["a"].append(actions[row])
            s["p"].append(probs[row])
            s["r"].append(result.rewards[i])
            s["v"].append(values[row])
            s["t"].append(t_now)
    final_v = {}
    if world.truncated:
        survivors = world.alive_agents()
        final_v = dict(zip(survivors, ac.values(
            featurize(world, survivors, compressor, provider))))
    rows_x, rows_a, rows_p, rows_adv, rows_ret, rows_t = [], [], [], [], [], []
    episode_return = 0.0
    for i, s in streams.items():
        r = np.asarray(s["r"])
        v = np.asarray(s["v"])
        episode_return += float(r.sum())
        adv = compute_gae(r, np.append(v, final_v.get(i, 0.0)), gamma, lam)
        rows_x.extend(s["x"])
        rows_a.extend(s["a"])
        rows_p.extend(s["p"])
        rows_adv.extend(adv)
        rows_ret.extend(adv + v)
        rows_t.extend(s["t"])
    stats = ppo.EpisodeStats(
        episode_return=episode_return,
        end_steps=world.t,
        food_eaten_frac=(task_cfg.n_food - world.food_remaining()) / task_cfg.n_food,
    )
    return (np.asarray(rows_x), np.asarray(rows_a), np.asarray(rows_p),
            np.asarray(rows_adv), np.asarray(rows_ret), np.asarray(rows_t)), stats


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
