"""Shared fixtures and oracles."""
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import nviflab
from nviflab import diffcore as dc
from nviflab.diffcore.tensor import (
    _GRU_PARAMS,
    _blockwise,
    _check_gru,
    _gru_gates,
    _gru_grads,
    _make,
    _sigmoid,
    as_tensor,
)
from nviflab.env_gather import (
    ATTACK_OFFSETS,
    EMPTY,
    MOVE_OFFSETS,
    N_ACTIONS,
    decode_windows,
    observe,
    preset,
)
from nviflab.errors import DataError, ProtocolError, ShapeError
from nviflab.env_gather.world import GridWorld, _channel_grids
from nviflab.nvif import ObsCompressor, ObsVaeConfig, ObsVaeHyper
from nviflab.nvif.losses import kl_rows, recon_rows
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


def clear_grads(store):
    """Drop every parameter's gradient, so the next backward pass gives the
    store that pass's gradients alone."""
    for name in store.names():
        store[name].grad = None


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


def eye_normalize(graph) -> np.ndarray:
    """Oracle: D^{-1/2} (G + I) D^{-1/2} with an n x n ``np.eye`` for the
    self-loops and out-of-place scalings; ``commgraph.normalize``, which
    scales its copy in place, must match it bit for bit."""
    g_tilde = graph.adj.astype(np.float64) + np.eye(graph.n_alive)
    inv_sqrt_deg = 1.0 / np.sqrt(g_tilde.sum(axis=1))
    return g_tilde * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


def neighbors(graph, agent_id: int) -> list[int]:
    """The ids adjacent to ``agent_id`` in a :class:`commgraph.NeighborGraph`,
    in row order."""
    row = graph.adj[graph.ids.index(agent_id)]
    return [graph.ids[j] for j in np.flatnonzero(row)]


Message = tuple[int, int]          # (agent id, timestep it was shared)
InfoSet = frozenset                # of Message


def info_direct(graph_history, agent_id: int, t: int) -> InfoSet:
    """The information-flow oracle: messages reachable by ``agent_id`` after
    step ``t``, by explicit expansion.

    Walks k = t..0; at each k the reachable set grows to the union of the
    previous set's neighborhoods under the graph at k, and every member's
    message from timestep k is collected.
    """
    if len(graph_history) <= t:
        raise DataError(f"info_direct: history has {len(graph_history)} graphs, need {t + 1}")
    frontier = {agent_id}
    collected: set[Message] = set()
    for k in range(t, -1, -1):
        graph = graph_history[k]
        grown: set[int] = set()
        for j in frontier:
            grown.add(j)
            grown.update(neighbors(graph, j))
        frontier = grown
        collected.update((j, k) for j in frontier)
    return frozenset(collected)


class FlowParts(NamedTuple):
    total: InfoSet
    recurrent: InfoSet  # previous collections of the closed neighborhood
    flow: InfoSet       # messages shared now by the closed neighborhood


def info_recursive(previous: dict[int, InfoSet], graph, t: int) -> dict[int, FlowParts]:
    """One recurrence step of the information flow: next collection =
    neighborhood's old collections plus the neighborhood's current
    messages, per alive agent. It must agree with :func:`info_direct`."""
    for agent_id in graph.ids:
        if agent_id not in previous:
            raise ProtocolError(f"info_recursive: missing previous set for agent {agent_id}")
    out = {}
    for agent_id in graph.ids:
        closed = [agent_id] + neighbors(graph, agent_id)
        recurrent = frozenset().union(*(previous[j] for j in closed))
        flow = frozenset((j, t) for j in closed)
        out[agent_id] = FlowParts(total=recurrent | flow, recurrent=recurrent, flow=flow)
    return out


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


def per_block(blocks, x: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the square ``blocks``, of any sizes,
    times the rows of ``x``, one product per block: the operator product of
    the layout that predates the stacked (E, n, n) operator."""
    if len(blocks) == 1:
        return blocks[0] @ x
    at = np.cumsum([0] + [len(b) for b in blocks])
    return np.concatenate([b @ x[lo:hi] for b, lo, hi in zip(blocks, at, at[1:])])


def _vjp_block_matmul(g, node, k):
    return per_block([b.T for b in node._saved], g)


def block_matmul(blocks, x):
    """:func:`per_block` as a node over ``x`` that saves the blocks."""
    x = as_tensor(x)
    return _make(per_block(blocks, x.data), (x,), _vjp_block_matmul, tuple(blocks))


def _vjp_graph_conv(g, node, k):
    x, w = node._parents
    g = g * (node.data > 0)  # relu(v) > 0 exactly where v > 0
    if k == 0:
        return _blockwise(node._saved.transpose(0, 2, 1), g @ w.data.T)
    return _blockwise(node._saved, x.data).T @ g  # the block product, recomputed


def graph_conv(op, x, w):
    """One graph-convolution layer, ``relu(A x w)`` with ``A`` the constant
    block-diagonal operator whose (E, n, n) blocks are ``op``, as one node
    over ``(x, w)`` that saves its output and ``op``: a layer of
    :func:`diffcore.flow_gru_cell` on its own."""
    x, w = as_tensor(x), as_tensor(w)
    if w.data.ndim != 2 or x.data.shape[1:2] != w.data.shape[:1]:
        raise ShapeError(f"graph_conv: features {x.data.shape} and weights {w.data.shape} "
                         f"incompatible")
    out = np.maximum(dc.sparse_matmul(op, x.data).data @ w.data, 0)
    return _make(out, (x, w), _vjp_graph_conv, op)


def _vjp_gru_cell(g, node, k):
    # the first call of a backward visit computes every parent's gradient
    # (keyed by g); the call for the last parent that requires one releases them
    pending = node._saved
    if pending is None or pending[0] is not g:
        x, h, *weights = node._parents
        pending = node._saved = (g, _gru_grads(g, x.data, h.data, [p.data for p in weights],
                                               x.requires_grad or h.requires_grad))
    if not any(p.requires_grad for p in node._parents[k + 1:]):
        node._saved = None
    return pending[1][k]


def gru_cell(x, h, params):
    """The GRU step of :func:`diffcore.flow_gru_cell` on its own, as one node
    over ``(x, h, w_z, b_z, w_r, b_r, w_n, b_n)`` that saves no gate;
    ``_saved`` holds only the gradients pending within one backward visit."""
    x, h = as_tensor(x), as_tensor(h)
    weights = [as_tensor(params[name]) for name in _GRU_PARAMS]
    _check_gru("gru_cell", x.data, h.data, [p.data for p in weights])
    _, z, _, _, n = _gru_gates(x.data, h.data, *(p.data for p in weights))
    return _make((1.0 - z) * h.data + z * n, (x, h, *weights), _vjp_gru_cell)


def flownet_forward(features, op, weights):
    """A FlowNet as one :func:`graph_conv` node per layer weight; ``op`` is
    A_hat's (E, n, n) stack of diagonal blocks."""
    h = features if isinstance(features, dc.Tensor) else dc.Tensor(features)
    for w in weights:
        h = graph_conv(op, h, w)
    return h


def composite_flow_gru_cell(op, feats, hidden, flow_o, flow_h, gru):
    """:func:`diffcore.flow_gru_cell` as the chain it fuses: a
    :func:`flownet_forward` over each input and a :func:`gru_cell` node.
    Each is looked up at call time, so a test can patch in the composite
    layer or cell."""
    phi = flownet_forward(feats, op, flow_o)
    psi = flownet_forward(hidden, op, flow_h)
    return gru_cell(phi, psi, gru)


def composite_gru_cell(x, h, params):
    """The GRU cell of :func:`gru_cell` built from 13 elementwise,
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


def composite_graph_conv(op, x, w):
    """:func:`graph_conv` as a :func:`diffcore.sparse_matmul` node
    and a :func:`matmul_relu` node (looked up at call time, so a test can
    patch in :func:`composite_matmul_relu`)."""
    return matmul_relu(dc.sparse_matmul(op, x), w)


def composite_kl_rows(mu, log_sigma):
    """:func:`diffcore.kl_rows` as the nine-node chain
    0.5 * sum_d(mu*mu + exp(log_sigma*2) - 1 - log_sigma*2)."""
    per_dim = dc.mul(mu, mu) + dc.exp(dc.mul(log_sigma, 2.0)) - 1.0 - dc.mul(log_sigma, 2.0)
    return dc.mul(dc.sum(per_dim, axis=1), 0.5)


def composite_gaussian_sample(mu, log_sigma, rng, live=None):
    """:func:`diffcore.gaussian_sample` as exp, mul and add nodes, drawing
    the same noise from ``rng``: with ``live``, that of the live rows alone."""
    mu, log_sigma = dc.as_tensor(mu), dc.as_tensor(log_sigma)
    eps = np.zeros_like(mu.data)
    rows = slice(None) if live is None else live
    eps[rows] = rng.standard_normal(eps[rows].shape)
    return dc.add(mu, dc.mul(dc.exp(log_sigma), eps))


def _vjp_sq_dist_rows(g, node, k):
    g = np.expand_dims(g, 1) * (node._parents[0].data - node._parents[1].data)
    g = g + g  # d(dev * dev), summed as the two slots of a product accumulate it
    return g if k == 0 else -g


def sq_dist_rows(a, b):
    """Per-row ``sum((a - b)^2, axis=1)`` of two same-shape matrices as one
    node that saves nothing: the distance half of
    :func:`composite_centered_sq_dist_rows`."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ShapeError(f"sq_dist_rows: shapes {a.data.shape} and {b.data.shape} "
                         f"are not one 2-D shape")
    dev = a.data - b.data
    return _make((dev * dev).sum(axis=1), (a, b), _vjp_sq_dist_rows)


def composite_sq_dist_rows(a, b):
    """:func:`sq_dist_rows` as sub, mul and sum nodes."""
    dev = dc.sub(a, b)
    return dc.sum(dc.mul(dev, dev), axis=1)


def composite_centered_sq_dist_rows(op, x):
    """:func:`diffcore.centered_sq_dist_rows` as a
    :func:`diffcore.sparse_matmul` node and a :func:`sq_dist_rows` node
    (looked up at call time, so a test can patch in
    :func:`composite_sq_dist_rows`)."""
    x = dc.as_tensor(x)
    return sq_dist_rows(x, dc.sparse_matmul(op, x))


def concatenated_encoder_step(encoder, feats, hidden, blocks, rng):
    """:meth:`NvifEncoder.step` over the concatenated rows of graphs of any
    sizes, ``blocks`` their normalized adjacencies, as the chain of
    :func:`block_matmul`, :func:`matmul_relu` and :func:`gru_cell` nodes
    that the one-node cell fuses; returns (next hidden state, mu, log-sigma,
    latent)."""
    def flow(x, weights):
        for w in weights:
            x = matmul_relu(block_matmul(blocks, x), w)
        return x

    store = encoder.store
    h = gru_cell(flow(feats, encoder.flow_o), flow(hidden, encoder.flow_h), encoder._gru)
    mu = dc.affine(h, store["head/mu_w"], store["head/mu_b"])
    log_sigma = dc.log_sigma_head(h, store["head/ls_w"], store["head/ls_b"])
    return h, mu, log_sigma, dc.gaussian_sample(mu, log_sigma, rng=rng)


def full_tape_batch_loss(encoder, episodes, alpha, recon_weight, rng):
    """Oracle of ``nvif.pretrain._batch_loss``: the episode-batch loss with
    every timestep's decoder on one tape, backpropagated once, in the layout
    that predates fixed agent slots. Each step concatenates the live rows of
    the episodes still running, mixes them with one block per episode
    (:func:`concatenated_encoder_step`), draws the noise of those rows alone,
    and carries the hidden rows from step to step by (episode, agent) key."""
    dt = encoder.config.np_dtype
    n_slots = sum(len(ep.steps) for ep in episodes)
    keys = hidden = total = None
    for t in range(max(len(ep.steps) for ep in episodes)):
        live = [(i, ep.steps[t]) for i, ep in enumerate(episodes) if len(ep.steps) > t]
        sizes = [len(sd.ids) for _, sd in live]
        now = [(i, a) for i, sd in live for a in sd.ids]
        if hidden is None:
            hidden = np.zeros((len(now), encoder.config.hidden_width), dtype=dt)
        elif now != keys:
            row = {key: r for r, key in enumerate(keys)}
            hidden = dc.gather_rows(hidden, [row[key] for key in now])
        keys = now
        pos = np.concatenate([sd.positions for _, sd in live])
        raw = np.concatenate([decode_windows(sd.raw_obs, sd.positions, episodes[i])
                              for i, sd in live])
        feats = np.concatenate([sd.feats for _, sd in live]).astype(dt)
        hidden, mu, log_sigma, latent = concatenated_encoder_step(
            encoder, feats, hidden, [sd.adj_norm.astype(dt) for _, sd in live], rng)
        center = [np.full((k, k), 1.0 / k, dtype=dt) for k in sizes]
        weights = np.concatenate([np.full(k, 1.0 / (k * n_slots), dtype=dt) for k in sizes])
        logits = encoder.decode(latent, pos)
        recon_t = dc.sum(dc.mul(recon_rows(raw, logits), weights))
        kl_t = dc.sum(dc.mul(kl_rows(mu, log_sigma), weights))
        cons_t = dc.sum(dc.mul(sq_dist_rows(latent, block_matmul(center, latent)), weights))
        contrib = dc.mul(recon_t, recon_weight) + kl_t
        if alpha != 0.0:
            contrib = contrib + dc.mul(cons_t, alpha)
        total = contrib if total is None else total + contrib
    return total


def composite_log_sigma_head(x, w, b):
    """:func:`diffcore.log_sigma_head` as an affine node and a clamp node."""
    return dc.clamp(dc.affine(x, w, b), dc.LOG_SIGMA_MIN, dc.LOG_SIGMA_MAX)


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


def float_observe(world, ids) -> np.ndarray:
    """The (len(ids), 7*w*w) float32 observation rows of the alive agents
    ``ids``: their :func:`env_gather.observe` codes rendered at their cells
    by :func:`env_gather.decode_windows`, the rows the compressor's unfolded
    first layer reads."""
    cfg = world.config
    return decode_windows(observe(world, ids), world.agent_positions(ids) / (cfg.map_size - 1),
                          cfg)


def float_encode(compressor, codes, cells, task) -> np.ndarray:
    """Posterior means of the window codes through the float rows and the
    compressor's unfolded first layer: the oracle of the folded
    :meth:`ObsCompressor.encode`."""
    rows = decode_windows(codes, np.asarray(cells) / (task.map_size - 1), task)
    with dc.no_grad():
        return compressor._mean(compressor._hidden(
            dc.Tensor(rows.astype(compressor.config.dtype)))).data


def refresh_grids(world):
    """Rebuild a world's kept hp-count planes after a test wrote its arrays."""
    world.grids[:] = _channel_grids(world.config, world.pos, world.hp, world.alive)


class EpisodeSpy:
    """Wraps a trainer module's ``new_world`` and ``step``: keeps the world and
    every step's rewards as {agent id: reward}, and once the world reaches
    ``at_t`` kills the agents in ``kill`` and, with ``eat_food``, every food
    unit."""

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
                result = replace(result, alive=world.alive[result.ids],
                                 food_remaining=world.food_remaining(), done=world.done)
            self.rewards.append(by_agent(result)[0])
            return result

        monkeypatch.setattr(module, "new_world", spy_new_world)
        monkeypatch.setattr(module, "step", spy_step)


def ring_spy(monkeypatch, dqn_mod) -> list:
    """Keeps each ``ReplayRing`` that ``dqn_mod`` builds."""
    rings, ring_cls = [], dqn_mod.ReplayRing

    def make(*args, **kwargs):
        rings.append(ring_cls(*args, **kwargs))
        return rings[-1]

    monkeypatch.setattr(dqn_mod, "ReplayRing", make)
    return rings


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
        result = ppo.step(world, actions)
        for row, i in enumerate(ids):
            s = streams.setdefault(i, {"x": [], "a": [], "p": [], "r": [], "v": [], "t": []})
            s["x"].append(x[row])
            s["a"].append(actions[row])
            s["p"].append(probs[row])
            s["r"].append(result.rewards[row])
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


# --- the dict-speaking step: the oracle of the array-native env_gather.step ---

class Move(NamedTuple):
    dx: int
    dy: int


class Attack(NamedTuple):
    dx: int
    dy: int


class Noop(NamedTuple):
    pass


NOOP = Noop()
ACTIONS = (tuple(Move(*o) for o in MOVE_OFFSETS) + tuple(Attack(*o) for o in ATTACK_OFFSETS)
           + (NOOP,))


def decode_action(index: int):
    """Map an action index (an integer, not a bool) to Move / Attack / Noop."""
    if type(index) is not int and (isinstance(index, bool) or not isinstance(index, Integral)):
        raise ValueError(f"action index {index!r} is not an integer")
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index {index} outside [0, {N_ACTIONS})")
    return ACTIONS[index]


@dataclass
class DictStepResult:
    rewards: dict[int, float]      # one entry per agent that acted this step
    alive: dict[int, bool]         # same keys, post-step liveness
    done: bool
    food_remaining: int
    events: list = field(default_factory=list)  # (kind, agent, target_or_None)


def dict_step(world: GridWorld, actions: dict[int, int]) -> DictStepResult:
    """Advance one timestep. ``actions`` maps every alive agent id to an
    action index (exactly the alive set; anything else is a protocol error)."""
    if world.done:
        raise ProtocolError("step: world is already done")
    alive = world.alive_agents()
    if set(actions) != set(alive):
        missing = sorted(set(alive) - set(actions))
        extra = sorted(set(actions) - set(alive))
        raise ProtocolError(f"step: need one action per alive agent; "
                            f"missing {missing}, not alive {extra}")
    cfg, n = world.config, world.n_agents
    ms, r, occ, grids = cfg.map_size, cfg.view_radius, world.occupancy, world.grids
    xy = world.pos[:n].tolist()
    rewards = {i: 0.0 for i in alive}
    events: list = []
    decoded = {i: decode_action(actions[i]) for i in alive}

    # phase 1: simultaneous attacks in ascending id order; none changes the occupancy
    damage: dict[int, int] = {}
    for i in alive:
        act = decoded[i]
        if not isinstance(act, Attack):
            continue
        tx, ty = xy[i][0] + act.dx, xy[i][1] + act.dy
        target = int(occ[ty, tx]) if (0 <= tx < ms and 0 <= ty < ms) else EMPTY
        if target == EMPTY:
            rewards[i] += cfg.p_blank
            events.append(("blank", i, None))
        elif target >= n:
            rewards[i] += cfg.r_food
            damage[target] = damage.get(target, 0) + 1
            events.append(("food_hit", i, target))
        else:
            rewards[target] += cfg.p_attacked
            damage[target] = damage.get(target, 0) + 1
            events.append(("omnivore_hit", i, target))
    for target, hits in damage.items():
        plane = 0 if target < n else 1  # omnivore hp counts, food hp counts
        x, y = world.pos[target].tolist()
        hp = max(int(world.hp[target]) - hits, 0)
        world.hp[target] = hp
        grids[plane, y + r, x + r] = hp
        if hp == 0:
            world.alive[target] = False
            occ[y, x] = EMPTY

    # phase 2: moves in seeded random order; blocked or out-of-bounds moves stay
    now = world.alive[:n].tolist()
    moved = False
    for k in world.rng.permutation(len(alive)).tolist():
        i = alive[k]
        act = decoded[i]
        if not isinstance(act, Move) or not now[i]:
            continue
        (x, y), tx, ty = xy[i], xy[i][0] + act.dx, xy[i][1] + act.dy
        if not (0 <= tx < ms and 0 <= ty < ms) or occ[ty, tx] != EMPTY:
            continue
        occ[y, x], occ[ty, tx] = EMPTY, i
        xy[i], moved = [tx, ty], True
        grids[0, ty + r, tx + r], grids[0, y + r, x + r] = grids[0, y + r, x + r], 0
    if moved:
        world.pos[:n] = xy

    # phase 3: per-step penalty for survivors
    for i in alive:
        if now[i]:
            rewards[i] += cfg.p_step

    world.t += 1
    return DictStepResult(rewards=rewards, alive={i: now[i] for i in alive}, done=world.done,
                      food_remaining=world.food_remaining(), events=events)


def by_agent(result):
    """An array step result's rewards and post-step liveness as {agent id: value}."""
    ids = result.ids.tolist()
    return dict(zip(ids, result.rewards.tolist())), dict(zip(ids, result.alive.tolist()))


def action_array(world, actions: dict) -> np.ndarray:
    """The {agent id: action} of every alive agent as the array ``step`` takes."""
    return np.array([actions[i] for i in world.alive_agents()], dtype=np.int64)


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="RLIMIT_AS is enforced on Linux")


def run_capped(script: str, cap_mib: int, *args):
    """Runs ``script`` in its own process with one BLAS thread, passing
    ``cap_mib`` and ``args`` as its arguments, and asserts that it exits 0.
    The script caps its own address space (``RLIMIT_AS``) at ``argv[1]``
    MiB, so a memory regression fails that process instead of exhausting
    the machine."""
    src = str(Path(nviflab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, (cap_mib, *args))], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]


class TwoArrayRing:
    """The DQN replay ring as two row arrays, ``x`` and a copy of each next
    state in ``x2``, pushed one transition at a time: the oracle of
    :class:`policy.ReplayRing`, which stores each row once."""

    def __init__(self, capacity: int, width: int, dtype=np.float32):
        self.x = np.zeros((capacity, width), dtype=dtype)
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity, dtype=np.float64)
        self.x2 = np.zeros((capacity, width), dtype=dtype)
        self.done = np.zeros(capacity, dtype=np.float64)
        self.capacity = capacity
        self.idx = 0
        self.size = 0

    def push(self, x, a, r, x2, done):
        i = self.idx
        self.x[i], self.a[i], self.r[i], self.x2[i], self.done[i] = x, a, r, x2, done
        self.idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, n):
        idx = rng.integers(0, self.size, n)
        return self.x[idx], self.a[idx], self.r[idx], self.x2[idx], self.done[idx]


def two_array_flush(replay: TwoArrayRing, pending, next_rows: dict):
    """``policy.dqn._flush`` for :class:`TwoArrayRing`: a terminal, or an
    agent with no row in ``next_rows``, leads to a zero row."""
    ids, x, actions, rewards, alive_after, food_out = pending
    zeros = np.zeros(x.shape[1], dtype=x.dtype)
    for row, agent in enumerate(ids.tolist()):
        terminal = food_out or not alive_after[row]
        nxt = next_rows.get(agent, zeros) if not terminal else zeros
        replay.push(x[row], actions[row], rewards[row], nxt, 1.0 if terminal else 0.0)


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
