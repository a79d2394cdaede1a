"""Encoder/decoder, the three losses, the observation compressor, pretraining."""
import importlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import nviflab
from nviflab import commgraph as cg
from nviflab import diffcore as dc
from nviflab.diffcore import nn as dc_nn
from nviflab.diffcore import tensor as dc_tensor
from nviflab.env_gather import (
    N_ACTIONS,
    TaskConfig,
    decode_windows,
    new_world,
    observe,
    preset,
    step,
)
from nviflab.errors import ConfigError, DataError, ProtocolError, ShapeError, StateError
from nviflab.nvif import (
    NvifConfig,
    NvifEncoder,
    ObsCompressor,
    ObsVaeConfig,
    ObsVaeHyper,
    PretrainHyper,
    collect_pretrain_buffer,
    gather_step_data,
    init_flownet,
    kl_standard_normal,
    pretrain,
)
from nviflab.nvif.losses import consistency_rows, kl_rows, recon_rows
from nviflab.nvif.pretrain import _batch_loss

import conftest
from conftest import (
    composite_centered_sq_dist_rows,
    composite_flow_gru_cell,
    composite_gaussian_sample,
    composite_graph_conv,
    composite_gru_cell,
    composite_kl_rows,
    composite_log_sigma_head,
    composite_matmul_relu,
    composite_sq_dist_rows,
    float_encode,
    float_observe,
    flownet_forward,
    graph_conv,
    gru_cell,
    linux_only,
    reconstruction_bce,
    refresh_grids,
    run_capped,
    sigmoid,
    tape_size,
)


def _center(n):
    """Centering blocks of one group of ``n`` agents."""
    return (np.full((n, n), 1.0 / n),)


# latent noise for encoder steps whose tests read only the mean
NOISE = np.random.default_rng(0)


def tiny_encoder(rng=None, obs_feat=6, obs_dim=20, hidden=8, latent=4, layers=2,
                 dtype="float64"):
    rng = rng or np.random.default_rng(0)
    return NvifEncoder(NvifConfig(
        obs_feat_width=obs_feat, obs_dim=obs_dim, hidden_width=hidden,
        latent_width=latent, flow_layers=layers, decoder_hidden=10,
        dtype=dtype), rng)


class TestFlowNet:
    def test_single_agent_identity_weights(self):
        store = dc.ParamStore()
        params = init_flownet(store, "f", [3, 3], np.random.default_rng(0), np.float64)
        params[0].data[...] = np.eye(3)
        v = np.array([[0.5, 1.0, 2.0]])
        adj = (cg.normalize(cg.fully_connected(1)),)
        out = flownet_forward(v, adj, params)
        np.testing.assert_allclose(out.data, v)

    def test_two_clique_averages(self):
        store = dc.ParamStore()
        params = init_flownet(store, "f", [1, 1], np.random.default_rng(0), np.float64)
        params[0].data[...] = np.eye(1)
        adj = (cg.normalize(cg.fully_connected(2)),)
        out = flownet_forward(np.array([[1.0], [3.0]]), adj, params)
        np.testing.assert_allclose(out.data, [[2.0], [2.0]])

    def test_two_layers_compose(self):
        rng = np.random.default_rng(1)
        store = dc.ParamStore()
        two = init_flownet(store, "two", [4, 5, 6], rng, np.float64)
        adj = (cg.normalize(cg.fully_connected(3)),)
        x = rng.standard_normal((3, 4))
        full = flownet_forward(x, adj, two)
        first = flownet_forward(x, adj, two[:1])
        second = flownet_forward(first, adj, two[1:])
        np.testing.assert_allclose(full.data, second.data)

    def test_row_mismatch_rejected(self):
        store = dc.ParamStore()
        params = init_flownet(store, "f", [4, 4], np.random.default_rng(0), np.float64)
        with pytest.raises(ShapeError):
            flownet_forward(np.zeros((2, 4)), (cg.normalize(cg.fully_connected(3)),), params)

    @pytest.mark.parametrize("widths", [[], [4]])
    def test_zero_layer_chain_rejected(self, widths):
        store = dc.ParamStore()
        with pytest.raises(ConfigError, match="at least one layer"):
            init_flownet(store, "f", widths, np.random.default_rng(0))
        assert not store.names()

    def test_independent_flownets_never_share(self):
        enc = tiny_encoder()
        o_names = {id(w) for w in enc.flow_o}
        h_names = {id(w) for w in enc.flow_h}
        assert not o_names & h_names


class TestEncoderStep:
    def _graph_chain(self):
        return cg.build_graph([(0, 0), (2, 0), (5, 0)], [0, 1, 2])

    def test_zero_weights_give_bias_mu(self):
        enc = tiny_encoder()
        for name in enc.store.names():
            if not name.startswith("head/"):
                enc.store[name].data[...] = 0
        enc.store["head/mu_w"].data[...] = 0
        enc.store["head/mu_b"].data[...] = np.arange(4, dtype=np.float64)
        graph = self._graph_chain()
        state = enc.init_state(graph.ids)
        feats = np.ones((3, 6))
        state2, dist = enc.step(feats, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        np.testing.assert_allclose(state2.hidden.data, 0.0, atol=1e-12)
        np.testing.assert_allclose(dist.mu.data, np.tile(np.arange(4.0), (3, 1)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        enc = tiny_encoder(rng)
        ids = [0, 1, 2, 3]
        pos = [(0, 0), (3, 0), (3, 4), (9, 9)]
        graph = cg.build_graph(pos, ids)
        feats = rng.standard_normal((4, 6))
        hidden = rng.standard_normal((4, 8))
        state = enc.init_state(ids)
        state.hidden.data = hidden
        _, dist = enc.step(feats, state, graph.ids, (cg.normalize(graph),), rng=NOISE)

        perm = [2, 0, 3, 1]
        graph_p = cg.build_graph([pos[k] for k in perm], [ids[k] for k in perm])
        state_p = enc.init_state([ids[k] for k in perm])
        state_p.hidden.data = hidden[perm]
        _, dist_p = enc.step(feats[perm], state_p, graph_p.ids, (cg.normalize(graph_p),),
                             rng=NOISE)
        np.testing.assert_allclose(dist_p.mu.data, dist.mu.data[perm], atol=1e-9)
        np.testing.assert_allclose(dist_p.log_sigma.data, dist.log_sigma.data[perm], atol=1e-9)
        # all three loss terms relabel with the agents
        obs, obs_pos, center = np.clip(rng.random((4, 20)), 0, 1), rng.random((4, 2)), _center(4)
        rows = [recon_rows(obs, enc.decode(dist.mu, obs_pos)),
                kl_rows(dist.mu, dist.log_sigma), consistency_rows(dist.mu, center)]
        rows_p = [recon_rows(obs[perm], enc.decode(dist_p.mu, obs_pos[perm])),
                  kl_rows(dist_p.mu, dist_p.log_sigma), consistency_rows(dist_p.mu, center)]
        for a, b in zip(rows, rows_p):
            np.testing.assert_allclose(b.data, a.data[perm], atol=1e-9)

    def test_edgeless_graph_isolates_agents(self):
        rng = np.random.default_rng(6)
        enc = tiny_encoder(rng)
        adj = np.zeros((3, 3), dtype=bool)
        graph = cg.NeighborGraph(ids=(0, 1, 2), adj=adj)
        feats = rng.standard_normal((3, 6))
        state = enc.init_state(graph.ids)
        _, base = enc.step(feats, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        feats2 = feats.copy()
        feats2[2] = 0.0  # zero a non-neighbor's observation
        _, changed = enc.step(feats2, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        np.testing.assert_array_equal(base.mu.data[0], changed.mu.data[0])
        np.testing.assert_array_equal(base.mu.data[1], changed.mu.data[1])

    def test_masking_non_neighbor_outside_receptive_field(self):
        # chain 0-1-2-3-4 with 2 flow layers: agent 4 is 4 hops from 0
        rng = np.random.default_rng(7)
        enc = tiny_encoder(rng, layers=2)
        ids = list(range(5))
        adj = np.zeros((5, 5), dtype=bool)
        for i in range(4):
            adj[i, i + 1] = adj[i + 1, i] = True
        graph = cg.NeighborGraph(ids=tuple(ids), adj=adj)
        feats = rng.standard_normal((5, 6))
        state = enc.init_state(ids)
        state.hidden.data = rng.standard_normal((5, 8))
        _, base = enc.step(feats, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        feats2 = feats.copy()
        feats2[4] = 0.0
        state2 = enc.init_state(ids)
        state2.hidden.data = state.hidden.data.copy()
        state2.hidden.data[4] = 0.0
        _, changed = enc.step(feats2, state2, graph.ids, (cg.normalize(graph),), rng=NOISE)
        np.testing.assert_array_equal(base.mu.data[0], changed.mu.data[0])

    def test_one_layer_strict_neighborhood(self):
        rng = np.random.default_rng(8)
        enc = tiny_encoder(rng, layers=1)
        ids = [0, 1, 2]
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True  # 2 is no one's neighbor
        graph = cg.NeighborGraph(ids=tuple(ids), adj=adj)
        feats = rng.standard_normal((3, 6))
        state = enc.init_state(ids)
        state.hidden.data = rng.standard_normal((3, 8))
        _, base = enc.step(feats, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        feats2 = feats.copy()
        feats2[2] = 123.0
        _, changed = enc.step(feats2, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        np.testing.assert_array_equal(base.mu.data[0], changed.mu.data[0])
        np.testing.assert_array_equal(base.mu.data[1], changed.mu.data[1])
        assert not np.array_equal(base.mu.data[2], changed.mu.data[2])

    def test_dead_dropped_new_zeroed(self):
        rng = np.random.default_rng(9)
        enc = tiny_encoder(rng)
        state = enc.init_state([0, 1, 2])
        state.hidden.data = rng.standard_normal((3, 8))
        graph = cg.build_graph([(0, 0), (4, 0)], [0, 2])  # 1 died
        feats = rng.standard_normal((2, 6))
        state2, _ = enc.step(feats, state, graph.ids, (cg.normalize(graph),), rng=NOISE)
        assert state2.ids == (0, 2)
        graph3 = cg.build_graph([(0, 0), (4, 0), (9, 9)], [0, 2, 7])  # 7 newly tracked
        feats3 = rng.standard_normal((3, 6))
        hidden_before = enc._hidden_for(state2, (0, 2, 7)).data
        np.testing.assert_array_equal(hidden_before[2], 0.0)

    def test_row_count_mismatch(self):
        enc = tiny_encoder()
        graph = cg.fully_connected(3)
        with pytest.raises(ProtocolError):
            enc.step(np.zeros((2, 6)), enc.init_state(graph.ids), graph.ids,
                     (cg.normalize(graph),))

    def test_sampling_without_rng_rejected(self):
        enc = tiny_encoder()
        graph = cg.fully_connected(3)
        with pytest.raises(ProtocolError):
            enc.step(np.zeros((3, 6)), enc.init_state(graph.ids), graph.ids,
                     (cg.normalize(graph),))

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        enc = tiny_encoder(rng)
        graph = cg.fully_connected(3)
        feats = rng.standard_normal((3, 6))
        _, dist = enc.step(feats, enc.init_state(graph.ids), graph.ids, (cg.normalize(graph),),
                           rng=NOISE)
        enc.save(tmp_path / "enc")
        enc2 = NvifEncoder.load(tmp_path / "enc")
        _, dist2 = enc2.step(feats, enc2.init_state(graph.ids), graph.ids, (cg.normalize(graph),),
                             rng=NOISE)
        np.testing.assert_array_equal(dist.mu.data, dist2.mu.data)


class TestDecoder:
    def test_output_strictly_in_unit_interval(self):
        rng = np.random.default_rng(11)
        enc = tiny_encoder(rng)
        out = sigmoid(enc.decode(rng.standard_normal((5, 4)), rng.random((5, 2))))
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_position_differentiates_reconstructions(self):
        rng = np.random.default_rng(12)
        enc = tiny_encoder(rng)
        latent = rng.standard_normal((1, 4))
        a = enc.decode(np.vstack([latent, latent]), np.array([[0.1, 0.1], [0.9, 0.8]]))
        assert not np.allclose(a.data[0], a.data[1])

    def test_gradient_reaches_mu_and_log_sigma(self):
        rng = np.random.default_rng(13)
        enc = tiny_encoder(rng)
        graph = cg.fully_connected(3)
        feats = rng.standard_normal((3, 6))
        state, dist = enc.step(feats, enc.init_state(graph.ids), graph.ids, (cg.normalize(graph),),
                               rng=np.random.default_rng(0))
        target = np.clip(rng.random((3, 20)), 0, 1)
        recon = dc.mean(recon_rows(target, enc.decode(dist.latent, rng.random((3, 2)))))
        dc.backward(dc.add(recon, kl_standard_normal(dist.mu, dist.log_sigma)))
        assert np.any(enc.store["head/mu_w"].grad != 0)
        assert np.any(enc.store["head/ls_w"].grad != 0)


class TestLosses:
    def test_kl_zero_at_standard_normal(self):
        kl = kl_standard_normal(dc.Tensor(np.zeros((3, 4))), dc.Tensor(np.zeros((3, 4))))
        assert float(kl.data) == 0.0

    def test_kl_unit_mean_scalar(self):
        kl = kl_standard_normal(dc.Tensor(np.ones((1, 1))), dc.Tensor(np.zeros((1, 1))))
        assert float(kl.data) == pytest.approx(0.5)

    def test_kl_matches_monte_carlo(self):
        rng = np.random.default_rng(14)
        n = 10 ** 6
        for _ in range(5):
            mu = rng.uniform(-1.5, 1.5)
            sigma = rng.uniform(0.4, 2.0)
            closed = float(kl_standard_normal(
                dc.Tensor(np.array([[mu]])), dc.Tensor(np.array([[np.log(sigma)]]))).data)
            z = mu + sigma * rng.standard_normal(n)
            log_q = -0.5 * ((z - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
            log_p = -0.5 * z ** 2 - 0.5 * np.log(2 * np.pi)
            assert abs(closed - float(np.mean(log_q - log_p))) < 1e-2

    def test_consistency_examples(self):
        assert consistency_rows(np.array([[1.0], [1.0], [1.0]]), _center(3)).data.tolist() \
            == [0.0, 0.0, 0.0]
        np.testing.assert_allclose(consistency_rows(np.array([[0.0], [2.0]]), _center(2)).data,
                                   [1.0, 1.0])
        assert consistency_rows(np.array([[3.5, -1.0]]), _center(1)).data.tolist() == [0.0]

    def test_block_centering_matches_per_group(self):
        rng = np.random.default_rng(16)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        center = (np.full((3, 3), 1.0 / 3), np.full((2, 2), 1.0 / 2))
        rows = consistency_rows(np.vstack([a, b]), center).data
        np.testing.assert_allclose(rows[:3], ((a - a.mean(0)) ** 2).sum(1), rtol=1e-12)
        np.testing.assert_allclose(rows[3:], ((b - b.mean(0)) ** 2).sum(1), rtol=1e-12)

    def test_kl_rows_one_per_agent(self):
        rng = np.random.default_rng(17)
        mu, ls = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        rows = kl_rows(dc.Tensor(mu), dc.Tensor(ls)).data
        assert rows.shape == (5,)
        np.testing.assert_allclose(
            rows, 0.5 * (mu ** 2 + np.exp(2 * ls) - 1 - 2 * ls).sum(1), rtol=1e-12)
        assert rows.mean() == pytest.approx(
            float(kl_standard_normal(dc.Tensor(mu), dc.Tensor(ls)).data))

    def test_recon_rows_match_numpy(self):
        rng = np.random.default_rng(19)
        obs, logits = rng.random((4, 7)).round(), rng.standard_normal((4, 7))
        p = 1 / (1 + np.exp(-logits))
        np.testing.assert_allclose(recon_rows(obs, logits).data,
                                   -(obs * np.log(p) + (1 - obs) * np.log(1 - p)).mean(1),
                                   rtol=1e-10)

    def test_total_composition(self):
        rng = np.random.default_rng(15)
        enc = tiny_encoder(rng)
        graph = cg.fully_connected(4)
        feats = rng.standard_normal((4, 6))
        _, dist = enc.step(feats, enc.init_state(graph.ids), graph.ids, (cg.normalize(graph),),
                           rng=np.random.default_rng(0))
        target = np.clip(rng.random((4, 20)), 0, 1)
        recon = dc.mean(recon_rows(target, enc.decode(dist.latent, rng.random((4, 2)))))
        kl = dc.mean(kl_rows(dist.mu, dist.log_sigma))
        cons = dc.mean(consistency_rows(dist.latent, _center(4)))
        alpha = 0.1
        total = float(recon.data) + float(kl.data) + alpha * float(cons.data)
        assert float(recon.data) >= 0 and float(kl.data) >= 0 and float(cons.data) >= 0
        assert total == pytest.approx(
            float(dc.add(dc.add(recon, kl), dc.mul(cons, alpha)).data))


def random_codes(task, n, seed):
    """``n`` windows of ``task`` as drawn hp counts up to its maxima, at drawn
    map cells."""
    rng = np.random.default_rng(seed)
    cells = task.window ** 2
    codes = np.concatenate([rng.integers(0, task.hp_omnivore + 1, (n, cells)),
                            rng.integers(0, task.hp_food + 1, (n, cells))], axis=1)
    return codes.astype(np.uint8), rng.integers(0, task.map_size, (n, 2))


class TestObsCompressor:
    def test_untrained_rejected(self, tiny_task):
        comp = ObsCompressor(ObsVaeConfig(obs_dim=tiny_task.obs_dim, latent_width=8),
                             np.random.default_rng(0))
        with pytest.raises(StateError):
            comp.encode(*random_codes(tiny_task, 1, 0), tiny_task)

    def test_identical_obs_identical_features(self, tiny_compressor, tiny_task):
        codes, cells = random_codes(tiny_task, 1, 1)
        f1 = tiny_compressor.encode(codes, cells, tiny_task)[0]
        f2 = tiny_compressor.encode(codes, cells, tiny_task)[0]
        np.testing.assert_array_equal(f1, f2)
        assert f1.shape == (8,)

    def test_beats_constant_half_predictor(self, tiny_compressor, tiny_task):
        from nviflab.harness.pipeline import collect_obs_corpus
        held_out = collect_obs_corpus(tiny_task, episodes=3,
                                      rng=np.random.default_rng(999), max_samples=800)
        rows = decode_windows(held_out.codes, held_out.positions, held_out)
        bce = reconstruction_bce(tiny_compressor, rows)
        assert bce < np.log(2.0)

    def test_log_sigma_head_node_trains_as_the_chain(self, tiny_task, monkeypatch):
        # the one-node log-sigma head against its affine and clamp nodes,
        # through two epochs of training: the same weights, bit for bit
        from nviflab.harness.pipeline import collect_obs_corpus
        corpus = collect_obs_corpus(tiny_task, episodes=2, rng=np.random.default_rng(8),
                                    max_samples=600)

        def trained():
            comp = ObsCompressor(ObsVaeConfig(obs_dim=tiny_task.obs_dim, latent_width=8,
                                              hidden_width=24), np.random.default_rng(4))
            comp.train(corpus, ObsVaeHyper(epochs=2, lr=2e-3, batch_size=128, seed=3))
            return {n: comp.store[n].data.tobytes() for n in comp.store.names()}

        lean = trained()
        monkeypatch.setattr(importlib.import_module("nviflab.nvif.obs_vae"), "log_sigma_head",
                            composite_log_sigma_head)
        assert trained() == lean

    def test_save_load(self, tmp_path, tiny_compressor, tiny_task):
        tiny_compressor.save(tmp_path / "vae")
        loaded = ObsCompressor.load(tmp_path / "vae")
        codes, cells = random_codes(tiny_task, 4, 3)
        np.testing.assert_array_equal(loaded.encode(codes, cells, tiny_task),
                                      tiny_compressor.encode(codes, cells, tiny_task))


# the folded encode agrees with the float path to this share of its features' scale
FOLD_TOL = 1e-5


def assert_folds_like_floats(comp, codes, cells, task):
    got = comp.encode(codes, cells, task)
    want = float_encode(comp, codes, cells, task)
    assert got.shape == want.shape == (len(codes), comp.config.latent_width)
    assert got.dtype == want.dtype == np.dtype(comp.config.dtype)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= FOLD_TOL * scale


def fresh_compressor(obs_dim, dtype="float32"):
    """A freshly initialized compressor, marked trained."""
    config = ObsVaeConfig(obs_dim=obs_dim, latent_width=8, hidden_width=48, dtype=dtype)
    return ObsCompressor(config, np.random.default_rng(obs_dim), trained=True)


@pytest.fixture(scope="module")
def fold_compressors():
    """Fresh compressors by (width, dtype), kept across one module's examples."""
    made = {}

    def get(obs_dim, dtype):
        if (obs_dim, dtype) not in made:
            made[obs_dim, dtype] = fresh_compressor(obs_dim, dtype)
        return made[obs_dim, dtype]
    return get


def tiny_corpus(task, seed, max_samples=300):
    from nviflab.harness.pipeline import collect_obs_corpus
    return collect_obs_corpus(task, 1, np.random.default_rng(seed), max_samples)


@st.composite
def fold_cases(draw):
    """A desk, medium or large preset's world or a crowded drawn one, some
    random steps in, every unit at a drawn hp up to its maximum; its alive
    agents or one of them; and a compressor's dtype."""
    if draw(st.booleans()):
        world = draw(hp_worlds())
    else:
        name = draw(st.sampled_from(["desk-random-16", "desk-normal-16", "random-medium",
                                     "normal-large"]))
        world = new_world(preset(name, seed=draw(st.integers(0, 2 ** 16))))
        draw_hp(draw, world, draw(st.integers(0, 4)))
    ids = world.alive_agents()
    if draw(st.booleans()):
        ids = [draw(st.sampled_from(ids))]
    return world, ids, draw(st.sampled_from(["float32", "float64"]))


class TestFoldedEncode:
    @given(case=fold_cases())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_float_path(self, fold_compressors, case):
        world, ids, dtype = case
        comp = fold_compressors(world.config.obs_dim, dtype)
        assert_folds_like_floats(comp, observe(world, ids), world.agent_positions(ids),
                                 world.config)

    def test_trained_compressor_equals_the_float_path(self, tiny_compressor, tiny_task):
        world = new_world(tiny_task)
        rng = np.random.default_rng(4)
        while not world.done:
            ids = world.alive_agents()
            assert_folds_like_floats(tiny_compressor, observe(world, ids),
                                     world.agent_positions(ids), tiny_task)
            step(world, rng.integers(0, N_ACTIONS, len(ids)))

    def test_no_agents_encode_no_rows(self, tiny_compressor, tiny_task):
        world = new_world(tiny_task)
        codes = observe(world, [])
        feats = tiny_compressor.encode(codes, world.agent_positions([]), tiny_task)
        assert feats.shape == (0, 8) and feats.dtype == np.float32

    def test_misfit_codes_or_cells_rejected(self, tiny_compressor, tiny_task):
        codes, cells = random_codes(tiny_task, 3, 0)
        for bad in (codes[:, 1:], np.zeros((3, tiny_task.obs_dim), np.uint8), codes[0],
                    codes[:2]):
            with pytest.raises(DataError, match="codes") as err:
                tiny_compressor.encode(bad, cells, tiny_task)
            assert str(bad.shape) in str(err.value)
        for bad in (cells[:, :1], cells[:2], cells.ravel()):
            with pytest.raises(DataError, match="cells") as err:
                tiny_compressor.encode(codes, bad, tiny_task)
            assert str(bad.shape) in str(err.value)
        for value in (-1, tiny_task.map_size):
            off_map = cells.copy()
            off_map[1, 1] = value
            with pytest.raises(DataError, match="map"):
                tiny_compressor.encode(codes, off_map, tiny_task)


class TestFoldCache:
    def test_one_table_per_task_key(self, tiny_task):
        comp = fresh_compressor(tiny_task.obs_dim)
        codes, cells = random_codes(tiny_task, 5, 2)
        comp.encode(codes, cells, tiny_task)
        ((key, fold),) = comp._folds.items()
        ms, w = tiny_task.map_size, tiny_task.window
        assert key == (ms, tiny_task.hp_omnivore, tiny_task.hp_food)
        w_codes, table = fold
        assert w_codes.shape == (4 * w * w, 48) and table.shape == (ms, ms, 48)
        assert w_codes.dtype == table.dtype == np.float32
        comp.encode(codes[:1], cells[:1], tiny_task)
        # a task that differs only where the fold does not look shares it
        comp.encode(codes, cells, replace(tiny_task, seed=tiny_task.seed + 1, n_food=3))
        assert len(comp._folds) == 1 and comp._folds[key] is fold
        for other in (replace(tiny_task, hp_omnivore=tiny_task.hp_omnivore + 1),
                      replace(tiny_task, hp_food=tiny_task.hp_food + 1),
                      replace(tiny_task, map_size=ms + 1)):
            assert_folds_like_floats(comp, codes, cells, other)
        assert len(comp._folds) == 4 and comp._folds[key] is fold

    def test_table_rebuilt_after_train(self, tiny_task):
        config = ObsVaeConfig(obs_dim=tiny_task.obs_dim, latent_width=4, hidden_width=16)
        comp = ObsCompressor(config, np.random.default_rng(0))
        corpus = tiny_corpus(tiny_task, 0)
        hyper = ObsVaeHyper(epochs=1, lr=2e-3, batch_size=64, seed=0)
        comp.train(corpus, hyper)
        codes, cells = random_codes(tiny_task, 6, 1)
        first = comp.encode(codes, cells, tiny_task)
        (old_codes, old_table), = comp._folds.values()
        comp.train(corpus, hyper)
        assert comp._folds == {}
        assert_folds_like_floats(comp, codes, cells, tiny_task)
        (new_codes, new_table), = comp._folds.values()
        assert not np.array_equal(new_table, old_table)
        assert not np.array_equal(new_codes, old_codes)
        assert not np.array_equal(comp.encode(codes, cells, tiny_task), first)

    def test_loaded_compressor_starts_empty(self, tmp_path, tiny_compressor, tiny_task):
        codes, cells = random_codes(tiny_task, 6, 5)
        tiny_compressor.encode(codes, cells, tiny_task)
        tiny_compressor.save(tmp_path / "vae")
        loaded = ObsCompressor.load(tmp_path / "vae")
        assert loaded.trained and loaded._folds == {}
        assert_folds_like_floats(loaded, codes, cells, tiny_task)
        key = (tiny_task.map_size, tiny_task.hp_omnivore, tiny_task.hp_food)
        for mine, theirs in zip(loaded._folds[key], tiny_compressor._folds[key]):
            np.testing.assert_array_equal(mine, theirs)

    def test_medium_compressor_encodes_on_the_96_wide_map(self):
        # the scalability path: trained on one map, evaluated on another
        medium = preset("random-medium", seed=0)
        comp = ObsCompressor(ObsVaeConfig(obs_dim=medium.obs_dim, latent_width=8,
                                          hidden_width=48), np.random.default_rng(0))
        comp.train(tiny_corpus(medium, 0), ObsVaeHyper(epochs=1, lr=2e-3, batch_size=128))
        large = preset("normal-large", seed=0)
        comp.check_obs_width(large)
        world = new_world(large)
        rng = np.random.default_rng(1)
        for _ in range(3):
            step(world, rng.integers(0, N_ACTIONS, len(world.alive_agents())))
        ids = world.alive_agents()
        assert_folds_like_floats(comp, observe(world, ids), world.agent_positions(ids), large)
        assert (96, large.hp_omnivore, large.hp_food) in comp._folds


@pytest.fixture(scope="module")
def small_buffer(tiny_task, tiny_compressor):
    return collect_pretrain_buffer(tiny_task, 6, tiny_compressor,
                                   np.random.default_rng(21))


class TestPretrain:
    def test_loss_drops(self, small_buffer, tiny_task):
        enc = tiny_encoder(np.random.default_rng(2), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float32")
        enc, history = pretrain(small_buffer, PretrainHyper(
            epochs=10, lr=3e-3, batch_episodes=3,
            recon_weight=float(tiny_task.obs_dim), seed=0), enc)
        assert history[-1].recon < history[0].recon
        for rep in history:
            assert rep.total == pytest.approx(
                rep.recon + rep.kl + rep.alpha * rep.consistency)

    def test_alpha_zero_freezes_consistency_gradient(self, small_buffer, tiny_task):
        from nviflab.nvif.pretrain import _batch_loss
        rng = np.random.default_rng(4)
        enc = tiny_encoder(np.random.default_rng(3), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float64")
        # gradients with alpha=0 equal the recon+kl-only gradients exactly
        total, *_ = _batch_loss(enc, small_buffer[:2], alpha=0.0, recon_weight=1.0,
                                rng=np.random.default_rng(0))
        enc.store.zero_grad()
        dc.backward(total)
        g_alpha0 = {n: enc.store[n].grad.copy() for n in enc.store.names()}
        total2, *_ = _batch_loss(enc, small_buffer[:2], alpha=0.1, recon_weight=1.0,
                                 rng=np.random.default_rng(0))
        enc.store.zero_grad()
        dc.backward(total2)
        assert any(not np.allclose(enc.store[n].grad, g_alpha0[n])
                   for n in enc.store.names())

    def test_batched_loss_matches_single_episode_path(self, small_buffer, tiny_task):
        # the combined block-diagonal computation equals looping one episode
        from nviflab.nvif.pretrain import _batch_loss
        enc = tiny_encoder(np.random.default_rng(6), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float64")
        pair = small_buffer[:2]
        _, recon_b, kl_b, cons_b, slots_b = _batch_loss(
            enc, pair, alpha=0.1, recon_weight=1.0, rng=np.random.default_rng(0))
        # same noise stream cannot be split across episodes; use zero noise instead
        sums = np.zeros(3)
        slots = 0
        for ep in pair:
            _, r, k, c, s = _batch_loss(enc, [ep], alpha=0.1, recon_weight=1.0,
                                        rng=_ZeroRng())
            sums += np.array([r, k, c]) * s
            slots += s
        _, rb, kb, cb, sb = _batch_loss(enc, pair, alpha=0.1, recon_weight=1.0,
                                        rng=_ZeroRng())
        np.testing.assert_allclose([rb * sb, kb * sb, cb * sb], sums, rtol=1e-10)

    def test_batch_loss_is_encoder_step_plus_tested_losses(self, small_buffer, tiny_task):
        # one episode, one step: pre-training's terms are NvifEncoder.step
        # followed by the means of recon_rows, kl_rows and consistency_rows
        from nviflab.nvif.pretrain import _batch_loss
        enc = tiny_encoder(np.random.default_rng(7), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float64")
        first = small_buffer[0]
        sd = first.steps[0]
        total, recon, kl, cons, n_slots = _batch_loss(
            enc, [replace(first, steps=[sd])], alpha=0.1, recon_weight=2.0,
            rng=np.random.default_rng(0))
        _, dist = enc.step(sd.feats, enc.init_state(sd.ids), sd.ids,
                           (sd.adj_norm.astype(np.float64),), rng=np.random.default_rng(0))
        obs = decode_windows(sd.raw_obs, sd.positions, first)
        r = dc.mean(recon_rows(obs, enc.decode(dist.latent, sd.positions)))
        k = dc.mean(kl_rows(dist.mu, dist.log_sigma))
        c = dc.mean(consistency_rows(dist.latent, _center(len(sd.ids))))
        assert n_slots == 1
        np.testing.assert_allclose([recon, kl, cons],
                                   [2.0 * float(r.data), float(k.data), float(c.data)],
                                   rtol=1e-10)
        assert float(total.data) == pytest.approx(
            2.0 * float(r.data) + float(k.data) + 0.1 * float(c.data))

    def _watch_batches(self, monkeypatch, on_entry=None, on_return=None):
        module = importlib.import_module("nviflab.nvif.pretrain")
        real = module._batch_loss

        def watched(*args, **kwargs):
            if on_entry:
                on_entry()
            out = real(*args, **kwargs)
            if on_return:
                on_return(out[0])
            return out

        monkeypatch.setattr(module, "_batch_loss", watched)

    def test_previous_batch_tape_freed_before_next_batch(self, small_buffer, tiny_task,
                                                          monkeypatch):
        losses, alive_at_entry = [], []
        self._watch_batches(
            monkeypatch,
            on_entry=lambda: alive_at_entry.append([r() is not None for r in losses]),
            on_return=lambda loss: losses.append(weakref.ref(loss)))
        enc = tiny_encoder(np.random.default_rng(8), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float32")
        pretrain(small_buffer[:4], PretrainHyper(epochs=1, batch_episodes=2, seed=0), enc)
        assert alive_at_entry == [[], [False]]
        assert losses[1]() is None

    def test_epoch_peak_memory_within_two_tapes(self, small_buffer, tiny_task, monkeypatch):
        # over the fixed cost of the parameter gradients and Adam moments, one
        # tape plus the gradients still in flight; a tape outliving its batch,
        # or every interior gradient kept to the end, breaks the budget. The
        # tape's bytes leave out the buffer's arrays, which it only references.
        buffered = {id(a) for ep in small_buffer for sd in ep.steps
                    for a in (sd.raw_obs, sd.feats, sd.positions, sd.adj_norm)}
        tape_bytes = []
        self._watch_batches(monkeypatch, on_return=lambda loss: tape_bytes.append(
            tape_size(loss, skip=buffered)[1]))
        enc = NvifEncoder(NvifConfig(
            obs_feat_width=8, obs_dim=tiny_task.obs_dim, hidden_width=64, latent_width=16,
            flow_layers=2, decoder_hidden=128, dtype="float32"), np.random.default_rng(2))
        tracemalloc.start()
        try:
            pretrain(small_buffer[:4], PretrainHyper(epochs=1, batch_episodes=2, seed=0), enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fixed = (sum(enc.store[n].grad.nbytes for n in enc.store.names()) +
                 sum(buf.m.nbytes + buf.v.nbytes for buf in enc.store.buffers.values()))
        assert len(tape_bytes) == 2
        assert peak - fixed <= 2 * max(tape_bytes)

    @staticmethod
    def _batch_against_oracles(buffer, tiny_task, monkeypatch, oracles, alpha=0.1):
        """One pre-training batch as built today and with ``oracles``, (module,
        name, composite) triples, patched in: (loss, (nodes, bytes), grads)
        of each."""
        enc = NvifEncoder(NvifConfig(
            obs_feat_width=8, obs_dim=tiny_task.obs_dim, hidden_width=64, latent_width=16,
            flow_layers=2, decoder_hidden=128, dtype="float32"), np.random.default_rng(2))

        def batch():
            enc.store.zero_grad()
            total, *_ = _batch_loss(enc, buffer[:2], alpha=alpha, recon_weight=1.0,
                                    rng=np.random.default_rng(0))
            size = tape_size(total)
            dc.backward(total)
            return total.data, size, {n: enc.store[n].grad.copy() for n in enc.store.names()}

        lean = batch()
        for module, name, composite in oracles:
            monkeypatch.setattr(importlib.import_module(module), name, composite)
        return lean, batch()

    def test_fused_gru_shrinks_the_tape_with_identical_gradients(
            self, small_buffer, tiny_task, monkeypatch):
        # one pre-training batch with the one-node encoder step and with its
        # chain, whose GRU is the 13-node oracle, patched into the encoder:
        # same loss and gradients, a smaller tape
        (loss, (nodes, nbytes), grads), (ref_loss, (ref_nodes, ref_bytes), ref_grads) = \
            self._batch_against_oracles(small_buffer, tiny_task, monkeypatch, [
                ("nviflab.nvif.encoder", "flow_gru_cell", composite_flow_gru_cell),
                ("conftest", "gru_cell", composite_gru_cell)])
        assert loss == ref_loss
        for name in grads:
            np.testing.assert_array_equal(grads[name], ref_grads[name])
        assert nodes < ref_nodes and nbytes < ref_bytes

    def test_encoder_step_node_takes_the_layers_off_the_tape(
            self, small_buffer, tiny_task, monkeypatch):
        # the one-node encoder step against its chain of one-node graph-conv
        # layers and GRU cell: same loss and gradient bytes, and the tape
        # loses each step's four layer nodes and their outputs
        layers = []

        def counted(*args):
            layers.append(graph_conv(*args))
            return layers[-1]

        monkeypatch.setattr(conftest, "graph_conv", counted)
        (loss, (nodes, nbytes), grads), (ref_loss, (ref_nodes, ref_bytes), ref_grads) = \
            self._batch_against_oracles(small_buffer, tiny_task, monkeypatch, [
                ("nviflab.nvif.encoder", "flow_gru_cell", composite_flow_gru_cell)])
        assert loss.tobytes() == ref_loss.tobytes()
        for name in grads:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        assert len(layers) == 4 * max(len(ep.steps) for ep in small_buffer[:2])
        assert nodes == ref_nodes - len(layers)
        assert ref_bytes - nbytes >= sum(layer.data.nbytes for layer in layers)

    def test_lean_nodes_shrink_the_tape_with_identical_gradients(
            self, small_buffer, tiny_task):
        # every fused node against its composite patched back in: the encoder
        # step (its graph-conv layers and GRU cell as nodes), the graph-conv
        # layer (sparse_matmul, matmul and relu nodes), the GRU cell, the
        # log-sigma head (affine and clamp nodes), the latent sample, the
        # consistency distance (sparse_matmul and sq_dist_rows nodes, the
        # latter as sub, mul and sum nodes) and the KL rows.
        # Same loss and gradient bytes, from a tape of at most 0.165 of the
        # bytes: this batch measured 0.137 (734 against 2253 nodes), and 0.139
        # (494 against 1893) without the consistency term, so the bound
        # leaves an 18% margin.
        # Without that term (alpha 0) the latent sample's gradient reaches mu
        # and log_sigma before the KL node's, which must then add its terms
        # one at a time in the chain's order; a KL node over (mu, log_sigma)
        # that sums each operand's two terms first rounds differently there
        for alpha in (0.1, 0.0):
            with pytest.MonkeyPatch.context() as monkeypatch:
                (loss, (nodes, nbytes), grads), (ref_loss, (ref_nodes, ref_bytes), ref_grads) = \
                    self._batch_against_oracles(small_buffer, tiny_task, monkeypatch, [
                        ("nviflab.nvif.encoder", "flow_gru_cell", composite_flow_gru_cell),
                        ("conftest", "graph_conv", composite_graph_conv),
                        ("conftest", "matmul_relu", composite_matmul_relu),
                        ("conftest", "gru_cell", composite_gru_cell),
                        ("nviflab.nvif.encoder", "log_sigma_head", composite_log_sigma_head),
                        ("nviflab.nvif.encoder", "gaussian_sample", composite_gaussian_sample),
                        ("nviflab.nvif.losses", "centered_sq_dist_rows",
                         composite_centered_sq_dist_rows),
                        ("conftest", "sq_dist_rows", composite_sq_dist_rows),
                        ("nviflab.diffcore.nn", "kl_rows", composite_kl_rows)], alpha)
            assert loss.tobytes() == ref_loss.tobytes(), alpha
            assert grads.keys() == ref_grads.keys()
            for name in grads:
                assert grads[name].tobytes() == ref_grads[name].tobytes(), (alpha, name)
            assert nodes < ref_nodes
            assert nbytes <= 0.165 * ref_bytes, (alpha, nbytes, ref_bytes)

    def test_zero_batch_rejected(self, small_buffer):
        with pytest.raises(ConfigError):
            pretrain(small_buffer, PretrainHyper(epochs=1, batch_episodes=0), tiny_encoder())

    def test_empty_buffer_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(DataError):
            pretrain([], PretrainHyper(epochs=1), enc)


class _ZeroCompressor:
    """Stands in for an ObsCompressor where only the buffer format matters."""
    width = 16

    def encode(self, codes, *rest):
        return np.zeros((len(codes), self.width), dtype=np.float32)


@st.composite
def hp_worlds(draw):
    """Worlds a few random steps in, every alive unit at a drawn hp between 1
    and its maximum, the maxima anywhere in the uint8 range."""
    map_size = draw(st.integers(8, 16))
    cfg = TaskConfig(
        task_kind=draw(st.sampled_from(["normal", "random"])), map_size=map_size,
        n_omnivores=draw(st.integers(1, 4 * (map_size - 1))), n_food=draw(st.integers(1, 9)),
        view_radius=draw(st.integers(1, 4)), hp_omnivore=draw(st.integers(1, 255)),
        hp_food=draw(st.integers(2, 255)), seed=draw(st.integers(0, 2 ** 32 - 1)))
    world = new_world(cfg)
    draw_hp(draw, world, draw(st.integers(0, 4)))
    return world


def draw_hp(draw, world, steps):
    """Steps ``world`` up to ``steps`` random steps, then sets every alive
    unit to a drawn hp between 1 and its maximum."""
    cfg = world.config
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    for _ in range(steps):
        ids = world.alive_agents()
        if world.done or not ids:
            break
        step(world, rng.integers(0, N_ACTIONS, len(ids)))
    assume(world.alive_agents())
    for i in np.flatnonzero(world.alive):
        top = cfg.hp_omnivore if i < world.n_agents else cfg.hp_food
        world.hp[i] = int(draw(st.sampled_from([1, top, int(rng.integers(1, top + 1))])))
    refresh_grids(world)


class TestBufferCodes:
    @given(world=hp_worlds())
    @settings(max_examples=80, deadline=None)
    def test_decoded_windows_equal_observe(self, world):
        ids = world.alive_agents()
        sd = gather_step_data(world, ids, _ZeroCompressor())
        assert np.array_equal(sd.raw_obs, observe(world, ids))
        decoded = decode_windows(sd.raw_obs, sd.positions, world.config)
        assert decoded.dtype == np.float32
        assert np.array_equal(decoded, float_observe(world, ids))

    def test_buffer_bytes_within_a_seventh_of_float32_windows(self):
        # the codes are two hp-count grids, 2*w*w bytes an agent: the five
        # stored channels of 5*w*w bytes put a step of 29 agents at about 793
        # bytes an agent, past this bound, and two grids at about 430
        task = preset("random-medium", seed=1, max_steps=10)
        buffer = collect_pretrain_buffer(task, 2, _ZeroCompressor(), np.random.default_rng(0))
        cells = task.window ** 2
        steps = [sd for ep in buffer for sd in ep.steps]
        assert all(ep.map_size == task.map_size for ep in buffer)
        for sd in steps:
            assert sd.raw_obs.dtype == np.uint8
            assert sd.raw_obs.shape == (len(sd.ids), 2 * cells)
            assert sd.raw_obs.nbytes == 2 * cells * len(sd.ids)
        nbytes = sum(a.nbytes for sd in steps
                     for a in (sd.raw_obs, sd.feats, sd.positions, sd.adj_norm))
        assert nbytes / sum(len(sd.ids) for sd in steps) <= 28 * cells / 7

    def test_steps_and_episodes_compare_without_raising(self, small_buffer):
        # array fields have no single truth value, so records compare by identity
        first, second = small_buffer[0], small_buffer[1]
        s1, s2 = first.steps[0], second.steps[0]
        assert len(s1.ids) > 1 and len(s2.ids) > 1
        assert s1 == s1 and not s1 == s2 and s1 != s2
        assert first == first and not first == second and first != second

    @pytest.mark.parametrize("n_episodes", [0, -1])
    def test_zero_episodes_rejected(self, tiny_task, n_episodes):
        with pytest.raises(ConfigError, match="buffer_episodes"):
            collect_pretrain_buffer(tiny_task, n_episodes, _ZeroCompressor(),
                                    np.random.default_rng(0))

    def test_batch_of_different_hp_rejected(self, small_buffer, tiny_task):
        for hp in (dict(hp_omnivore=4), dict(hp_food=3)):
            other = replace(small_buffer[1], **hp)
            with pytest.raises(DataError, match="hp maxima"):
                _batch_loss(tiny_encoder(obs_feat=8, obs_dim=tiny_task.obs_dim),
                            [small_buffer[0], other], 0.1, 1.0, np.random.default_rng(0))

    def test_batch_of_different_map_sizes_rejected(self, small_buffer, tiny_task):
        other = replace(small_buffer[1], map_size=small_buffer[1].map_size + 1)
        with pytest.raises(DataError, match="map sizes"):
            _batch_loss(tiny_encoder(obs_feat=8, obs_dim=tiny_task.obs_dim),
                        [small_buffer[0], other], 0.1, 1.0, np.random.default_rng(0))


def full_tape_batch_loss(encoder, episodes, alpha, recon_weight, rng):
    """Oracle: the episode-batch loss with every timestep's decoder on one
    tape, backpropagated once."""
    dt = encoder.config.np_dtype
    n_slots = sum(len(ep.steps) for ep in episodes)
    state = total = None
    for t in range(max(len(ep.steps) for ep in episodes)):
        live = [(i, ep.steps[t]) for i, ep in enumerate(episodes) if len(ep.steps) > t]
        sizes = [len(sd.ids) for _, sd in live]
        keys = [(i, a) for i, sd in live for a in sd.ids]
        pos = np.concatenate([sd.positions for _, sd in live])
        raw = np.concatenate([decode_windows(sd.raw_obs, sd.positions, episodes[i])
                              for i, sd in live])
        adj = tuple(sd.adj_norm.astype(dt) for _, sd in live)
        center = tuple(np.full((k, k), 1.0 / k, dtype=dt) for k in sizes)
        weights = np.concatenate([np.full(k, 1.0 / (k * n_slots), dtype=dt) for k in sizes])
        if state is None:
            state = encoder.init_state(keys)
        state, dist = encoder.step(np.concatenate([sd.feats for _, sd in live]), state,
                                   keys, adj, rng=rng)
        logits = encoder.decode(dist.latent, pos)
        recon_t = dc.sum(dc.mul(recon_rows(raw, logits), weights))
        kl_t = dc.sum(dc.mul(kl_rows(dist.mu, dist.log_sigma), weights))
        cons_t = dc.sum(dc.mul(consistency_rows(dist.latent, center), weights))
        contrib = dc.mul(recon_t, recon_weight) + kl_t
        if alpha != 0.0:
            contrib = contrib + dc.mul(cons_t, alpha)
        total = contrib if total is None else total + contrib
    return total


def _tape_arrays(loss):
    """Every node value and saved array on the tape of ``loss``, the arrays in
    nested tuples of ``_saved`` (a node's blocks beside its pending gradients)
    included."""
    stack = [item for node in dc.topological_order(loss) for item in (node.data, node._saved)]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (tuple, list)):
            stack.extend(item)


class TestDecoderLocalBackward:
    def test_no_obs_dim_wide_array_on_the_batch_tape(self, small_buffer, tiny_task):
        enc = tiny_encoder(np.random.default_rng(9), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float32")
        args = (enc, small_buffer[:3], 0.1, 1.0)
        total, *_ = _batch_loss(*args, rng=np.random.default_rng(0))
        oracle = full_tape_batch_loss(*args, rng=np.random.default_rng(0))

        def widths(loss):
            return {a.shape[-1] for a in _tape_arrays(loss) if a.ndim}
        assert tiny_task.obs_dim in widths(oracle)
        assert tiny_task.obs_dim not in widths(total)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    def test_gradients_equal_full_tape(self, small_buffer, tiny_task, dtype, alpha):
        enc = tiny_encoder(np.random.default_rng(10), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype=dtype)
        args = (enc, small_buffer[:4], alpha, 3.0)
        enc.store.zero_grad()
        oracle = full_tape_batch_loss(*args, rng=np.random.default_rng(1))
        dc.backward(oracle)
        want = {n: enc.store[n].grad.copy() for n in enc.store.names()}
        enc.store.zero_grad()
        total, *_ = _batch_loss(*args, rng=np.random.default_rng(1))
        dc.backward(total)
        assert float(total.data) == float(oracle.data)
        for name in enc.store.names():
            assert np.array_equal(enc.store[name].grad, want[name]), name


class TestTapeHeadAndDistance:
    def test_no_pre_clamp_or_centred_array_on_the_batch_tape(self, small_buffer, tiny_task,
                                                             monkeypatch):
        # with the composites patched in, each timestep keeps a pre-clamp
        # log-sigma (the affine node under a clamp) and a centred product
        # C s (a sparse_matmul node) on the tape; the lean tape holds neither
        # node, its log-sigma heads keep nothing and its distances keep only
        # the centering blocks, and its bytes fall by at least those arrays'
        enc = tiny_encoder(np.random.default_rng(9), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float32")
        episodes = small_buffer[:3]
        steps = max(len(ep.steps) for ep in episodes)

        def tape():
            total, *_ = _batch_loss(enc, episodes, 0.1, 1.0, rng=np.random.default_rng(0))
            return dc.topological_order(total), tape_size(total)[1]

        def by_vjp(order, vjp):
            return [node for node in order if node._backward is vjp]

        order, nbytes = tape()
        assert not by_vjp(order, dc_tensor._vjp_clamp)
        assert not by_vjp(order, dc_tensor._vjp_sparse_matmul)
        heads = by_vjp(order, dc_nn._vjp_log_sigma_head)
        dists = by_vjp(order, dc_tensor._vjp_centered_sq_dist_rows)
        assert len(heads) == len(dists) == steps
        assert all(node._saved is None for node in heads)
        for node in dists:
            blocks, pending = node._saved
            assert pending is None and all(
                b.shape == (len(b), len(b)) and np.all(b == np.float32(1.0 / len(b)))
                for b in blocks)

        monkeypatch.setattr(importlib.import_module("nviflab.nvif.encoder"), "log_sigma_head",
                            composite_log_sigma_head)
        monkeypatch.setattr(importlib.import_module("nviflab.nvif.losses"),
                            "centered_sq_dist_rows", composite_centered_sq_dist_rows)
        ref_order, ref_bytes = tape()
        pre_clamp = [p.data for node in by_vjp(ref_order, dc_tensor._vjp_clamp)
                     for p in node._parents]
        centred = [node.data for node in by_vjp(ref_order, dc_tensor._vjp_sparse_matmul)]
        assert len(pre_clamp) == len(centred) == steps
        assert len(order) == len(ref_order) - 2 * steps
        assert ref_bytes - nbytes >= sum(a.nbytes for a in pre_clamp + centred)


class TestBlockBatches:
    # Episodes of one agent are left out: run alone, their (1, w) @ (w, h)
    # products take numpy's matrix-vector (gemv) path, which rounds
    # differently from the matrix-matrix (gemm) path of the stacked rows.
    @given(sizes=st.lists(st.integers(2, 12), min_size=2, max_size=4),
           hidden=st.sampled_from([8, 16, 64]), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stacked_step_equals_each_episode_alone(self, sizes, hidden, seed):
        rng = np.random.default_rng(seed)
        enc = tiny_encoder(rng, hidden=hidden, dtype="float32")
        episodes = []
        for k in sizes:
            cells = rng.permutation(100)[:k]
            graph = cg.build_graph(np.stack([cells // 10, cells % 10], axis=1), range(k))
            episodes.append((graph.ids, cg.normalize(graph).astype(np.float32),
                             rng.standard_normal((k, 6)).astype(np.float32),
                             rng.standard_normal((k, hidden)).astype(np.float32)))
        keys = [(e, a) for e, (ids, *_) in enumerate(episodes) for a in ids]
        state = enc.init_state(keys)
        state.hidden.data = np.concatenate([h for *_, h in episodes])
        stacked_state, stacked = enc.step(np.concatenate([f for _, _, f, _ in episodes]), state,
                                          keys, [adj for _, adj, _, _ in episodes],
                                          rng=NOISE)
        at = 0
        for ids, adj, feats, hidden_rows in episodes:
            alone = enc.init_state(ids)
            alone.hidden.data = hidden_rows
            alone_state, dist = enc.step(feats, alone, ids, (adj,), rng=NOISE)
            rows = slice(at, at + len(ids))
            assert np.array_equal(stacked.mu.data[rows], dist.mu.data)
            assert np.array_equal(stacked.log_sigma.data[rows], dist.log_sigma.data)
            assert np.array_equal(stacked_state.hidden.data[rows], alone_state.hidden.data)
            at += len(ids)

    def test_no_stacked_square_array_on_the_batch_tape(self, small_buffer, tiny_task):
        enc = tiny_encoder(np.random.default_rng(9), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float32")
        episodes = small_buffer[:3]
        total, *_ = _batch_loss(enc, episodes, 0.1, 1.0, rng=np.random.default_rng(0))
        stacked, alone = set(), set()
        for t in range(max(len(ep.steps) for ep in episodes)):
            live = [ep.steps[t] for ep in episodes if len(ep.steps) > t]
            alone |= {len(sd.ids) for sd in live}
            if len(live) > 1:
                stacked.add(sum(len(sd.ids) for sd in live))
        squares = {a.shape[0] for a in _tape_arrays(total)
                   if a.ndim == 2 and a.shape[0] == a.shape[1]}
        assert stacked and alone <= squares  # the per-episode blocks are on the tape
        assert not stacked & squares


# Pre-training under an address-space cap, in its own process, so a memory
# regression fails that process instead of exhausting the machine. Figures
# are VmPeak with one BLAS thread (CPython 3.11, numpy 2.4, OpenBLAS).
# - One random-medium epoch (8 episodes, batches of 4) peaks at 168.9 MiB, 32%
#   below its cap. With the log-sigma head as an affine node and a clamp node
#   and the consistency distance as a block-product node and a distance node
#   it peaked at 172.7 MiB under a cap of 254; with five stored grid channels
#   in the buffer's codes in place of the two hp grids at 181 MiB; with the
#   encoder step's graph-conv layers and GRU cell as nodes of their own as
#   well at 192 MiB; with the graph-conv layer as a block product and a fused
#   product-relu, a GRU cell that saves its gates and the KL rows as nine
#   nodes at 221 MiB; with the product-relu, the latent sample and the
#   consistency term as composite nodes as well at 240 MiB, with the decoder
#   on the batch tape as well at 365 MiB, and with float32 windows in the
#   buffer as well at 427 MiB.
# - One paper-scale batch (16 random-large episodes of 49 agents) peaks at
#   290.9 MiB, 23% below its cap. With the head and the distance as two nodes
#   each it peaked at 317.6 MiB under a cap of 412; with five stored grid
#   channels at 336-337 MiB, with the layers and the cell as nodes of their
#   own as well at 409 MiB, with those three nodes as before at 612 MiB, with
#   the composite nodes as well at 726 MiB, and with a dense (N, N) matrix
#   over the stacked agents per timestep as well at 1195 MiB.
GATE_MIB = 248
LARGE_GATE_MIB = 377
_GATE_SCRIPT = """
import resource, sys
limit = int(sys.argv[1]) * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from nviflab.env_gather import preset
from nviflab.nvif import NvifConfig, NvifEncoder, PretrainHyper, collect_pretrain_buffer, pretrain

class ZeroCompressor:
    def encode(self, codes, *rest):
        return np.zeros((len(codes), 16), dtype=np.float32)

task = preset(sys.argv[2], seed=0)
episodes, batch = int(sys.argv[3]), int(sys.argv[4])
buffer = collect_pretrain_buffer(task, episodes, ZeroCompressor(), np.random.default_rng(0))
encoder = NvifEncoder(NvifConfig(obs_feat_width=16, obs_dim=task.obs_dim),
                      np.random.default_rng(1))
pretrain(buffer, PretrainHyper(epochs=1, batch_episodes=batch, seed=0), encoder)
"""


@linux_only
def test_pretrain_epoch_within_address_space_gate():
    run_capped(_GATE_SCRIPT, GATE_MIB, "random-medium", 8, 4)


@linux_only
def test_paper_scale_batch_within_address_space_gate():
    run_capped(_GATE_SCRIPT, LARGE_GATE_MIB, "random-large", 16, 16)


class _ZeroRng:
    def standard_normal(self, shape):
        return np.zeros(shape)


def tape_dtypes(loss) -> set:
    return {node.data.dtype for node in dc.topological_order(loss)}


# the model dtype must hold on every node of the tape, not only on the leaves
DTYPES = st.sampled_from(["float32", "float64"])
DTYPE_SETTINGS = settings(max_examples=6, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestModelDtypeEndToEnd:
    @given(dtype=DTYPES, seed=st.integers(0, 2 ** 16))
    @DTYPE_SETTINGS
    def test_encoder_step_returns_model_dtype(self, dtype, seed):
        rng = np.random.default_rng(seed)
        enc = tiny_encoder(rng, dtype=dtype)
        graph = cg.fully_connected(3)
        adj = (cg.normalize(graph).astype(dtype),)
        state = enc.init_state(graph.ids)
        for _ in range(2):  # the second step runs the GRU on a non-zero state
            state, dist = enc.step(rng.standard_normal((3, 6)).astype(np.float32), state,
                                   graph.ids, adj, rng=rng)
            for out in (state.hidden, dist.mu, dist.log_sigma, dist.latent):
                assert out.data.dtype == dtype
        with dc.no_grad():
            _, dist = enc.step(rng.standard_normal((3, 6)), state, graph.ids, adj, rng=rng)
        assert dist.latent.data.dtype == dtype

    @given(dtype=DTYPES, seed=st.integers(0, 2 ** 16))
    @DTYPE_SETTINGS
    def test_batch_loss_tape_is_model_dtype(self, small_buffer, tiny_task, dtype, seed):
        from nviflab.nvif.pretrain import _batch_loss
        enc = tiny_encoder(np.random.default_rng(seed), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype=dtype)
        total, *_ = _batch_loss(enc, small_buffer[:2], alpha=0.1, recon_weight=1.0,
                                rng=np.random.default_rng(seed))
        assert tape_dtypes(total) == {np.dtype(dtype)}
        enc.store.zero_grad()
        dc.backward(total)
        assert {enc.store[n].grad.dtype for n in enc.store.names()} == {np.dtype(dtype)}

    @given(dtype=DTYPES, seed=st.integers(0, 2 ** 16))
    @DTYPE_SETTINGS
    def test_gru_kl_consistency_chain_is_model_dtype(self, dtype, seed):
        rng = np.random.default_rng(seed)
        params = {k: dc.Tensor(v, requires_grad=True)
                  for k, v in dc.init_gru(rng, 3, 4, dtype).items()}
        x = dc.Tensor(rng.standard_normal((5, 3)).astype(dtype))
        h = gru_cell(x, dc.Tensor(rng.standard_normal((5, 4)).astype(dtype)), params)
        center = (np.full((5, 5), 0.2, dtype=dtype),)
        loss = dc.add(dc.sum(kl_rows(h, dc.mul(h, 0.5))), dc.sum(consistency_rows(h, center)))
        assert tape_dtypes(loss) == {np.dtype(dtype)}

