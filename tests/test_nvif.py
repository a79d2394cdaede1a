"""Encoder/decoder, the three losses, the observation compressor, pretraining."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nviflab import commgraph as cg
from nviflab import diffcore as dc
from nviflab.errors import ConfigError, DataError, ProtocolError, ShapeError, StateError
from nviflab.nvif import (
    EpisodeRecord,
    NvifConfig,
    NvifEncoder,
    ObsCompressor,
    ObsVaeConfig,
    ObsVaeHyper,
    PretrainHyper,
    collect_pretrain_buffer,
    flownet_forward,
    init_flownet,
    kl_standard_normal,
    loss_consistency,
    loss_variational,
    pretrain,
    pretrain_loss,
)
from nviflab.nvif.losses import consistency_rows, kl_rows


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
        params.weights[0].data = np.eye(3)
        v = np.array([[0.5, 1.0, 2.0]])
        adj = cg.normalize(cg.fully_connected(1))
        out = flownet_forward(v, adj, params)
        np.testing.assert_allclose(out.data, v)

    def test_two_clique_averages(self):
        store = dc.ParamStore()
        params = init_flownet(store, "f", [1, 1], np.random.default_rng(0), np.float64)
        params.weights[0].data = np.eye(1)
        adj = cg.normalize(cg.fully_connected(2))
        out = flownet_forward(np.array([[1.0], [3.0]]), adj, params)
        np.testing.assert_allclose(out.data, [[2.0], [2.0]])

    def test_two_layers_compose(self):
        rng = np.random.default_rng(1)
        store = dc.ParamStore()
        two = init_flownet(store, "two", [4, 5, 6], rng, np.float64)
        adj = cg.normalize(cg.fully_connected(3))
        x = rng.standard_normal((3, 4))
        full = flownet_forward(x, adj, two)
        from nviflab.nvif.flownet import FlowNetParams
        first = flownet_forward(x, adj, FlowNetParams(two.weights[:1]))
        second = flownet_forward(first, adj, FlowNetParams(two.weights[1:]))
        np.testing.assert_allclose(full.data, second.data)

    def test_row_mismatch_rejected(self):
        store = dc.ParamStore()
        params = init_flownet(store, "f", [4, 4], np.random.default_rng(0), np.float64)
        with pytest.raises(ShapeError):
            flownet_forward(np.zeros((2, 4)), cg.normalize(cg.fully_connected(3)), params)

    def test_independent_flownets_never_share(self):
        enc = tiny_encoder()
        o_names = {id(w) for w in enc.flow_o.weights}
        h_names = {id(w) for w in enc.flow_h.weights}
        assert not o_names & h_names


class TestEncoderStep:
    def _graph_chain(self):
        return cg.build_graph([(0, 0), (2, 0), (5, 0)], [0, 1, 2])

    def test_zero_weights_give_bias_mu(self):
        enc = tiny_encoder()
        for name in enc.store.names():
            if not name.startswith("head/"):
                enc.store[name].data = np.zeros_like(enc.store[name].data)
        enc.store["head/mu_w"].data = np.zeros_like(enc.store["head/mu_w"].data)
        enc.store["head/mu_b"].data = np.arange(4, dtype=np.float64)
        graph = self._graph_chain()
        state = enc.init_state(graph.ids)
        feats = np.ones((3, 6))
        state2, dist = enc.step(feats, state, graph.ids, cg.normalize(graph), sample=False)
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
        eps = rng.standard_normal((4, 4))
        _, dist = enc.step(feats, state, graph.ids, cg.normalize(graph), eps=eps, sample=True)

        perm = [2, 0, 3, 1]
        graph_p = cg.build_graph([pos[k] for k in perm], [ids[k] for k in perm])
        state_p = enc.init_state([ids[k] for k in perm])
        state_p.hidden.data = hidden[perm]
        _, dist_p = enc.step(feats[perm], state_p, graph_p.ids, cg.normalize(graph_p),
                             eps=eps[perm], sample=True)
        np.testing.assert_allclose(dist_p.mu.data, dist.mu.data[perm], atol=1e-9)
        np.testing.assert_allclose(dist_p.latent.data, dist.latent.data[perm], atol=1e-9)
        # all three losses unchanged under relabeling
        r1, k1 = loss_variational(enc.decode, np.clip(rng.random((4, 20)), 0, 1),
                                  rng.random((4, 2)), dist.latent, dist.mu, dist.log_sigma)
        c1 = loss_consistency(dist.latent)
        c2 = loss_consistency(dist_p.latent)
        np.testing.assert_allclose(float(c1.data), float(c2.data), atol=1e-9)

    def test_edgeless_graph_isolates_agents(self):
        rng = np.random.default_rng(6)
        enc = tiny_encoder(rng)
        adj = np.zeros((3, 3), dtype=bool)
        graph = cg.NeighborGraph(ids=(0, 1, 2), adj=adj)
        feats = rng.standard_normal((3, 6))
        state = enc.init_state(graph.ids)
        _, base = enc.step(feats, state, graph.ids, cg.normalize(graph), sample=False)
        feats2 = feats.copy()
        feats2[2] = 0.0  # zero a non-neighbor's observation
        _, changed = enc.step(feats2, state, graph.ids, cg.normalize(graph), sample=False)
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
        _, base = enc.step(feats, state, graph.ids, cg.normalize(graph), sample=False)
        feats2 = feats.copy()
        feats2[4] = 0.0
        state2 = enc.init_state(ids)
        state2.hidden.data = state.hidden.data.copy()
        state2.hidden.data[4] = 0.0
        _, changed = enc.step(feats2, state2, graph.ids, cg.normalize(graph), sample=False)
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
        _, base = enc.step(feats, state, graph.ids, cg.normalize(graph), sample=False)
        feats2 = feats.copy()
        feats2[2] = 123.0
        _, changed = enc.step(feats2, state, graph.ids, cg.normalize(graph), sample=False)
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
        state2, _ = enc.step(feats, state, graph.ids, cg.normalize(graph), sample=False)
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
                     cg.normalize(graph))

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        enc = tiny_encoder(rng)
        graph = cg.fully_connected(3)
        feats = rng.standard_normal((3, 6))
        _, dist = enc.step(feats, enc.init_state(graph.ids), graph.ids, cg.normalize(graph),
                           sample=False)
        enc.save(tmp_path / "enc")
        enc2 = NvifEncoder.load(tmp_path / "enc")
        _, dist2 = enc2.step(feats, enc2.init_state(graph.ids), graph.ids, cg.normalize(graph),
                             sample=False)
        np.testing.assert_array_equal(dist.mu.data, dist2.mu.data)


class TestDecoder:
    def test_output_strictly_in_unit_interval(self):
        rng = np.random.default_rng(11)
        enc = tiny_encoder(rng)
        out = dc.sigmoid(enc.decode(rng.standard_normal((5, 4)), rng.random((5, 2))))
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
        eps = rng.standard_normal((3, 4))
        state, dist = enc.step(feats, enc.init_state(graph.ids), graph.ids, cg.normalize(graph),
                               eps=eps)
        target = np.clip(rng.random((3, 20)), 0, 1)
        recon, kl = loss_variational(enc.decode, target, rng.random((3, 2)),
                                     dist.latent, dist.mu, dist.log_sigma)
        dc.backward(dc.add(recon, kl))
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
        assert float(loss_consistency(np.array([[1.0], [1.0], [1.0]])).data) == 0.0
        assert float(loss_consistency(np.array([[0.0], [2.0]])).data) == pytest.approx(1.0)
        assert float(loss_consistency(np.array([[3.5, -1.0]])).data) == 0.0

    def test_block_centering_matches_per_group(self):
        rng = np.random.default_rng(16)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        center = np.zeros((5, 5))
        center[:3, :3] = 1.0 / 3
        center[3:, 3:] = 1.0 / 2
        rows = consistency_rows(np.vstack([a, b]), center).data
        assert rows[:3].mean() == pytest.approx(float(loss_consistency(a).data))
        assert rows[3:].mean() == pytest.approx(float(loss_consistency(b).data))

    def test_kl_rows_one_per_agent(self):
        rng = np.random.default_rng(17)
        mu, ls = dc.Tensor(rng.standard_normal((5, 3))), dc.Tensor(rng.standard_normal((5, 3)))
        rows = kl_rows(mu, ls).data
        assert rows.shape == (5,)
        assert rows.mean() == pytest.approx(float(kl_standard_normal(mu, ls).data))

    def test_empty_batch_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(DataError):
            loss_variational(enc.decode, np.zeros((0, 20)), np.zeros((0, 2)),
                             dc.Tensor(np.zeros((0, 4))), dc.Tensor(np.zeros((0, 4))),
                             dc.Tensor(np.zeros((0, 4))))

    def test_total_composition(self):
        rng = np.random.default_rng(15)
        enc = tiny_encoder(rng)
        graph = cg.fully_connected(4)
        feats = rng.standard_normal((4, 6))
        _, dist = enc.step(feats, enc.init_state(graph.ids), graph.ids, cg.normalize(graph),
                           eps=rng.standard_normal((4, 4)))
        target = np.clip(rng.random((4, 20)), 0, 1)
        recon, kl = loss_variational(enc.decode, target, rng.random((4, 2)),
                                     dist.latent, dist.mu, dist.log_sigma)
        cons = loss_consistency(dist.latent)
        alpha = 0.1
        total = float(recon.data) + float(kl.data) + alpha * float(cons.data)
        assert float(recon.data) >= 0 and float(kl.data) >= 0 and float(cons.data) >= 0
        assert total == pytest.approx(
            float(dc.add(dc.add(recon, kl), dc.mul(cons, alpha)).data))


class TestObsCompressor:
    def test_untrained_rejected(self, tiny_task):
        comp = ObsCompressor(ObsVaeConfig(obs_dim=tiny_task.obs_dim, latent_width=8),
                             np.random.default_rng(0))
        with pytest.raises(StateError):
            comp.encode(np.zeros((1, tiny_task.obs_dim)))

    def test_identical_obs_identical_features(self, tiny_compressor, tiny_task):
        obs = np.random.default_rng(1).random((1, tiny_task.obs_dim)).astype(np.float32)
        f1 = tiny_compressor.encode(obs[0])[0]
        f2 = tiny_compressor.encode(obs[0])[0]
        np.testing.assert_array_equal(f1, f2)
        assert f1.shape == (8,)

    def test_beats_constant_half_predictor(self, tiny_compressor, tiny_task):
        from nviflab.harness.pipeline import collect_obs_corpus
        held_out = collect_obs_corpus(tiny_task, episodes=3,
                                      rng=np.random.default_rng(999), max_samples=800)
        bce = tiny_compressor.reconstruction_bce(held_out)
        assert bce < np.log(2.0)

    def test_save_load(self, tmp_path, tiny_compressor, tiny_task):
        tiny_compressor.save(tmp_path / "vae")
        loaded = ObsCompressor.load(tmp_path / "vae")
        x = np.random.default_rng(3).random((4, tiny_task.obs_dim)).astype(np.float32)
        np.testing.assert_array_equal(loaded.encode(x), tiny_compressor.encode(x))


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

    def test_frozen_loss_deterministic(self, small_buffer, tiny_task):
        enc = tiny_encoder(np.random.default_rng(5), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float32")
        r1 = pretrain_loss(small_buffer, enc, alpha=0.1, recon_weight=1.0, seed=3)
        r2 = pretrain_loss(small_buffer, enc, alpha=0.1, recon_weight=1.0, seed=3)
        assert (r1.recon, r1.kl, r1.consistency) == (r2.recon, r2.kl, r2.consistency)

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
        # followed by loss_variational and loss_consistency
        from nviflab.nvif.pretrain import _batch_loss
        enc = tiny_encoder(np.random.default_rng(7), obs_feat=8,
                           obs_dim=tiny_task.obs_dim, dtype="float64")
        sd = small_buffer[0].steps[0]
        total, recon, kl, cons, n_slots = _batch_loss(
            enc, [EpisodeRecord(steps=[sd])], alpha=0.1, recon_weight=2.0,
            rng=np.random.default_rng(0))
        eps = np.random.default_rng(0).standard_normal((len(sd.ids), 4))
        _, dist = enc.step(sd.feats, enc.init_state(sd.ids), sd.ids,
                           sd.adj_norm.astype(np.float64), eps=eps)
        r, k = loss_variational(enc.decode, sd.raw_obs, sd.positions,
                                dist.latent, dist.mu, dist.log_sigma)
        c = loss_consistency(dist.latent)
        assert n_slots == 1
        np.testing.assert_allclose([recon, kl, cons],
                                   [2.0 * float(r.data), float(k.data), float(c.data)],
                                   rtol=1e-10)
        assert float(total.data) == pytest.approx(
            2.0 * float(r.data) + float(k.data) + 0.1 * float(c.data))

    def test_zero_batch_rejected(self, small_buffer):
        with pytest.raises(ConfigError):
            pretrain(small_buffer, PretrainHyper(epochs=1, batch_episodes=0), tiny_encoder())

    def test_empty_buffer_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(DataError):
            pretrain([], PretrainHyper(epochs=1), enc)


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
        adj = cg.normalize(graph).astype(dtype)
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
        h = dc.gru_cell(x, dc.Tensor(rng.standard_normal((5, 4)).astype(dtype)), params)
        center = np.full((5, 5), 0.2, dtype=dtype)
        loss = dc.add(dc.sum(kl_rows(h, dc.mul(h, 0.5))), dc.sum(consistency_rows(h, center)))
        assert tape_dtypes(loss) == {np.dtype(dtype)}

