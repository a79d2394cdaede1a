"""Advantage machinery, the clipped objective, trainers, alignment."""
import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nviflab import diffcore as dc
from nviflab.env_gather import N_ACTIONS, preset
from nviflab.errors import ConfigError, DataError, ProtocolError
from nviflab.policy import (
    ActorCritic,
    DQNHyper,
    EmptyLatents,
    MeanObsLatents,
    NvifLatents,
    PolicyConfig,
    PPOHyper,
    QNetwork,
    ReplayRing,
    clipped_term,
    collect_episode,
    compute_gae,
    critic_loss,
    epsilon_at,
    featurize,
    make_provider,
    ppo_actor_objective,
    q_target,
    train_dqn,
    train_ppo,
)
from nviflab.policy.dqn import _flush

from alignment import alignment_check
from conftest import (
    EpisodeSpy,
    TwoArrayRing,
    central_diff_grads,
    linux_only,
    per_agent_episode,
    ring_spy,
    run_capped,
    two_array_flush,
)


class TestGae:
    def test_single_step(self):
        adv = compute_gae([1.0], [0.0, 0.0], gamma=0.7, lam=0.3)
        np.testing.assert_allclose(adv, [1.0])

    def test_two_step_unrolled(self):
        adv = compute_gae([0.0, 1.0], [0.0, 0.0, 0.0], gamma=1.0, lam=1.0)
        np.testing.assert_allclose(adv, [1.0, 1.0])

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            horizon = int(rng.integers(1, 51))
            rewards = rng.standard_normal(horizon)
            values = rng.standard_normal(horizon + 1)
            gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.0, 1.0)
            fast = compute_gae(rewards, values, gamma, lam)
            deltas = rewards + gamma * values[1:] - values[:-1]
            slow = np.array([
                sum((gamma * lam) ** (k - t) * deltas[k] for k in range(t, horizon))
                for t in range(horizon)])
            np.testing.assert_allclose(fast, slow, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_gae([1.0, 2.0], [0.0, 0.0], 0.9, 0.9)

    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           pad=st.integers(0, 3), seed=st.integers(0, 2 ** 16),
           gamma=st.floats(0.5, 1.0), lam=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_padded_columns_match_prefix_calls(self, lengths, pad, seed, gamma, lam):
        # column i holds L_i steps and zeros after; only a column of T steps
        # bootstraps from a nonzero value, as a survivor of a time-limit cut
        rng = np.random.default_rng(seed)
        horizon = max(lengths) + pad
        rewards, values = np.zeros((horizon, len(lengths))), np.zeros((horizon + 1, len(lengths)))
        for i, n in enumerate(lengths):
            rewards[:n, i] = rng.standard_normal(n)
            values[:n + (n == horizon), i] = rng.standard_normal(n + (n == horizon))
        adv = compute_gae(rewards, values, gamma, lam)
        for i, n in enumerate(lengths):
            np.testing.assert_array_equal(
                adv[:n, i], compute_gae(rewards[:n, i], values[:n + 1, i], gamma, lam))
            assert not adv[n:, i].any()


def _reward_to_go(rewards, gamma):
    """Discounted reward-to-go: GAE with lam = 1 over zero values."""
    return compute_gae(rewards, np.zeros(len(rewards) + 1), gamma, 1.0)


class TestReturns:
    def test_gamma_zero(self):
        np.testing.assert_allclose(_reward_to_go([3.0, -1.0, 2.0], 0.0),
                                   [3.0, -1.0, 2.0])

    def test_geometric(self):
        np.testing.assert_allclose(_reward_to_go([1.0, 1.0, 1.0], 0.5),
                                   [1.75, 1.5, 1.0])

    def test_recurrence_exact(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(20)
        xi = _reward_to_go(r, 0.95)
        for t in range(19):
            assert xi[t] == r[t] + 0.95 * xi[t + 1]


class _AllSlots:
    """A stand-in rng whose draw is every filled slot in order, so that
    ``ReplayRing.sample`` reads the whole ring back."""

    def integers(self, low, high, size):
        return np.arange(low, high)


# (max_steps, spy arguments): a cut at the time limit, a death at the cut,
# and the food running out before the time limit
ENDINGS = {
    "cut": (2, dict(at_t=2)),
    "death": (2, dict(at_t=2, kill=(0,))),
    "food_out": (3, dict(at_t=2, eat_food=True)),
}


class TestTimeLimitBootstrap:
    gamma, lam = 0.9, 0.8

    @pytest.mark.parametrize("ending", list(ENDINGS))
    def test_ppo_bootstraps_only_survivors_of_a_cut(self, tiny_task, tiny_compressor,
                                                    monkeypatch, ending):
        max_steps, spy_args = ENDINGS[ending]
        task = replace(tiny_task, max_steps=max_steps)
        spy = EpisodeSpy(monkeypatch, importlib.import_module("nviflab.policy.ppo"),
                         **spy_args)
        ac = ActorCritic(PolicyConfig(input_width=8), np.random.default_rng(0))
        (x, _, _, adv, ret, t), _ = collect_episode(
            task, 5, tiny_compressor, EmptyLatents(), ac, np.random.default_rng(1),
            self.gamma, self.lam)
        world = spy.world
        assert world.t == 2
        ids = list(range(task.n_omnivores))
        np.testing.assert_array_equal(t, np.tile([0, 1], len(ids)))
        v = ac.values(x).reshape(len(ids), 2)
        survivors = world.alive_agents()
        assert survivors == (ids[1:] if ending == "death" else ids)
        v_final = dict(zip(survivors, ac.values(
            featurize(world, survivors, tiny_compressor, EmptyLatents()))))
        bootstrap = [v_final[i] if ending != "food_out" and i in survivors else 0.0
                     for i in ids]
        assert (bootstrap[-1] != 0.0) == (ending != "food_out")
        adv = adv.reshape(len(ids), 2)
        for k, i in enumerate(ids):
            r0, r1 = spy.rewards[0][i], spy.rewards[1][i]
            delta1 = r1 + self.gamma * bootstrap[k] - v[k, 1]
            delta0 = r0 + self.gamma * v[k, 1] - v[k, 0]
            assert adv[k, 1] == pytest.approx(delta1, abs=1e-6)
            assert adv[k, 0] == pytest.approx(delta0 + self.gamma * self.lam * delta1, abs=1e-6)
        # the critic target is advantage plus value
        np.testing.assert_allclose(ret, adv.ravel() + v.ravel(), atol=1e-6)

    @pytest.mark.parametrize("ending", list(ENDINGS))
    def test_dqn_done_flags_follow_the_same_rule(self, tiny_task, tiny_compressor,
                                                 monkeypatch, ending):
        max_steps, spy_args = ENDINGS[ending]
        dqn_mod = importlib.import_module("nviflab.policy.dqn")
        spy = EpisodeSpy(monkeypatch, dqn_mod, **spy_args)
        rings = ring_spy(monkeypatch, dqn_mod)
        train_dqn(replace(tiny_task, max_steps=max_steps), tiny_compressor,
                  DQNHyper(episodes=1, min_replay=10 ** 6, replay_capacity=64, seed=0),
                  latent_mode="none")
        *_, next_x, done = rings[0].sample(_AllSlots(), None)
        pushed = list(zip(next_x, done))
        world = spy.world
        ids = list(range(tiny_task.n_omnivores))
        assert world.t == 2 and len(pushed) == 2 * len(ids)
        # the first step's transitions lead to the next step's rows
        assert all(done == 0.0 and np.any(x2 != 0.0) for x2, done in pushed[:len(ids)])
        survivors = world.alive_agents()
        assert survivors == (ids[1:] if ending == "death" else ids)
        final = dict(zip(survivors, featurize(world, survivors, tiny_compressor,
                                              EmptyLatents())))
        for i, (x2, done) in zip(ids, pushed[len(ids):]):
            if ending != "food_out" and i in survivors:
                assert done == 0.0
                np.testing.assert_array_equal(x2, final[i])
            else:
                assert done == 1.0 and not np.any(x2)


class TestWipeout:
    """Every agent dead with food left ends the episode at that step."""

    def test_ppo_episode_ends_at_wipeout(self, tiny_task, tiny_compressor, monkeypatch):
        n = tiny_task.n_omnivores
        spy = EpisodeSpy(monkeypatch, importlib.import_module("nviflab.policy.ppo"),
                         at_t=2, kill=range(n))
        ac = ActorCritic(PolicyConfig(input_width=8), np.random.default_rng(0))
        (_, _, _, _, _, t), stats = collect_episode(
            tiny_task, 5, tiny_compressor, EmptyLatents(), ac, np.random.default_rng(1),
            0.9, 0.8)
        assert spy.world.t == stats.end_steps == 2 and spy.world.food_remaining() > 0
        np.testing.assert_array_equal(t, np.tile([0, 1], n))

    def test_dqn_episode_ends_at_wipeout(self, tiny_task, tiny_compressor, monkeypatch):
        n = tiny_task.n_omnivores
        dqn_mod = importlib.import_module("nviflab.policy.dqn")
        spy = EpisodeSpy(monkeypatch, dqn_mod, at_t=2, kill=range(n))
        rings = ring_spy(monkeypatch, dqn_mod)
        result = train_dqn(tiny_task, tiny_compressor,
                           DQNHyper(episodes=1, min_replay=10 ** 6, replay_capacity=64, seed=0),
                           latent_mode="none")
        done_flags = rings[0].sample(_AllSlots(), None)[-1].tolist()
        assert spy.world.t == result.metrics[0]["mean_end_steps"] == 2
        assert done_flags == [0.0] * n + [1.0] * n


ROLLOUT_ENDINGS = ("none", "subset", "food_out", "wipeout")


class TestArrayRollout:
    def test_matches_per_agent_oracle(self, tiny_task, tiny_compressor):
        """The (T, n) record gives the per-agent oracle's rows and stats, bit
        for bit, on random desk tasks, latent modes and episode endings."""
        from nviflab.nvif import NvifConfig, NvifEncoder
        ppo_mod = importlib.import_module("nviflab.policy.ppo")
        encoder = NvifEncoder(NvifConfig(obs_feat_width=8, obs_dim=tiny_task.obs_dim,
                                         hidden_width=8, latent_width=4, flow_layers=1,
                                         decoder_hidden=8), np.random.default_rng(0))
        seen = set()

        @given(map_size=st.integers(8, 12), n_agents=st.integers(2, 6),
               max_steps=st.integers(1, 12), mode=st.sampled_from(["none", "mean", "nvif"]),
               ending=st.sampled_from(ROLLOUT_ENDINGS), at=st.integers(1, 12),
               seed=st.integers(0, 2 ** 16))
        @settings(max_examples=40, deadline=None)
        def rollout(map_size, n_agents, max_steps, mode, ending, at, seed):
            task = replace(tiny_task, map_size=map_size, n_omnivores=n_agents,
                           max_steps=max_steps)
            rng = np.random.default_rng(seed)
            kill = {"subset": rng.choice(n_agents, int(rng.integers(1, n_agents)),
                                         replace=False).tolist(),
                    "wipeout": list(range(n_agents))}.get(ending, [])
            # at_t = 0 never fires: the spy looks after each step, from t = 1
            at_t = 0 if ending == "none" else min(at, max_steps)
            outs = []
            for collect in (collect_episode, per_agent_episode):
                provider = make_provider(mode, 8, encoder=encoder,
                                         rng=np.random.default_rng(seed))
                ac = ActorCritic(PolicyConfig(input_width=8 + provider.width),
                                 np.random.default_rng(seed))
                with pytest.MonkeyPatch.context() as mp:
                    spy = EpisodeSpy(mp, ppo_mod, at_t=at_t, kill=kill,
                                     eat_food=ending == "food_out")
                    outs.append(collect(task, seed, tiny_compressor, provider, ac,
                                        np.random.default_rng(seed + 1), 0.9, 0.8))
            (rows, stats), (want_rows, want_stats) = outs
            for got, want in zip(rows, want_rows):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert stats == want_stats
            if spy.world.t >= at_t:
                seen.add(ending)

        for ending in ROLLOUT_ENDINGS:  # each ending at least once, at a mid-episode t
            rollout = example(map_size=10, n_agents=4, max_steps=6, mode="nvif",
                              ending=ending, at=3, seed=0)(rollout)
        rollout()
        assert seen == set(ROLLOUT_ENDINGS)


class TestClipObjective:
    def test_clip_binds_positive_advantage(self):
        assert float(clipped_term(1.3, 1.0, 0.2).data) == pytest.approx(1.2)

    def test_min_picks_unclipped_negative_advantage(self):
        assert float(clipped_term(1.3, -1.0, 0.2).data) == pytest.approx(-1.3)

    def test_pointwise_bounds_and_identity_region(self):
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.5, 1.5, 1000)
        adv = rng.standard_normal(1000)
        term = clipped_term(rho, adv, 0.2).data
        assert np.all(term <= rho * adv + 1e-12)
        assert np.all(term <= np.clip(rho, 0.8, 1.2) * adv + 1e-12)
        inside = np.abs(rho - 1.0) <= 0.2
        np.testing.assert_allclose(term[inside], (rho * adv)[inside])

    def test_gradient_matches_policy_gradient_at_old_params(self):
        # at theta = theta_old the surrogate's gradient equals grad of sum A*log pi
        rng = np.random.default_rng(8)
        ac = ActorCritic(PolicyConfig(input_width=5, hidden_width=6, n_actions=4,
                                      dtype="float64"), rng)
        x = rng.standard_normal((6, 5))
        actions = rng.integers(0, 4, 6)
        with dc.no_grad():
            logp_all = dc.log_softmax(ac.logits(dc.Tensor(x))).data
        logp_old = logp_all[np.arange(6), actions]
        adv = rng.standard_normal(6)

        objective, _ = ppo_actor_objective(ac, x, actions, logp_old, adv,
                                           n_slots=3, clip_eps=0.2)
        ac.actor.zero_grad()
        dc.backward(objective)
        analytic = {n: ac.actor[n].grad.copy() for n in ac.actor.names()}

        def pg_value():
            lp = dc.log_softmax(ac.logits(dc.Tensor(x)))
            lp_a = dc.take_per_row(lp, actions)
            return float(dc.mul(dc.sum(dc.mul(lp_a, adv)), 1.0 / 3).data)

        for name in ac.actor.names():
            numeric = central_diff_grads(pg_value, [ac.actor[name].data], h=1e-6)[0]
            np.testing.assert_allclose(analytic[name], numeric, atol=1e-4)

    def test_zero_behavior_probability_rejected(self):
        ac = ActorCritic(PolicyConfig(input_width=3, n_actions=4), np.random.default_rng(0))
        with np.errstate(divide="ignore"):
            bad_logp = np.log([0.0])
        with pytest.raises(DataError):
            ppo_actor_objective(ac, np.zeros((1, 3), dtype=np.float32), [0],
                                bad_logp, [1.0], 1, 0.2)


class TestCriticLoss:
    def test_zero_when_exact(self):
        rng = np.random.default_rng(5)
        ac = ActorCritic(PolicyConfig(input_width=4, dtype="float64"), rng)
        x = rng.standard_normal((3, 4))
        v = ac.values(x)
        assert float(critic_loss(ac, x, v).data) == pytest.approx(0.0, abs=1e-12)

    def test_constant_zero_prediction(self):
        rng = np.random.default_rng(6)
        ac = ActorCritic(PolicyConfig(input_width=4, dtype="float64"), rng)
        for name in ac.critic.names():
            ac.critic[name].data[...] = 0
        loss = critic_loss(ac, rng.standard_normal((2, 4)), np.array([1.0, 2.0]))
        assert float(loss.data) == pytest.approx(2.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        ac = ActorCritic(PolicyConfig(input_width=4, hidden_width=5, dtype="float64"), rng)
        x = rng.standard_normal((6, 4))
        ret = rng.standard_normal(6)
        loss = critic_loss(ac, x, ret)
        ac.critic.zero_grad()
        dc.backward(loss)
        for name in ac.critic.names():
            numeric = central_diff_grads(
                lambda: float(critic_loss(ac, x, ret).data), [ac.critic[name].data])[0]
            scale = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(ac.critic[name].grad - numeric) / scale) < 1e-4


class TestAct:
    def test_uniform_logits(self):
        ac = ActorCritic(PolicyConfig(input_width=3, dtype="float64"),
                         np.random.default_rng(0))
        for name in ("w2", "b2"):
            ac.actor[name].data[...] = 0
        with dc.no_grad():
            lp = ac.log_probs(dc.Tensor(np.zeros((1, 3)))).data
        np.testing.assert_allclose(np.exp(lp), 1.0 / N_ACTIONS)

    def test_dominant_logit(self):
        ac = ActorCritic(PolicyConfig(input_width=2, n_actions=5, dtype="float64"),
                         np.random.default_rng(0))
        ac.actor["w1"].data[...] = 0
        ac.actor["w2"].data[...] = 0
        ac.actor["b2"].data[...] = np.array([0.0, 20.0, 0.0, 0.0, 0.0])
        actions, probs = ac.act(np.zeros((200, 2)), np.random.default_rng(1))
        assert np.all(actions == 1)
        assert np.all(probs > 0.999)

    def test_sampling_frequencies(self):
        ac = ActorCritic(PolicyConfig(input_width=2, n_actions=4, dtype="float64"),
                         np.random.default_rng(2))
        ac.actor["w1"].data[...] = 0
        ac.actor["w2"].data[...] = 0
        ac.actor["b2"].data[...] = np.array([1.0, 0.0, -1.0, 0.5])
        probs = np.exp(ac.actor["b2"].data)
        probs /= probs.sum()
        n = 10 ** 5
        actions, _ = ac.act(np.zeros((n, 2)), np.random.default_rng(3))
        freq = np.bincount(actions, minlength=4) / n
        stderr = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) < 3 * stderr + 1e-4)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        ac = ActorCritic(PolicyConfig(input_width=6), rng)
        with dc.no_grad():
            lp = ac.log_probs(dc.Tensor(rng.standard_normal((10, 6)).astype(np.float32))).data
        np.testing.assert_allclose(np.exp(lp.astype(np.float64)).sum(axis=1), 1.0,
                                   atol=1e-6)


class TestProviders:
    def test_empty_latents(self):
        p = EmptyLatents()
        out = p.step(np.ones((3, 4), dtype=np.float32), None, [0, 1, 2])
        assert out.shape == (3, 0)

    def test_mean_obs_identical_inputs(self):
        p = MeanObsLatents(4)
        feats = np.tile(np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32), (3, 1))
        out = p.step(feats, None, [0, 1, 2])
        np.testing.assert_array_equal(out, feats)

    def test_single_agent_modes_coincide_structurally(self, tiny_task, tiny_compressor):
        import nviflab.commgraph as cg
        from nviflab.nvif import NvifConfig, NvifEncoder
        rng = np.random.default_rng(0)
        enc = NvifEncoder(NvifConfig(obs_feat_width=8, obs_dim=tiny_task.obs_dim,
                                     hidden_width=8, latent_width=4, flow_layers=1,
                                     decoder_hidden=8), rng)
        near = NvifLatents(enc, np.random.default_rng(5))
        full = NvifLatents(enc, np.random.default_rng(5), full_graph=True)
        feats = rng.standard_normal((1, 8)).astype(np.float32)
        a = near.step(feats, np.array([[2, 2]]), [0])
        b = full.step(feats, np.array([[2, 2]]), [0])
        np.testing.assert_array_equal(a, b)
        assert cg.fully_connected(1).edges() == cg.build_graph([(2, 2)], [0]).edges()

    def test_featurize_concats_compressed_obs_and_latents(self, tiny_task, tiny_compressor):
        from nviflab.env_gather import new_world, observe
        world = new_world(tiny_task)
        ids = world.alive_agents()
        x = featurize(world, ids, tiny_compressor, MeanObsLatents(8))
        cells = world.agent_positions(ids)
        feats = tiny_compressor.encode(observe(world, ids), cells, tiny_task)
        assert x.shape == (len(ids), 16) and x.dtype == feats.dtype
        np.testing.assert_array_equal(x[:, :8], feats)
        np.testing.assert_array_equal(x[:, 8:], np.tile(feats.mean(axis=0), (len(ids), 1)))
        assert featurize(world, ids, tiny_compressor, EmptyLatents()).shape == (len(ids), 8)

    def test_featurize_reads_the_cells_once(self, tiny_task, tiny_compressor, monkeypatch):
        # the compressor's fold and the provider's graph see one cells array
        from nviflab.env_gather import new_world
        world = new_world(tiny_task)
        ids = world.alive_agents()
        seen = []
        encode, step = tiny_compressor.encode, EmptyLatents.step
        monkeypatch.setattr(tiny_compressor, "encode",
                            lambda codes, cells, task: seen.append(cells) or encode(codes, cells,
                                                                                   task))
        monkeypatch.setattr(EmptyLatents, "step",
                            lambda self, feats, cells, ids: seen.append(cells) or step(
                                self, feats, cells, ids))
        featurize(world, ids, tiny_compressor, EmptyLatents())
        assert len(seen) == 2 and seen[0] is seen[1]
        assert np.array_equal(seen[0], world.agent_positions(ids))

    def test_mode_validation(self):
        with pytest.raises(ConfigError, match="needs a pre-trained encoder"):
            make_provider("nvif", 8)
        with pytest.raises(ConfigError, match="unknown latent mode"):
            make_provider("bogus", 8)


class TestAlignment:
    def test_equal_weights_square(self):
        report = alignment_check([2.0, -0.5, 1.0], [3.0, 3.0, 3.0], [1.0, 1.0, 1.0])
        total = 2.0 - 0.5 + 1.0
        assert report.dot_approx == pytest.approx(3.0 * total * total)
        assert report.sign_ok

    def test_boundary_case(self):
        report = alignment_check([1.0, -1.0], [3.0, 1.0], [1.0, 1.0])
        assert report.dot_approx == 0.0 and report.sign_ok

    def test_unequal_weights_can_fail(self):
        rng = np.random.default_rng(9)
        found = None
        for _ in range(500):
            adv = rng.standard_normal(4)
            w = rng.uniform(0.1, 5.0, 4)
            report = alignment_check(adv, w, np.ones(4))
            if report.dot_approx < 0:
                found = (adv, w, report.dot_approx)
                break
        assert found is not None

    def test_team_quantities(self):
        report = alignment_check([1.0, 2.0], [2.0, 3.0], [0.9, 1.1], values=[10.0, 20.0])
        assert report.team_advantage == pytest.approx(8.0)
        assert report.team_value == pytest.approx(80.0)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            alignment_check([1.0], [0.0], [1.0])


class TestDqnPieces:
    def test_q_target_terminal_and_not(self):
        y = q_target([1.0, 2.0], [5.0, 5.0], [0.0, 1.0], gamma=0.5)
        np.testing.assert_allclose(y, [3.5, 2.0])

    def test_epsilon_endpoint_exact(self):
        hyper = DQNHyper(eps_start=1.0, eps_end=0.05, eps_decay_steps=1000)
        assert epsilon_at(hyper, 0) == 1.0
        assert epsilon_at(hyper, 1000) == 0.05
        assert epsilon_at(hyper, 5000) == 0.05
        assert epsilon_at(hyper, 500) == pytest.approx(0.525)

    @given(n_agents=st.integers(1, 6), max_steps=st.integers(1, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ring_samples_equal_the_two_array_oracle(self, n_agents, max_steps, data):
        # both rings driven by the same steps, each step's rows flushed as in
        # train_dqn: deaths, food-out, wipeout and cuts at max_steps, with
        # capacities from 1 to 3n; after every flush, seeded draws and the
        # whole ring read back must agree
        width = 3
        capacity = data.draw(st.integers(1, 3 * n_agents), label="capacity")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed"))
        ring = ReplayRing(capacity, width, n_agents, max_steps)
        oracle = TwoArrayRing(capacity, width)

        def check():
            seed = int(rng.integers(2 ** 32))
            for got, want in [
                    (ring.sample(np.random.default_rng(seed), 7),
                     oracle.sample(np.random.default_rng(seed), 7)),
                    (ring.sample(_AllSlots(), None), oracle.sample(_AllSlots(), None))]:
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

        for _ in range(data.draw(st.integers(1, 6), label="episodes")):
            alive, t, pending = list(range(n_agents)), 0, None
            while True:
                x = (rng.standard_normal((len(alive), width)) + 5.0).astype(np.float32)
                if pending is not None:
                    _flush(ring, pending, alive, x)
                    two_array_flush(oracle, pending, dict(zip(alive, x)))
                    check()
                event = data.draw(st.sampled_from(["none", "death", "food_out", "wipeout"]))
                dead = alive if event == "wipeout" else []
                if event == "death":
                    dead = data.draw(st.sets(st.sampled_from(alive)))
                t += 1
                pending = (np.array(alive), x, rng.integers(0, N_ACTIONS, len(alive)),
                           rng.standard_normal(len(alive)),
                           np.array([i not in dead for i in alive], dtype=bool),
                           event == "food_out")
                alive = [i for i in alive if i not in dead]
                if event == "food_out" or not alive or t >= max_steps:
                    break
            survivors = alive if event != "food_out" else []
            final = (rng.standard_normal((len(survivors), width)) - 5.0).astype(np.float32)
            _flush(ring, pending, survivors, final, final=True)
            two_array_flush(oracle, pending, dict(zip(survivors, final)))
            check()

    def test_a_step_of_more_rows_than_slots_keeps_its_last(self):
        # three rows into two slots: the first agent's row is overwritten by
        # the third, a death, which must keep its zero next row when the
        # next step (one row) re-points the first agent's transition
        ring, oracle = ReplayRing(2, 2, n_agents=3, max_steps=4), TwoArrayRing(2, 2)
        x0, x1 = np.arange(1, 7, dtype=np.float32).reshape(3, 2), np.full((1, 2), 9, np.float32)
        steps = [((np.arange(3), x0, np.arange(3), np.ones(3), np.array([True, False, False]),
                   False), [0], x1, False),
                 ((np.array([0]), x1, np.zeros(1, dtype=np.int64), np.ones(1), np.array([False]),
                   False), [], x1[:0], True)]
        for pending, next_ids, next_x, final in steps:
            _flush(ring, pending, next_ids, next_x, final=final)
            two_array_flush(oracle, pending, dict(zip(next_ids, next_x)))
            for got, want in zip(ring.sample(_AllSlots(), None), oracle.sample(_AllSlots(), None)):
                np.testing.assert_array_equal(got, want)

    def test_flush_rejects_a_live_agent_with_no_next_row(self):
        ring = ReplayRing(8, 2, n_agents=2, max_steps=4)
        x = np.ones((2, 2), dtype=np.float32)
        pending = (np.array([0, 1]), x, np.zeros(2, dtype=np.int64), np.zeros(2),
                   np.array([True, True]), False)
        with pytest.raises(ProtocolError, match=r"\[1\]"):
            _flush(ring, pending, [0], x[:1])
        assert ring.size == 0

    def test_parameters_view_their_store_buffers(self, tmp_path):
        # the optimizer steps each dtype's buffer in place, so every parameter
        # must stay a view of its own store's buffer: after construction,
        # after a checkpoint load and after the target sync
        def views_own_buffer(store):
            for name in store.names():
                data = store[name].data
                assert np.shares_memory(data, store.buffers[data.dtype].data), name

        def shares_none(a, b):
            return not any(np.shares_memory(a[m].data, b[n].data)
                           for m in a.names() for n in b.names())

        rng = np.random.default_rng(3)
        qnet = QNetwork(6, 5, rng)
        target = QNetwork(6, 5, rng)
        views_own_buffer(qnet.store)
        for name in qnet.store.names():
            qnet.store[name].grad = rng.standard_normal(qnet.store[name].data.shape).astype(
                np.float32)
        dc.optimizer_step(qnet.store, lr=1e-2)
        target.copy_from(qnet)
        views_own_buffer(target.store)
        assert shares_none(qnet.store, target.store)
        for name in qnet.store.names():
            np.testing.assert_array_equal(target.store[name].data, qnet.store[name].data)
        dc.optimizer_step(qnet.store, lr=1e-2)  # stepping the online net leaves the target
        assert not np.array_equal(target.store["w1"].data, qnet.store["w1"].data)

        dc.save_checkpoint(tmp_path / "q", *qnet.checkpoint_parts())
        loaded = QNetwork.from_checkpoint(*dc.load_checkpoint(tmp_path / "q"))
        views_own_buffer(loaded.store)
        assert shares_none(loaded.store, qnet.store)
        for name in qnet.store.names():
            np.testing.assert_array_equal(loaded.store[name].data, qnet.store[name].data)
        with pytest.raises(ValueError):  # another layout
            target.copy_from(QNetwork(6, 4, rng))


# A default-capacity DQN replay ring filled on desk-random-16 under an
# address-space cap, in its own process: 320 episodes of zero 40-wide rows
# (dqn-desk's width: 8 compressed features and 32 latents), with no gradient
# step. VmPeak with one BLAS thread (CPython 3.11, numpy 2.4, OpenBLAS) is
# 125 MiB with each row stored once and 142 MiB with the two-array ring,
# which also kept a copy of every next state; the cap sits between them.
DQN_RING_GATE_MIB = 133
_DQN_RING_SCRIPT = """
import resource, sys
limit = int(sys.argv[1]) * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from types import SimpleNamespace
import numpy as np
from nviflab.env_gather import preset
from nviflab.policy import DQNHyper, dqn, train_dqn

class ZeroCompressor:
    config = SimpleNamespace(latent_width=40)

    def check_obs_width(self, task_cfg):
        pass

    def encode(self, codes, *rest):
        return np.zeros((len(codes), 40), dtype=np.float32)

rings, ring_cls = [], dqn.ReplayRing

def keep_ring(*args):
    rings.append(ring_cls(*args))
    return rings[-1]

dqn.ReplayRing = keep_ring
hyper = DQNHyper(episodes=320, min_replay=DQNHyper.replay_capacity + 1, seed=0)
train_dqn(preset("desk-random-16", seed=0), ZeroCompressor(), hyper, latent_mode="none")
assert rings[0].size == rings[0].capacity == DQNHyper.replay_capacity, rings[0].size
"""


@linux_only
def test_filled_dqn_ring_within_address_space_gate():
    run_capped(_DQN_RING_SCRIPT, DQN_RING_GATE_MIB)


class TestTrainers:
    def test_ippo_shares_update_path(self, tiny_task, tiny_compressor):
        # the only difference across algorithms is the provider: same trainer,
        # same update code; latent width zero for the independent learner
        res = train_ppo(tiny_task, tiny_compressor,
                        PPOHyper(epochs=1, episodes_per_epoch=2, seed=0),
                        latent_mode="none")
        assert res.actor_critic.config.input_width == 8
        assert len(res.metrics) == 1

    def test_ms_mode_width(self, tiny_task, tiny_compressor):
        res = train_ppo(tiny_task, tiny_compressor,
                        PPOHyper(epochs=1, episodes_per_epoch=2, seed=0),
                        latent_mode="mean")
        assert res.actor_critic.config.input_width == 16

    def test_rerun_determinism(self, tiny_task, tiny_compressor):
        def run():
            res = train_ppo(tiny_task, tiny_compressor,
                            PPOHyper(epochs=2, episodes_per_epoch=2, seed=3),
                            latent_mode="none")
            return res.metrics

        assert run() == run()

    def test_dqn_smoke_and_determinism(self, tiny_task, tiny_compressor):
        hyper = DQNHyper(episodes=3, min_replay=50, eps_decay_steps=200,
                         replay_capacity=2000, seed=1)
        r1 = train_dqn(tiny_task, tiny_compressor, hyper, latent_mode="none")
        r2 = train_dqn(tiny_task, tiny_compressor, hyper, latent_mode="none")
        assert r1.metrics == r2.metrics
        assert len(r1.metrics) == 3

    @pytest.mark.parametrize("train, hyper", [
        (train_ppo, PPOHyper(update_passes=0)),
        (train_ppo, PPOHyper(minibatch_slots=0)),
        (train_dqn, DQNHyper(target_sync=0)),
        (train_dqn, DQNHyper(eps_decay_steps=0)),
        (train_ppo, PPOHyper(hidden_width=0)),
        (train_dqn, DQNHyper(hidden_width=0)),
    ])
    def test_zero_count_rejected_at_entry(self, tiny_task, tiny_compressor, train, hyper):
        with pytest.raises(ConfigError):
            train(tiny_task, tiny_compressor, hyper, latent_mode="none")

    @pytest.mark.parametrize("module_name, train, hyper", [
        ("nviflab.policy.ppo", train_ppo, PPOHyper(epochs=1, episodes_per_epoch=1)),
        ("nviflab.policy.dqn", train_dqn, DQNHyper(episodes=1)),
    ])
    def test_encoder_width_mismatch_rejected_before_env(self, tiny_task, tiny_compressor,
                                                        monkeypatch, module_name, train, hyper):
        from nviflab.nvif import NvifConfig, NvifEncoder
        module = importlib.import_module(module_name)

        def no_env(*args):
            raise AssertionError("the environment was used")

        monkeypatch.setattr(module, "new_world", no_env)
        monkeypatch.setattr(module, "step", no_env)
        wide = tiny_compressor.config.latent_width * 2
        enc = NvifEncoder(NvifConfig(obs_feat_width=wide, obs_dim=tiny_task.obs_dim,
                                     hidden_width=8, latent_width=4, flow_layers=1,
                                     decoder_hidden=8), np.random.default_rng(0))
        with pytest.raises(ConfigError, match=f"feature width {wide}"):
            train(tiny_task, tiny_compressor, hyper, latent_mode="nvif", encoder=enc)


class TestModelDtype:
    @given(dtype=st.sampled_from(["float32", "float64"]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=6, deadline=None)
    def test_actor_and_critic_tapes_are_model_dtype(self, dtype, seed):
        rng = np.random.default_rng(seed)
        ac = ActorCritic(PolicyConfig(input_width=5, hidden_width=6, dtype=dtype), rng)
        x = rng.standard_normal((7, 5)).astype(dtype)
        actions, probs = ac.act(x, rng)
        # float64 behaviour log-probabilities and advantages, as the trainer holds them
        objective, entropy = ppo_actor_objective(
            ac, x, actions, np.log(probs), rng.standard_normal(7), n_slots=3, clip_eps=0.2)
        actor_loss = dc.mul(objective + dc.mul(entropy, 0.01), -1.0)
        closs = critic_loss(ac, x, rng.standard_normal(7))
        for loss in (actor_loss, closs):
            assert {n.data.dtype for n in dc.topological_order(loss)} == {np.dtype(dtype)}

