"""The benchmark's workloads and the layer table its traced run wraps.

Each workload drives the program only through its public entry points
(``policy.train_ppo``, ``policy.train_dqn``, ``harness.evaluate``,
``nvif.collect_pretrain_buffer`` and ``nvif.pretrain``) in a closed loop:
the trainer or evaluator steps the env itself. ``run(state, count, log)``
is a fresh, seed-determined run of ``count`` operations, so two calls with
the same count do identical work; that is what lets the traced run compare
a plain pass with a traced pass of the same operations.

Small probes sit at the trainer's own call sites to mark operation
boundaries and count alive agent-steps; output checks run with the clock
paused, outside every timed interval.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from tracing import OpLog, Patcher, Tracer, patch_everywhere

env_gather = importlib.import_module("nviflab.env_gather")
harness = importlib.import_module("nviflab.harness")
pipeline = importlib.import_module("nviflab.harness.pipeline")
nvif = importlib.import_module("nviflab.nvif")
policy = importlib.import_module("nviflab.policy")
ppo_mod = importlib.import_module("nviflab.policy.ppo")
dqn_mod = importlib.import_module("nviflab.policy.dqn")
eval_mod = importlib.import_module("nviflab.harness.evaluate")
diffcore = importlib.import_module("nviflab.diffcore")


def digest(obj) -> str:
    """Short stable hash of JSON rows or of a list of arrays."""
    h = hashlib.sha256()
    if isinstance(obj, list) and obj and isinstance(obj[0], np.ndarray):
        for arr in obj:
            h.update(str((arr.dtype, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    else:
        h.update(json.dumps(obj, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _all_finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


def _store_arrays(*stores) -> list:
    return [store[name].data for store in stores for name in store.names()]


def _op_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([run_seed, index]).generate_state(1)[0])


@dataclass
class Context:
    """Everything a workload derives from the ``--seed`` argument."""
    preset: str
    task: object              # TaskConfig
    setup_seed: int
    run_seed: int
    tiny: bool


def make_context(preset_name: str, seed: int, tiny: bool) -> Context:
    task_s, setup_s, run_s = np.random.SeedSequence(seed).spawn(3)
    return Context(preset=preset_name,
                   task=env_gather.preset(preset_name, seed=int(task_s.generate_state(1)[0])),
                   setup_seed=int(setup_s.generate_state(1)[0]),
                   run_seed=int(run_s.generate_state(1)[0]), tiny=tiny)


def train_compressor(ctx: Context):
    """Observation VAE on a short random-policy corpus (the test-suite recipe)."""
    rng = np.random.default_rng(ctx.setup_seed)
    corpus = pipeline.collect_obs_corpus(ctx.task, episodes=10, rng=rng,
                                         max_samples=500 if ctx.tiny else 4000)
    comp = nvif.ObsCompressor(
        nvif.ObsVaeConfig(obs_dim=ctx.task.obs_dim, latent_width=8, hidden_width=48), rng)
    comp.train(corpus, nvif.ObsVaeHyper(epochs=1 if ctx.tiny else 8, lr=2e-3,
                                         batch_size=256, seed=ctx.setup_seed))
    return comp


def _new_encoder(ctx: Context, comp, init_seed: int):
    cfg = nvif.NvifConfig(obs_feat_width=comp.config.latent_width, obs_dim=ctx.task.obs_dim)
    return nvif.NvifEncoder(cfg, np.random.default_rng(init_seed))


def _check_episode_row(log: OpLog, task, row: dict, op_index=None):
    """Checks on a per-episode metric row (return, length, food fraction)."""
    log.check(_all_finite(row["mean_return"]), "non-finite return", op_index)
    log.check(row["mean_end_steps"] <= task.max_steps,
              f"episode ran {row['mean_end_steps']} > {task.max_steps} steps", op_index)
    log.check(0.0 <= row["food_eaten_frac"] <= 1.0,
              f"food fraction {row['food_eaten_frac']} outside [0, 1]", op_index)


class Workload:
    name: str
    preset: str
    tiny_preset: str
    min_ops: int          # ops every measured run completes; quality and digest use these
    warm_ops: int
    trace_ops: int        # ops in each pass of the traced run

    def context(self, seed: int, tiny: bool) -> Context:
        return make_context(self.tiny_preset if tiny else self.preset, seed, tiny)

    def sizes(self, tiny: bool):
        return (1, 1, 1) if tiny else (self.min_ops, self.warm_ops, self.trace_ops)

    def build(self, ctx: Context, comp):
        """Workload-specific set-up after the compressor; returns the run state."""
        raise NotImplementedError

    def state_arrays(self, state) -> list:
        raise NotImplementedError

    def run(self, state, count: int, log: OpLog, deadline: float = math.inf) -> dict:
        """Run ``count`` ops into ``log``; returns quality outputs of the first
        ``min_ops`` ops (a digest plus the workload's learning signal).

        A workload whose ops are separate calls starts no op after the clock
        passes ``deadline`` once ``min_ops`` are done; the trainers run all
        their epochs or episodes in one call, so they always run ``count``."""
        raise NotImplementedError


@dataclass
class TrainState:
    ctx: Context
    comp: object
    encoder: object


def _count_agent_steps(patcher: Patcher, module, log: OpLog):
    """Probe on a trainer's ``step`` call site: alive agents acted per step."""
    original = module.step

    def probe(world, actions):
        log.ops[-1].agent_steps += len(actions)
        return original(world, actions)
    patcher.set(module, "step", probe)


class PpoDesk(Workload):
    """nvif-PPO with latents from a freshly initialized encoder."""
    name = "ppo-desk"
    preset, tiny_preset = "desk-random-16", "desk-random-12"
    min_ops, warm_ops, trace_ops = 20, 2, 30
    episodes_per_epoch = 4

    def build(self, ctx, comp):
        return TrainState(ctx, comp, _new_encoder(ctx, comp, ctx.setup_seed))

    def state_arrays(self, st):
        return _store_arrays(st.comp.store, st.encoder.store)

    def run(self, st, count, log, deadline=math.inf):
        task, clock = st.ctx.task, log.clock
        per_epoch = 1 if st.ctx.tiny else self.episodes_per_epoch
        episodes = 0
        original = ppo_mod.collect_episode

        def probe(*args, **kwargs):
            nonlocal episodes
            if episodes % per_epoch == 0:
                log.begin()
            episodes += 1
            out = original(*args, **kwargs)
            with clock.paused():
                (x, _, probs, adv, ret, _), stats = out
                log.check(_all_finite(x, adv, ret, stats.episode_return),
                          "non-finite rollout rows (inputs, latents, advantages or returns)")
                log.check(_all_finite(probs) and np.all((probs > 0) & (probs <= 1)),
                          "action probability outside (0, 1]")
                _check_episode_row(log, task, {
                    "mean_return": stats.episode_return, "mean_end_steps": stats.end_steps,
                    "food_eaten_frac": stats.food_eaten_frac})
            return out

        hyper = policy.PPOHyper(epochs=count, episodes_per_epoch=per_epoch, seed=st.ctx.run_seed)
        with Patcher() as patcher:
            patcher.set(ppo_mod, "collect_episode", probe)
            _count_agent_steps(patcher, ppo_mod, log)
            result = policy.train_ppo(task, st.comp, hyper, latent_mode="nvif",
                                      encoder=st.encoder)
            log.finish()
        for i, row in enumerate(result.metrics):
            log.check(_all_finite(row["actor_obj"], row["critic_loss"], row["entropy"]),
                      f"non-finite PPO losses in epoch {i}", i)
        prefix = result.metrics[:self.sizes(st.ctx.tiny)[0]]
        return {"digest": digest(prefix), "mean_return": prefix[-1]["mean_return"]}


@dataclass
class EvalState:
    ctx: Context
    bundle: object


class EvalLarge(Workload):
    name = "eval-large"
    preset, tiny_preset = "normal-large", "desk-normal-16"
    min_ops, warm_ops, trace_ops = 3, 1, 3

    def build(self, ctx, comp):
        rng = np.random.default_rng(ctx.setup_seed)
        encoder = _new_encoder(ctx, comp, ctx.setup_seed)
        ac = policy.ActorCritic(policy.PolicyConfig(
            input_width=comp.config.latent_width + encoder.config.latent_width), rng)
        bundle = harness.PolicyBundle("nvif-ppo", "nvif", ctx.preset, comp, encoder=encoder,
                                      actor_critic=ac)
        bundle.check_task(ctx.task)
        return EvalState(ctx, bundle)

    def state_arrays(self, st):
        b = st.bundle
        return _store_arrays(b.compressor.store, b.encoder.store, b.actor_critic.actor,
                             b.actor_critic.critic)

    def run(self, st, count, log, deadline=math.inf):
        rows = []
        with Patcher() as patcher:
            _count_agent_steps(patcher, eval_mod, log)
            for i in range(count):
                if i >= self.sizes(st.ctx.tiny)[0] and log.clock.now() >= deadline:
                    break
                log.begin()
                row = harness.evaluate(st.bundle, st.ctx.task, episodes=1,
                                       seed=_op_seed(st.ctx.run_seed, i))
                log.finish()
                with log.clock.paused():
                    _check_episode_row(log, st.ctx.task, row)
                    rows.append(row)
        prefix = rows[:self.sizes(st.ctx.tiny)[0]]
        return {"digest": digest(prefix),
                "mean_return": float(np.mean([r["mean_return"] for r in prefix]))}


@dataclass
class PretrainState:
    ctx: Context
    comp: object
    buffer: list
    batch: int

    def buffer_arrays(self) -> list:
        return [a for ep in self.buffer for sd in ep.steps
                for a in (sd.raw_obs, sd.feats, sd.positions, sd.adj_norm)]

    @property
    def buffer_bytes(self) -> int:
        return sum(a.nbytes for a in self.buffer_arrays())


class PretrainMedium(Workload):
    name = "pretrain-medium"
    preset, tiny_preset = "random-medium", "desk-random-12"
    min_ops, warm_ops, trace_ops = 4, 2, 4
    buffer_episodes, batch_episodes = 8, 4

    def build(self, ctx, comp):
        n, batch = (2, 1) if ctx.tiny else (self.buffer_episodes, self.batch_episodes)
        buffer = nvif.collect_pretrain_buffer(ctx.task, n, comp,
                                              np.random.default_rng(ctx.setup_seed))
        return PretrainState(ctx, comp, buffer, batch)

    def state_arrays(self, st):
        return _store_arrays(st.comp.store) + st.buffer_arrays()

    def run(self, st, count, log, deadline=math.inf):
        encoder = _new_encoder(st.ctx, st.comp, st.ctx.setup_seed)
        n_batches = len(st.buffer) // st.batch
        rows = []
        for i in range(count):
            if i >= self.sizes(st.ctx.tiny)[0] and log.clock.now() >= deadline:
                break
            episodes = st.buffer[(i % n_batches) * st.batch:(i % n_batches + 1) * st.batch]
            hyper = nvif.PretrainHyper(epochs=1, batch_episodes=st.batch,
                                       seed=_op_seed(st.ctx.run_seed, i))
            log.begin()
            _, history = nvif.pretrain(episodes, hyper, encoder)
            log.finish()
            with log.clock.paused():
                log.ops[-1].agent_steps = sum(len(sd.ids) for ep in episodes for sd in ep.steps)
                report = asdict(history[-1])
                log.check(_all_finite(*report.values()), f"non-finite pre-training loss {report}")
                log.check(_all_finite(*_store_arrays(encoder.store)),
                          "non-finite encoder weights after a pre-training batch")
                rows.append(report)
        prefix = rows[:self.sizes(st.ctx.tiny)[0]]
        last_pass = prefix[-min(len(prefix), n_batches):]
        return {"digest": digest(prefix),
                "pretrain_loss": float(np.mean([r["total"] for r in last_pass]))}


class DqnDesk(Workload):
    """DQN with latents from a freshly initialized encoder: one 64-row
    gradient step per env step once the replay ring holds ``min_replay``
    rows, so many tiny backward calls instead of PPO's few large ones."""
    name = "dqn-desk"
    preset, tiny_preset = "desk-random-16", "desk-random-12"
    min_ops, warm_ops, trace_ops = 20, 4, 20
    last_episodes = 5  # episodes averaged into mean_return

    def build(self, ctx, comp):
        return TrainState(ctx, comp, _new_encoder(ctx, comp, ctx.setup_seed))

    def state_arrays(self, st):
        return _store_arrays(st.comp.store, st.encoder.store)

    def run(self, st, count, log, deadline=math.inf):
        task = st.ctx.task
        original = dqn_mod.new_world

        def probe(cfg):
            log.begin()
            return original(cfg)

        hyper = policy.DQNHyper(episodes=count, seed=st.ctx.run_seed)
        if st.ctx.tiny:  # one tiny episode must still reach a gradient step
            hyper.min_replay = hyper.batch_size
        with Patcher() as patcher:
            patcher.set(dqn_mod, "new_world", probe)
            _count_agent_steps(patcher, dqn_mod, log)
            result = policy.train_dqn(task, st.comp, hyper, latent_mode="nvif",
                                      encoder=st.encoder)
            log.finish()
        for i, row in enumerate(result.metrics):
            _check_episode_row(log, task, row, i)
            log.check(_all_finite(row["critic_loss"]), f"non-finite DQN loss in episode {i}", i)
        prefix = result.metrics[:self.sizes(st.ctx.tiny)[0]]
        return {"digest": digest(prefix), "mean_return": float(
            np.mean([r["mean_return"] for r in prefix[-self.last_episodes:]]))}


WORKLOADS = {w.name: w for w in (PpoDesk(), EvalLarge(), PretrainMedium(), DqnDesk())}


# -- the traced run ------------------------------------------------------------

def _after_graph(tracer: Tracer, log: OpLog):
    def after(args, graph):
        adj = graph.adj
        n = len(graph.ids)
        log.check(adj.shape == (n, n) and np.array_equal(adj, adj.T)
                  and not np.any(np.diag(adj)),
                  "build_graph: adjacency not symmetric with a zero diagonal")
        tracer.count("graph_agents", n)
        tracer.count("graph_edges", int(adj.sum()) // 2)
    return after


def _after_step(tracer: Tracer, log: OpLog):
    def after(args, result):
        world = args[0]
        alive = [(i, u) for i, u in enumerate(world.units) if u.alive]
        occ = world.occupancy
        log.check(int(np.count_nonzero(occ != env_gather.EMPTY)) == len(alive)
                  and all(occ[u.y, u.x] == i for i, u in alive),
                  f"occupancy does not match the alive units at t={world.t}")
        log.check(world.t <= world.config.max_steps, "episode ran past max_steps")
    return after


def _after_encoder(tracer: Tracer, log: OpLog):
    def after(args, out):
        dist = out[1]
        log.check(_all_finite(dist.mu.data, dist.log_sigma.data, dist.latent.data),
                  "non-finite encoder latents")
    return after


def _after_compress(tracer: Tracer, log: OpLog):
    def after(args, feats):
        tracer.count("compress_rows", feats.shape[0])
        log.check(_all_finite(feats), "non-finite compressed observations")
    return after


def _after_act(tracer: Tracer, log: OpLog):
    def after(args, out):
        probs = out[1]
        log.check(_all_finite(probs) and np.all((probs > 0) & (probs <= 1)),
                  "action probability outside (0, 1]")
    return after


def _after_q_values(tracer: Tracer, log: OpLog):
    def after(args, q):
        log.check(_all_finite(q), "non-finite Q-values")
    return after


def _after_backward(tracer: Tracer, log: OpLog):
    def after(args, _):
        loss = args[0]
        log.check(_all_finite(loss.data), "non-finite loss at backward")
        tracer.count("tape_nodes", len(diffcore.topological_order(loss)))
    return after


# span name -> (target, after-hook factory taking (tracer, log), or None)
LAYERS = {
    "commgraph.build_graph": ("nviflab.commgraph:build_graph", _after_graph),
    "commgraph.normalize": ("nviflab.commgraph:normalize", None),
    "env_gather.observe": ("nviflab.env_gather.world:observe", None),
    "env_gather.step": ("nviflab.env_gather.world:step", _after_step),
    "env_gather.new_world": ("nviflab.env_gather.world:new_world", None),
    "nvif.compress": ("nviflab.nvif.obs_vae:ObsCompressor.encode", _after_compress),
    "nvif.encoder_step": ("nviflab.nvif.encoder:NvifEncoder.step", _after_encoder),
    "nvif.collect_buffer": ("nviflab.nvif.pretrain:collect_pretrain_buffer", None),
    "nvif.pretrain": ("nviflab.nvif.pretrain:pretrain", None),
    "diffcore.backward": ("nviflab.diffcore.tensor:backward", _after_backward),
    "diffcore.bce_loss": ("nviflab.diffcore.tensor:bce_loss", None),
    "diffcore.sparse_matmul": ("nviflab.diffcore.tensor:sparse_matmul", None),
    "diffcore.optimizer_step": ("nviflab.diffcore.optim:optimizer_step", None),
    "policy.train_ppo": ("nviflab.policy.ppo:train_ppo", None),
    "policy.collect_episode": ("nviflab.policy.ppo:collect_episode", None),
    "policy.act": ("nviflab.policy.actor_critic:ActorCritic.act", _after_act),
    "policy.train_dqn": ("nviflab.policy.dqn:train_dqn", None),
    "policy.q_values": ("nviflab.policy.dqn:QNetwork.q_values", _after_q_values),
    "policy.replay_push": ("nviflab.policy.dqn:ReplayRing.push", None),
    "harness.evaluate": ("nviflab.harness.evaluate:evaluate", None),
    "harness.bundle_act": ("nviflab.harness.evaluate:BundlePolicy.act", None),
}

# spans each workload must hit (calls > 0); the self-test enforces this
EXPECTED_LAYERS = {
    "ppo-desk": ["commgraph.build_graph", "commgraph.normalize", "env_gather.observe",
                 "env_gather.step", "env_gather.new_world", "nvif.compress",
                 "nvif.encoder_step", "diffcore.backward", "diffcore.sparse_matmul",
                 "diffcore.optimizer_step", "policy.train_ppo", "policy.collect_episode",
                 "policy.act"],
    "eval-large": ["commgraph.build_graph", "commgraph.normalize", "env_gather.observe",
                   "env_gather.step", "env_gather.new_world", "nvif.compress",
                   "nvif.encoder_step", "diffcore.sparse_matmul", "policy.act",
                   "harness.evaluate", "harness.bundle_act"],
    "pretrain-medium": ["commgraph.build_graph", "commgraph.normalize", "env_gather.observe",
                        "env_gather.step", "env_gather.new_world", "nvif.compress",
                        "nvif.collect_buffer", "nvif.pretrain", "diffcore.backward",
                        "diffcore.bce_loss", "diffcore.sparse_matmul",
                        "diffcore.optimizer_step"],
    "dqn-desk": ["commgraph.build_graph", "commgraph.normalize", "env_gather.observe",
                 "env_gather.step", "env_gather.new_world", "nvif.compress",
                 "nvif.encoder_step", "diffcore.backward", "diffcore.sparse_matmul",
                 "diffcore.optimizer_step", "policy.train_dqn", "policy.q_values",
                 "policy.replay_push"],
}


def install_tracer(patcher: Patcher, tracer: Tracer, log: OpLog):
    for name, (target, after) in LAYERS.items():
        patch_everywhere(patcher, target,
                         tracer.wrap(name, after(tracer, log) if after else None))


def layer_metrics(tracer: Tracer, buffer_bytes: int, plain_rate: float,
                  traced_rate: float) -> dict:
    """Per-layer metrics: ``.s`` is self time, ``.calls`` a call count."""
    s = lambda name: tracer.self_s.get(name, 0.0)  # noqa: E731
    calls = lambda name: tracer.calls.get(name, 0)  # noqa: E731
    counts = tracer.counts
    graphs = calls("commgraph.build_graph")
    backwards = calls("diffcore.backward")
    return {
        "commgraph.build_graph.s": (s("commgraph.build_graph"), "s"),
        "commgraph.build_graph.calls": (graphs, "count"),
        "commgraph.agents_per_graph": (counts.get("graph_agents", 0) / max(graphs, 1), "agents"),
        "commgraph.edges_per_agent": (counts.get("graph_edges", 0)
                                      / max(counts.get("graph_agents", 0), 1), "edges/agent"),
        "commgraph.normalize.s": (s("commgraph.normalize"), "s"),
        "env_gather.observe.s": (s("env_gather.observe"), "s"),
        "env_gather.observe.calls": (calls("env_gather.observe"), "count"),
        "env_gather.step.s": (s("env_gather.step"), "s"),
        "env_gather.step.calls": (calls("env_gather.step"), "count"),
        "env_gather.new_world.s": (s("env_gather.new_world"), "s"),
        "nvif.compress.s": (s("nvif.compress"), "s"),
        "nvif.compress.rows": (int(counts.get("compress_rows", 0)), "rows"),
        "nvif.encoder_step.s": (s("nvif.encoder_step"), "s"),
        "nvif.encoder_step.calls": (calls("nvif.encoder_step"), "count"),
        "nvif.collect_buffer.s": (s("nvif.collect_buffer"), "s"),
        "nvif.buffer_bytes": (buffer_bytes, "B"),
        "nvif.pretrain_forward.s": (s("nvif.pretrain"), "s"),
        "diffcore.backward.s": (s("diffcore.backward"), "s"),
        "diffcore.backward.calls": (backwards, "count"),
        "diffcore.tape_nodes": (counts.get("tape_nodes", 0) / max(backwards, 1), "nodes"),
        "diffcore.bce_loss.s": (s("diffcore.bce_loss"), "s"),
        "diffcore.sparse_matmul.s": (s("diffcore.sparse_matmul"), "s"),
        "diffcore.optimizer_step.s": (s("diffcore.optimizer_step"), "s"),
        "policy.collect_episode.s": (s("policy.collect_episode"), "s"),
        "policy.update.s": (tracer.incl.get("policy.train_ppo", 0.0)
                            - tracer.incl.get("policy.collect_episode", 0.0), "s"),
        "policy.act.s": (s("policy.act"), "s"),
        "policy.q_values.s": (s("policy.q_values"), "s"),
        "policy.replay_push.s": (s("policy.replay_push"), "s"),
        "harness.evaluate.s": (s("harness.evaluate"), "s"),
        "harness.bundle_act.s": (s("harness.bundle_act"), "s"),
        "trace.untraced_agent_steps_per_s": (plain_rate, "1/s"),
        "trace.traced_agent_steps_per_s": (traced_rate, "1/s"),
        "trace.overhead_agent_steps_per_s": (traced_rate - plain_rate, "1/s"),
    }

