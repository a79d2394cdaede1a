"""Experiment configs, CLI exit codes, evaluation, scalability, resumability."""
import csv
import importlib
import json
import os
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nviflab.commgraph import build_graph, normalize
from nviflab.env_gather import (
    N_ACTIONS,
    NOOP_INDEX,
    TaskConfig,
    decode_windows,
    new_world,
    observe,
    preset,
    step,
)
from nviflab.errors import ConfigError, DataError
from nviflab.harness import (
    PolicyBundle,
    collect_obs_corpus,
    evaluate,
    load_experiment,
    normalize_matrix,
    scalability_matrix,
)
from nviflab.harness.cli import main as cli_main
from nviflab.diffcore import (
    Tensor,
    backward,
    bce_loss,
    gaussian_sample,
    load_checkpoint,
    mul,
    optimizer_step,
    save_checkpoint,
)
from nviflab.nvif import (
    NvifConfig,
    NvifEncoder,
    ObsCompressor,
    ObsVaeConfig,
    ObsVaeHyper,
    PretrainHyper,
    kl_standard_normal,
)
from nviflab.policy import (
    ActorCritic,
    DQNHyper,
    EmptyLatents,
    PolicyConfig,
    PPOHyper,
    QNetwork,
    train_ppo,
)

from conftest import (
    EpisodeSpy,
    episode_metrics,
    float_observe,
    linux_only,
    read_replay,
    ring_spy,
    run_capped,
)


def write_config(path, **overrides):
    cfg = {
        "task": "desk-random-12",
        "out_dir": str(path.parent / "out"),
        "seeds": [0],
        "algorithm": "ippo",
        "obs_vae": {"latent_width": 8, "hidden_width": 32, "epochs": 2,
                    "corpus_episodes": 3, "corpus_max_samples": 600},
        "ppo": {"epochs": 1, "episodes_per_epoch": 2},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


# Each section's accepted keys with their defaults: a change to the config
# reader may neither add nor drop a knob, nor move a default.
SECTION_DEFAULTS = {
    "obs_vae": {"latent_width": 16, "hidden_width": 64, "epochs": 30, "lr": 1e-3,
                "batch_size": 256, "corpus_episodes": 60, "corpus_max_samples": 30_000,
                "seed": 0},
    "nvif": {"hidden_width": 64, "latent_width": 32, "flow_layers": 2, "decoder_hidden": 128,
             "alpha": 0.1, "epochs": 200, "lr": 3e-3, "batch_episodes": 16,
             "buffer_episodes": 200, "recon_weight": 1.0, "seed": 0},
    "ppo": {"gamma": 0.99, "lam": 0.95, "clip_eps": 0.2, "epochs": 100,
            "episodes_per_epoch": 16, "update_passes": 4, "minibatch_slots": 64,
            "entropy_coef": 0.01, "lr": 3e-4, "hidden_width": 64},
    "dqn": {"gamma": 0.99, "lr": 1e-3, "batch_size": 64, "replay_capacity": 100_000,
            "min_replay": 500, "eps_start": 1.0, "eps_end": 0.05, "eps_decay_steps": 50_000,
            "target_sync": 1000, "episodes": 300, "hidden_width": 64},
    "eval": {"episodes": 10, "seed": 0},
    "scalability": {"policies": [], "tasks": [], "episodes": 10, "seed": 0},
}

# Retired behaviour switches at their last defaults: each of these is now the
# one behaviour (advantages normalized, latents sampled, no early stop, one DQN
# gradient step per env step, DQN greedy and PPO sampling in evaluation, replays
# only from replay-dump, the pre-training graph set by the algorithm), so the
# key is refused like any unknown one, even at its old default.
RETIRED = [("ppo", "adv_norm", True), ("ppo", "latent_sample", True),
           ("ppo", "stop_food_frac", None), ("dqn", "train_every", 1),
           ("dqn", "latent_sample", True), ("nvif", "stop_recon_frac", None),
           ("nvif", "graph", "neighbor"), ("eval", "greedy", None), ("eval", "replay", False)]
ENV_KEYS = {"task_kind", "map_size", "n_omnivores", "n_food", "max_steps", "r_food", "p_blank",
            "p_attacked", "p_step", "hp_food", "hp_omnivore", "view_radius"}
TOP_KEYS = {"task", "seeds", "out_dir", "algorithm", "env", "obs_vae", "nvif", "ppo", "dqn",
            "eval", "scalability", "obs_vae_checkpoint", "encoder_checkpoint",
            "policy_checkpoint"}

# (config overrides, a word the error names): each raised an untyped error,
# loaded without complaint, or trained nothing before every key was typed;
# an empty seed list trained nothing, and a reward near the float64 maximum
# wrote an infinite return, until both were refused as well (stop_recon_frac,
# adv_norm and greedy are retired since, and refused at any value)
MALFORMED = [
    ({"ppo": {"gamma": None}}, "gamma"),
    ({"env": []}, "env"),
    ({"env": {"map_size": "big"}}, "map_size"),
    ({"nvif": {"alpha": "a"}}, "alpha"),
    ({"dqn": {"eps_start": "1"}}, "eps_start"),
    ({"nvif": {"stop_recon_frac": "a"}}, "stop_recon_frac"),
    ({"nvif": {"recon_weight": "other"}}, "recon_weight"),
    ({"obs_vae": []}, "obs_vae"),
    ({"seeds": "abc"}, "seeds"),
    ({"out_dir": 5}, "out_dir"),
    ({"ppo": {"adv_norm": "no"}}, "adv_norm"),
    ({"scalability": {"tasks": 5}}, "tasks"),
    ({"eval": {"episodes": "a"}}, "episodes"),
    ({"eval": {"greedy": 3}}, "greedy"),
    ({"env": {"r_food": "x"}}, "r_food"),
    ({"env": {"map_size": 12.0}}, "map_size"),
    ({"env": {"r_food": float("nan")}}, "r_food"),
    ({"seeds": [-1]}, "seeds"),
    ({"eval": {"seed": -1}}, "seed"),
    ({"obs_vae": {"seed": -1}}, "seed"),
    ({"ppo": {"epochs": 0}}, "epochs"),
    ({"dqn": {"episodes": 0}}, "episodes"),
    ({"scalability": {"tasks": ["desk-randm-12"]}}, "desk-randm-12"),
    ({"scalability": {"policies": "ab"}}, "policies"),
    ({"seeds": []}, "seeds"),
    ({"env": {"r_food": 1.7e308}}, "r_food"),
]
MALFORMED_IDS = [json.dumps(overrides) for overrides, _ in MALFORMED]

_TEXT = (st.sampled_from(["", "obs_dim", "neighbor", "full", "random", "desk-random-12"])
         | st.text("abc_-01", max_size=6))
# integers stay small: a drawn map size or agent count is a world `eval` builds
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5)
KNOWN_KEYS = [(None, key) for key in sorted(TOP_KEYS)] + [
    (section, key) for section, keys in [("env", sorted(ENV_KEYS)), *SECTION_DEFAULTS.items()]
    for key in keys]


class TestExperimentConfig:
    def test_valid_loads(self, tmp_path):
        cfg = load_experiment(write_config(tmp_path / "c.json"))
        assert cfg.task == "desk-random-12"
        assert cfg.task_config().map_size == 12

    def test_every_default_section_validates(self):
        # the shipped defaults of each trainer pass the range checks
        for hyper in (PPOHyper(), DQNHyper(), ObsVaeHyper(), PretrainHyper()):
            hyper.validate()

    def test_unknown_top_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", mystery_knob=1)
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert "mystery_knob" in str(err.value)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", ppo={"epochs": 1, "klip": 0.3})
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert "klip" in str(err.value)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", algorithm="sarsa")
        with pytest.raises(ConfigError):
            load_experiment(path)

    @pytest.mark.parametrize("graph", ["neighbour", "FULL", 4])
    def test_unknown_nvif_graph_rejected(self, tmp_path, graph):
        # anything but "full" used to build neighbor graphs without a word; the
        # algorithm now sets the graph, so the key is refused at every value
        for value in (graph, "neighbor", "full"):
            with pytest.raises(ConfigError, match="graph"):
                load_experiment(write_config(tmp_path / "c.json", nvif={"graph": value}))

    @pytest.mark.parametrize("section, key, old_default", RETIRED,
                             ids=[f"{s}-{k}" for s, k, _ in RETIRED])
    def test_retired_key_rejected(self, tmp_path, capsys, section, key, old_default):
        path = write_config(tmp_path / "c.json", **{section: {key: old_default}})
        with pytest.raises(ConfigError, match=f"unknown keys in section '{section}'.*{key}"):
            load_experiment(path)
        assert cli_main(["eval", "--config", str(path), "--policy", "random",
                         "--episodes", "1"]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # refused before any work

    @pytest.mark.parametrize("value", [[], "x", 5, None])
    @pytest.mark.parametrize("section", ["env", "obs_vae", "nvif", "ppo", "dqn", "eval",
                                         "scalability"])
    def test_section_that_is_not_an_object_rejected(self, tmp_path, section, value):
        # these raised TypeError or AttributeError, or loaded without a word
        path = write_config(tmp_path / "c.json", **{section: value})
        with pytest.raises(ConfigError, match=f"section '{section}' must be a JSON object"):
            load_experiment(path)

    @pytest.mark.parametrize("raw", [[], "x", 5, None])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, raw):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_experiment(path)

    def test_env_overrides_apply(self, tmp_path):
        path = write_config(tmp_path / "c.json", env={"view_radius": 3})
        cfg = load_experiment(path)
        assert cfg.task_config().view_radius == 3


    @pytest.mark.parametrize("section, key", [
        ("dqn", "train_every"),  # retired since: refused at any value
        ("dqn", "target_sync"), ("dqn", "eps_decay_steps"),
        ("dqn", "min_replay"), ("dqn", "hidden_width"),
        ("nvif", "batch_episodes"), ("nvif", "flow_layers"), ("nvif", "hidden_width"),
        ("nvif", "latent_width"), ("nvif", "decoder_hidden"),
        ("obs_vae", "batch_size"), ("obs_vae", "latent_width"), ("obs_vae", "hidden_width"),
        ("obs_vae", "epochs"),
        ("ppo", "minibatch_slots"), ("ppo", "episodes_per_epoch"), ("ppo", "update_passes"),
        ("ppo", "hidden_width"),
    ])
    def test_zero_count_rejected(self, tmp_path, section, key):
        path = write_config(tmp_path / "c.json", **{section: {key: 0}})
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert key in str(err.value)

    @pytest.mark.parametrize("section, key, value", [
        ("ppo", "gamma", 1.5), ("ppo", "lam", 1.5), ("ppo", "clip_eps", 1.0),
        ("dqn", "gamma", 0.0), ("dqn", "gamma", 1.5),
        ("ppo", "lr", -1.0), ("ppo", "lr", 0.0), ("ppo", "entropy_coef", -5.0),
        ("dqn", "lr", 0.0), ("dqn", "lr", True), ("dqn", "eps_start", 1.5),
        ("dqn", "eps_end", -0.2), ("dqn", "eps_start", 0.01),
        ("obs_vae", "lr", -1.0), ("nvif", "lr", -1.0), ("nvif", "lr", "3e-3"),
        ("nvif", "alpha", -0.1), ("nvif", "recon_weight", -1.0),
        # retired since: refused at any value
        ("nvif", "stop_recon_frac", -0.5), ("nvif", "stop_recon_frac", 0.0),
        ("nvif", "stop_recon_frac", 3.0), ("ppo", "stop_food_frac", 1.5),
        ("ppo", "stop_food_frac", -0.2), ("ppo", "stop_food_frac", 0.0),
    ])
    def test_out_of_range_rejected(self, tmp_path, section, key, value):
        path = write_config(tmp_path / "c.json", **{section: {key: value}})
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert key in str(err.value)

    @pytest.mark.parametrize("section, key, value", [
        ("nvif", "hidden_width", "64"), ("nvif", "latent_width", 2.5),
        ("obs_vae", "hidden_width", True), ("obs_vae", "batch_size", "256"),
        ("nvif", "epochs", True), ("ppo", "epochs", "3"), ("ppo", "minibatch_slots", 2.5),
        ("dqn", "batch_size", 64.0), ("dqn", "episodes", "300"),
    ])
    def test_non_integer_count_rejected(self, tmp_path, section, key, value):
        path = write_config(tmp_path / "c.json", **{section: {key: value}})
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert key in str(err.value)

    @pytest.mark.parametrize("overrides, word", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_value_rejected(self, tmp_path, overrides, word):
        path = write_config(tmp_path / "c.json", **overrides)
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert word in str(err.value)

    def test_section_keys_and_defaults(self, tmp_path):
        cfg = load_experiment(write_config(tmp_path / "c.json", obs_vae={}, ppo={}))
        assert {f.name for f in fields(cfg)} == TOP_KEYS
        assert {f.name for f in fields(TaskConfig)} - {"seed"} == ENV_KEYS
        for section, defaults in SECTION_DEFAULTS.items():
            read = asdict(getattr(cfg, section))
            if section in ("ppo", "dqn"):  # each run's seed is one of seeds
                assert read.pop("seed") == 0
            assert read == defaults, section
        # every key is accepted at its default, the env keys at the preset's values
        env = {k: v for k, v in asdict(preset("desk-random-12")).items() if k != "seed"}
        assert load_experiment(write_config(tmp_path / "c.json", env=env,
                                            **SECTION_DEFAULTS)).env == env
        for section in ("env", "ppo", "dqn"):
            with pytest.raises(ConfigError, match="seed"):
                load_experiment(write_config(tmp_path / "c.json", **{section: {"seed": 1}}))

    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from(KNOWN_KEYS), value=JSON_VALUES)
    def test_any_json_value_is_read_or_refused(self, where, value):
        section, key = where
        with tempfile.TemporaryDirectory() as tmp:
            overrides = {key: value} if section is None else {section: {key: value}}
            path = write_config(Path(tmp) / "c.json", **overrides)
            try:
                load_experiment(path)
                refused = False
            except ConfigError:
                refused = True
            cwd = os.getcwd()
            os.chdir(tmp)  # a drawn out_dir is relative
            # the returns of the rewards the load accepts stay finite, so this suite's
            # RuntimeWarning filter would fail an overflow
            try:
                code = cli_main(["eval", "--config", str(path), "--policy", "random",
                                 "--episodes", "1"])
            finally:
                os.chdir(cwd)
            assert code == 1 if refused else code in (0, 1)


def _corpus_oracle(task_cfg, episodes, rng, max_samples):
    """:func:`collect_obs_corpus` as a list of windows, concatenated and cut."""
    rows, count = [], 0
    for _ in range(episodes):
        world = new_world(replace(task_cfg, seed=int(rng.integers(2 ** 62))))
        while not world.done:
            ids = world.alive_agents()
            rows.append(float_observe(world, ids))
            count += len(ids)
            step(world, rng.integers(0, N_ACTIONS, len(ids)))
            if max_samples is not None and count >= max_samples:
                return np.concatenate(rows)[:max_samples]
    return np.concatenate(rows)


def float_rows_train(compressor, rows, hyper):
    """:meth:`ObsCompressor.train` on float32 window rows, one fancy-indexed
    copy per shuffled minibatch: the oracle of training on the coded corpus."""
    rng = np.random.default_rng(hyper.seed)
    history = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(rows.shape[0])
        recon_sum = kl_sum = 0.0
        n_batches = 0
        for lo in range(0, len(order), hyper.batch_size):
            batch = rows[order[lo:lo + hyper.batch_size]]
            mu, log_sigma = compressor._encode(Tensor(batch))
            z = gaussian_sample(mu, log_sigma, rng=rng)
            recon = mul(bce_loss(batch, compressor._decode(z)), float(compressor.config.obs_dim))
            kl = kl_standard_normal(mu, log_sigma)
            compressor.store.zero_grad()
            backward(recon + kl)
            optimizer_step(compressor.store, lr=hyper.lr)
            recon_sum += float(recon.data)
            kl_sum += float(kl.data)
            n_batches += 1
        history.append({"epoch": epoch, "recon": recon_sum / n_batches,
                        "kl": kl_sum / n_batches})
    compressor.trained = True
    return history


class TestObsCorpus:
    @settings(max_examples=12, deadline=None)
    @given(episodes=st.integers(1, 2), max_samples=st.none() | st.integers(1, 400),
           seed=st.integers(0, 2 ** 16))
    def test_rows_are_the_first_windows_in_order(self, tiny_task, episodes, max_samples,
                                                 seed):
        # a limit inside a step's window, past every window, or none; the
        # codes own their rows, so they keep no larger array alive
        rng = np.random.default_rng(seed)
        got = collect_obs_corpus(tiny_task, episodes, rng, max_samples)
        want_rng = np.random.default_rng(seed)
        want = _corpus_oracle(tiny_task, episodes, want_rng, max_samples)
        assert got.codes.dtype == np.uint8 and got.positions.dtype == np.float32
        assert ((got.hp_omnivore, got.hp_food, got.map_size)
                == (tiny_task.hp_omnivore, tiny_task.hp_food, tiny_task.map_size))
        assert np.array_equal(decode_windows(got.codes, got.positions, got), want)
        assert got.codes.flags.owndata and got.positions.flags.owndata
        # the same draws: a caller's stream goes on as it did with the float rows
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=8, deadline=None)
    @given(max_samples=st.integers(1, 700), batch_size=st.integers(1, 300),
           seed=st.integers(0, 2 ** 16))
    def test_training_equals_training_on_float_rows(self, tiny_task, max_samples, batch_size,
                                                    seed):
        # a last minibatch shorter than the others, or one batch larger than
        # the corpus: the reused batch buffer must give the float rows' bytes
        corpus = collect_obs_corpus(tiny_task, 2, np.random.default_rng(seed), max_samples)
        rows = _corpus_oracle(tiny_task, 2, np.random.default_rng(seed), max_samples)
        hyper = ObsVaeHyper(epochs=2, lr=2e-3, batch_size=batch_size, seed=seed)
        config = ObsVaeConfig(obs_dim=tiny_task.obs_dim, latent_width=4, hidden_width=16)
        coded = ObsCompressor(config, np.random.default_rng(seed))
        floats = ObsCompressor(config, np.random.default_rng(seed))
        assert coded.train(corpus, hyper) == float_rows_train(floats, rows, hyper)
        for name in coded.store.names():
            assert coded.store[name].data.tobytes() == floats.store[name].data.tobytes()

    def test_codes_are_the_window_codes_of_the_kept_agents(self, tiny_task, monkeypatch):
        # each step's rows are the observe() codes of the agents it keeps,
        # and a limit inside a step's windows gathers no code that is cut
        pipeline = importlib.import_module("nviflab.harness.pipeline")
        gathered = []

        def spy(world, ids):
            gathered.append(observe(world, ids))
            return gathered[-1]

        monkeypatch.setattr(pipeline, "observe", spy)
        corpus = collect_obs_corpus(tiny_task, 1, np.random.default_rng(0), max_samples=10)
        assert [len(g) for g in gathered] == [4, 4, 2]
        assert np.array_equal(corpus.codes, np.concatenate(gathered))

    def test_empty_or_misfit_corpus_rejected(self, tiny_task):
        corpus = collect_obs_corpus(tiny_task, 1, np.random.default_rng(0), 10)
        comp = ObsCompressor(ObsVaeConfig(obs_dim=tiny_task.obs_dim), np.random.default_rng(0))
        for codes in (corpus.codes[:0], corpus.codes[:, 1:], corpus.codes[0]):
            with pytest.raises(DataError, match="corpus"):
                comp.train(replace(corpus, codes=codes), ObsVaeHyper(epochs=1))


# The obs-VAE set-up of the CLI's defaults, under an address-space cap in its
# own process: a corpus of 30,000 normal-large windows (60 episodes at most)
# and one training epoch. VmPeak with one BLAS thread (CPython 3.11, numpy
# 2.4, OpenBLAS) is 166.2 MiB with the corpus as uint8 codes decoded per
# minibatch, and 246.6 MiB with the corpus as float32 windows.
OBS_VAE_GATE_MIB = 200
_OBS_VAE_SCRIPT = """
import resource, sys
limit = int(sys.argv[1]) * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from nviflab.env_gather import preset
from nviflab.harness import collect_obs_corpus
from nviflab.nvif import ObsCompressor, ObsVaeConfig, ObsVaeHyper

task = preset("normal-large", seed=0)
rng = np.random.default_rng(0)
corpus = collect_obs_corpus(task, episodes=60, rng=rng, max_samples=30_000)
comp = ObsCompressor(ObsVaeConfig(obs_dim=task.obs_dim), rng)
comp.train(corpus, ObsVaeHyper(epochs=1))
"""


@linux_only
def test_paper_scale_obs_vae_within_address_space_gate():
    run_capped(_OBS_VAE_SCRIPT, OBS_VAE_GATE_MIB)


# The obs-VAE training of the eval-large benchmark's set-up (4,000 normal-large
# windows, latent 8, hidden 48, batches of 256, lr 2e-3), for two epochs in its
# own process, counting minor page faults during train(). With the loss
# computed in a workspace the training owns, it pays 68 faults a minibatch,
# nearly all on the first three (CPython 3.11, numpy 2.4, glibc); with fresh
# loss temporaries, glibc trims the heap top after each minibatch and the next
# one faults it back in: 622–629 a minibatch.
OBS_VAE_FAULTS_PER_MINIBATCH = 100
_OBS_VAE_FAULT_SCRIPT = """
import resource, sys
limit = int(sys.argv[1]) * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from nviflab.env_gather import preset
from nviflab.harness import collect_obs_corpus
from nviflab.nvif import ObsCompressor, ObsVaeConfig, ObsVaeHyper

task = preset("normal-large", seed=0)
rng = np.random.default_rng(0)
corpus = collect_obs_corpus(task, episodes=10, rng=rng, max_samples=4000)
comp = ObsCompressor(ObsVaeConfig(obs_dim=task.obs_dim, latent_width=8, hidden_width=48), rng)
hyper = ObsVaeHyper(epochs=2, lr=2e-3, batch_size=256, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
comp.train(corpus, hyper)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
minibatches = hyper.epochs * -(-len(corpus.codes) // hyper.batch_size)
assert faults <= int(sys.argv[2]) * minibatches, (
    f"{faults} minor faults over {minibatches} minibatches")
"""


@linux_only
def test_obs_vae_training_does_not_refault_its_minibatches():
    run_capped(_OBS_VAE_FAULT_SCRIPT, OBS_VAE_GATE_MIB, OBS_VAE_FAULTS_PER_MINIBATCH)


class TestCliExitCodes:
    def test_invalid_config_exits_1(self, tmp_path):
        path = write_config(tmp_path / "c.json", bogus_key=True)
        assert cli_main(["train", "--config", str(path)]) == 1

    def test_zero_count_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", algorithm="nvif-dqn",
                            dqn={"target_sync": 0})
        assert cli_main(["train", "--config", str(path)]) == 1
        assert "target_sync" in capsys.readouterr().err

    def test_non_integer_count_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", nvif={"hidden_width": "64"})
        assert cli_main(["train", "--config", str(path)]) == 1
        assert "hidden_width" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[], "x", 5, None])
    @pytest.mark.parametrize("section", ["env", "obs_vae", "nvif", "ppo", "dqn", "eval",
                                         "scalability"])
    def test_section_that_is_not_an_object_exits_1(self, tmp_path, capsys, section, value):
        path = write_config(tmp_path / "c.json", **{section: value})
        assert cli_main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and section in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides, word", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_value_exits_1(self, tmp_path, capsys, overrides, word):
        path = write_config(tmp_path / "c.json", **overrides)
        assert cli_main(["eval", "--config", str(path), "--policy", "random",
                         "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and word in err and "Traceback" not in err

    @pytest.mark.parametrize("args, overrides", [
        (["train", "--seed", "-2"], {}),
        (["train"], {"seeds": [-1]}),
        (["eval", "--policy", "random", "--episodes", "1"], {"eval": {"seed": -1}}),
        (["pretrain-obs"], {"obs_vae": {"seed": -1}}),
    ])
    def test_negative_seed_exits_1(self, tmp_path, capsys, args, overrides):
        path = write_config(tmp_path / "c.json", **overrides)
        assert cli_main([args[0], "--config", str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scalability, word", [
        ({"policies": ["nowhere/bundle.ckpt"], "tasks": ["desk-randm-12"]}, "desk-randm-12"),
        ({"policies": "ab", "tasks": ["desk-random-12"]}, "policies"),
    ])
    def test_scalability_lists_checked_before_any_bundle_loads(self, tmp_path, capsys,
                                                               scalability, word):
        # a task typo exited 2 on the missing bundle first, and a policies
        # string was iterated one character at a time
        path = write_config(tmp_path / "c.json", scalability=scalability)
        assert cli_main(["scalability", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert word in err and "share the row label" not in err

    def test_unknown_algorithm_exits_1(self, tmp_path):
        path = write_config(tmp_path / "c.json", algorithm="q-zero")
        assert cli_main(["train", "--config", str(path)]) == 1

    def test_missing_compressor_checkpoint_exits_2(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert cli_main(["train", "--config", str(path)]) == 2

    def test_missing_encoder_checkpoint_exits_2(self, tmp_path):
        path = write_config(tmp_path / "c.json", algorithm="nvif-ppo")
        code = cli_main(["pretrain-obs", "--config", str(path)])
        assert code == 0
        assert cli_main(["train", "--config", str(path)]) == 2

    def test_scalability_without_winner_exits_3(self, tmp_path, capsys,
                                                tiny_compressor):
        # with every reward zero, every return equals the random reference
        bundle = PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                              actor_critic=ActorCritic(
                                  PolicyConfig(tiny_compressor.config.latent_width),
                                  np.random.default_rng(0)))
        bundle.save(tmp_path / "a")
        zero = {"r_food": 0.0, "p_blank": 0.0, "p_attacked": 0.0, "p_step": 0.0}
        path = write_config(tmp_path / "c.json", env=zero, scalability={
            "policies": [str(tmp_path / "a")], "tasks": ["desk-random-12"],
            "episodes": 1})
        assert cli_main(["scalability", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "task desk-random-12 (best 0, reference 0)" in err

    def test_scalability_matrix_recomputable_from_raw_returns(self, tmp_path,
                                                               tiny_compressor):
        # a bundle that always plays noop beats random once food pays nothing
        noop = ActorCritic(PolicyConfig(tiny_compressor.config.latent_width),
                           np.random.default_rng(0))
        noop.actor["w2"].data[:] = 0.0
        noop.actor["b2"].data[NOOP_INDEX] = 50.0
        PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                     actor_critic=noop).save(tmp_path / "noop" / "bundle.ckpt")
        PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                     actor_critic=ActorCritic(
                         PolicyConfig(tiny_compressor.config.latent_width),
                         np.random.default_rng(1))).save(tmp_path / "fresh" / "bundle.ckpt")
        path = write_config(tmp_path / "c.json", env={"r_food": 0.0}, scalability={
            "policies": [str(tmp_path / "noop" / "bundle.ckpt"),
                         str(tmp_path / "fresh" / "bundle.ckpt")],
            "tasks": ["desk-random-12"], "episodes": 1})
        assert cli_main(["scalability", "--config", str(path)]) == 0

        def read(name):
            with open(tmp_path / "out" / "scalability" / name) as fh:
                header, *rows = list(csv.reader(fh))
            return header, [r[0] for r in rows], np.array([r[1:] for r in rows], float)

        head, names, raw = read("raw_returns.csv")
        m_head, m_names, written = read("matrix.csv")
        assert head == m_head == ["policy\\task", "desk-random-12"]
        assert names == ["noop", "fresh", "random"] and m_names == names[:2]
        # both files are written to 6 decimals, so equal to that precision
        np.testing.assert_allclose(normalize_matrix(raw[:2], raw[2]), written,
                                   rtol=0, atol=2e-6)
        assert written[0, 0] == 1.0

    def test_scalability_rows_labelled_by_run_directory(self, tmp_path, capsys,
                                                        tiny_compressor):
        # pipeline bundles all share the file name bundle.ckpt
        noop = ActorCritic(PolicyConfig(tiny_compressor.config.latent_width),
                           np.random.default_rng(0))
        noop.actor["w2"].data[:] = 0.0
        noop.actor["b2"].data[NOOP_INDEX] = 50.0
        runs = [tmp_path / "out" / f"train-ippo-seed{k}" / "bundle.ckpt" for k in (0, 1)]
        for run in runs:
            PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                         actor_critic=noop).save(run)
        path = write_config(tmp_path / "c.json", env={"r_food": 0.0}, scalability={
            "policies": [str(run) for run in runs], "tasks": ["desk-random-12"],
            "episodes": 1})
        assert cli_main(["scalability", "--config", str(path)]) == 0
        for name in ("matrix.csv", "raw_returns.csv"):
            with open(tmp_path / "out" / "scalability" / name) as fh:
                labels = [row[0] for row in list(csv.reader(fh))[1:]]
            assert labels[:2] == ["train-ippo-seed0", "train-ippo-seed1"]
        # two run directories with the same name cannot be told apart
        twin = tmp_path / "elsewhere" / "train-ippo-seed0" / "bundle.ckpt"
        PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                     actor_critic=noop).save(twin)
        path = write_config(tmp_path / "c.json", env={"r_food": 0.0}, scalability={
            "policies": [str(runs[0]), str(twin)], "tasks": ["desk-random-12"],
            "episodes": 1})
        capsys.readouterr()
        assert cli_main(["scalability", "--config", str(path)]) == 1
        assert "'train-ippo-seed0'" in capsys.readouterr().err

    def test_resume_missing_then_truncated_checkpoint_exits_2_then_3(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert cli_main(["pretrain-obs", "--config", str(path)]) == 0
        assert cli_main(["train", "--config", str(path), "--resume"]) == 2
        assert cli_main(["train", "--config", str(path)]) == 0
        ckpt = tmp_path / "out" / "train-ippo-seed0" / "checkpoint"
        ckpt.write_bytes(ckpt.read_bytes()[:-4])
        capsys.readouterr()
        assert cli_main(["train", "--config", str(path), "--resume"]) == 3
        assert str(ckpt) in capsys.readouterr().err

    def test_resume_with_an_edited_setting_exits_1_and_keeps_the_run(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json")
        assert cli_main(["pretrain-obs", "--config", str(path)]) == 0
        assert cli_main(["train", "--config", str(path)]) == 0
        run = tmp_path / "out" / "train-ippo-seed0"
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert {"checkpoint", "metrics.csv"} <= set(before)
        write_config(path, ppo={"epochs": 2, "episodes_per_epoch": 2, "gamma": 0.5})
        capsys.readouterr()
        assert cli_main(["train", "--config", str(path), "--resume"]) == 1
        assert "gamma" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_resume_of_a_dqn_algorithm_exits_1_before_any_work(self, tmp_path, capsys):
        # DQN writes no checkpoint, so resuming would retrain from scratch over
        # the previous run's metrics and bundle
        path = write_config(tmp_path / "c.json", algorithm="nvif-dqn")
        capsys.readouterr()
        assert cli_main(["train", "--config", str(path), "--resume"]) == 1
        err = capsys.readouterr().err
        assert "nvif-dqn cannot resume" in err and "only the PPO algorithms" in err
        assert not (tmp_path / "out").exists()

    def test_eval_unusable_bundle_exits_3(self, tmp_path, capsys, tiny_compressor):
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_bytes(b"\x00" * 64)
        tiny_compressor.save(tmp_path / "obs_vae.ckpt")  # a checkpoint, not a bundle
        path = write_config(tmp_path / "c.json")
        for policy in (garbage, tmp_path / "obs_vae.ckpt"):
            assert cli_main(["eval", "--config", str(path), "--policy", str(policy)]) == 3
            assert str(policy) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "replay-dump", "scalability"])
    def test_bundle_of_another_observation_width_exits_1(self, tmp_path, capsys,
                                                         tiny_compressor, command):
        # a desk-random-12 bundle (5-wide windows) on random-small (11-wide)
        bundle = PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                              actor_critic=ActorCritic(
                                  PolicyConfig(tiny_compressor.config.latent_width),
                                  np.random.default_rng(0)))
        bundle.save(tmp_path / "run" / "bundle.ckpt")
        path = write_config(tmp_path / "c.json", task="random-small", scalability={
            "policies": [str(tmp_path / "run" / "bundle.ckpt")], "tasks": ["random-small"],
            "episodes": 1})
        args = [] if command == "scalability" else [
            "--policy", str(tmp_path / "run" / "bundle.ckpt"), "--episodes", "1"]
        capsys.readouterr()
        assert cli_main([command, "--config", str(path), *args]) == 1
        err = capsys.readouterr().err
        assert str(tiny_compressor.config.obs_dim) in err
        assert str(preset("random-small").obs_dim) in err

    def test_eval_missing_bundle_exits_2(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert cli_main(["eval", "--config", str(path),
                         "--policy", str(tmp_path / "nowhere")]) == 2


    @pytest.mark.parametrize("command", ["eval", "replay-dump"])
    def test_zero_episodes_exits_1(self, tmp_path, capsys, command):
        path = write_config(tmp_path / "c.json", eval={"episodes": 3})
        assert cli_main([command, "--config", str(path), "--policy", "random",
                         "--episodes", "0"]) == 1
        assert "episodes" in capsys.readouterr().err

    def test_zero_buffer_episodes_exits_1(self, tmp_path, capsys, tiny_compressor):
        tiny_compressor.save(tmp_path / "obs_vae.ckpt")
        path = write_config(tmp_path / "c.json", algorithm="nvif-ppo",
                            obs_vae_checkpoint=str(tmp_path / "obs_vae.ckpt"),
                            nvif={"buffer_episodes": 0})
        assert cli_main(["pretrain-nvif", "--config", str(path)]) == 1
        assert "buffer_episodes" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["corpus_episodes", "corpus_max_samples"])
    def test_zero_corpus_count_exits_1(self, tmp_path, capsys, key):
        obs_vae = {"latent_width": 8, "hidden_width": 32, "epochs": 1, key: 0}
        path = write_config(tmp_path / "c.json", obs_vae=obs_vae)
        assert cli_main(["pretrain-obs", "--config", str(path)]) == 1
        assert key in capsys.readouterr().err


class TestCliPipeline:
    def test_ippo_workflow(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert cli_main(["pretrain-obs", "--config", str(path)]) == 0
        assert cli_main(["train", "--config", str(path)]) == 0
        out = tmp_path / "out"
        run = out / "train-ippo-seed0"
        assert (run / "metrics.csv").exists()
        assert (run / "bundle.ckpt").is_file() and (run / "checkpoint").is_file()
        assert cli_main(["eval", "--config", str(path),
                         "--policy", str(run / "bundle.ckpt"), "--episodes", "2"]) == 0
        metrics = json.loads((out / "eval" / "metrics.json").read_text())
        assert set(metrics) >= {"mean_return", "mean_end_steps", "food_eaten_frac"}

    def test_replay_dump_random_policy(self, tmp_path):
        path = write_config(tmp_path / "c.json")
        assert cli_main(["replay-dump", "--config", str(path),
                         "--policy", "random", "--episodes", "2"]) == 0
        episodes = read_replay(tmp_path / "out" / "replay" / "replay.jsonl")
        assert len(episodes) == 2
        assert "edges" in episodes[0][1][0]

    @pytest.mark.parametrize("algorithm", ["fully-vif-ppo", "nvif-ppo"])
    def test_pretraining_graph_follows_the_algorithm(self, tmp_path, monkeypatch,
                                                     tiny_compressor, algorithm):
        # the protocol is pre-trained on the graph it communicates over: the
        # complete graph for the fully-connected ablation, else neighbor graphs
        pipeline = importlib.import_module("nviflab.harness.pipeline")
        seen, pretrain = [], pipeline.pretrain
        monkeypatch.setattr(pipeline, "pretrain",
                            lambda buffer, *rest: seen.append(buffer) or pretrain(buffer, *rest))
        nvif = {"buffer_episodes": 2, "batch_episodes": 2, "epochs": 1, "hidden_width": 8,
                "latent_width": 4, "decoder_hidden": 8}
        cfg = load_experiment(write_config(tmp_path / "c.json", algorithm=algorithm, nvif=nvif))
        pipeline.run_pretrain_nvif(cfg, compressor=tiny_compressor)
        steps = [sd for ep in seen[0] for sd in ep.steps]
        last_cell = cfg.task_config().map_size - 1
        for sd in steps:
            n = len(sd.ids)
            assert sd.adj_norm.shape == (n, n)
            if algorithm == "fully-vif-ppo":
                np.testing.assert_allclose(sd.adj_norm, 1.0 / n, rtol=1e-6)
            else:
                cells = np.rint(sd.positions * last_cell).astype(np.int64)
                expected = normalize(build_graph(cells, sd.ids)).astype(sd.adj_norm.dtype)
                assert np.array_equal(sd.adj_norm, expected)
        # the rule tells the two apart: some neighbor graph leaves agents unlinked
        assert any(np.any(sd.adj_norm == 0) for sd in steps) == (algorithm == "nvif-ppo")


class TestEvaluate:
    @pytest.mark.parametrize("episodes", [0, -1])
    def test_nonpositive_episodes_rejected(self, tiny_task, episodes):
        with pytest.raises(ConfigError, match="episodes"):
            evaluate("random", tiny_task, episodes=episodes, seed=0)

    def test_noop_policy_random_task(self):
        task = preset("random-small", seed=0)
        metrics = evaluate("noop", task, episodes=2, seed=1)
        assert metrics["food_eaten_frac"] == 0.0
        assert metrics["mean_end_steps"] == 100.0

    def test_random_policy_eats_some_but_not_all(self):
        task = preset("normal-small", seed=0)
        metrics = evaluate("random", task, episodes=3, seed=1)
        assert metrics["food_eaten_frac"] < 1.0

    def test_deterministic_given_seed(self, tiny_task, tiny_compressor):
        res = train_ppo(tiny_task, tiny_compressor,
                        PPOHyper(epochs=1, episodes_per_epoch=2, seed=0),
                        latent_mode="none")
        bundle = PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                              actor_critic=res.actor_critic)
        m1 = evaluate(bundle, tiny_task, episodes=3, seed=5)
        m2 = evaluate(bundle, tiny_task, episodes=3, seed=5)
        assert m1 == m2

    def test_bundle_episode_ends_at_wipeout(self, tiny_task, tiny_compressor, monkeypatch):
        spy = EpisodeSpy(monkeypatch, importlib.import_module("nviflab.harness.evaluate"),
                         at_t=2, kill=range(tiny_task.n_omnivores))
        ac = ActorCritic(PolicyConfig(input_width=8), np.random.default_rng(0))
        bundle = PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                              actor_critic=ac)
        metrics = evaluate(bundle, tiny_task, episodes=1, seed=0)
        assert metrics["mean_end_steps"] == 2.0 and spy.world.food_remaining() > 0

    def test_metrics_recomputable_from_replay(self, tmp_path, tiny_task):
        replay = tmp_path / "r.jsonl"
        metrics = evaluate("random", tiny_task, episodes=3, seed=2, replay_path=replay)
        episodes = read_replay(replay)
        per_ep = [episode_metrics(h, recs) for h, recs in episodes]
        assert np.mean([m["return"] for m in per_ep]) == pytest.approx(
            metrics["mean_return"])
        assert np.mean([m["end_steps"] for m in per_ep]) == pytest.approx(
            metrics["mean_end_steps"])
        assert np.mean([m["food_eaten_frac"] for m in per_ep]) == pytest.approx(
            metrics["food_eaten_frac"])

    def test_replay_bytes_equal_the_golden_file(self, tmp_path):
        # pins the JSON-lines format: a random-policy episode in which agents
        # die, written byte for byte as tests/data/golden_random_replay.jsonl
        golden = Path(__file__).parent / "data" / "golden_random_replay.jsonl"
        task = preset("desk-random-12", seed=0, n_omnivores=20, hp_omnivore=1)
        replay = tmp_path / "r.jsonl"
        evaluate("random", task, episodes=1, seed=3, replay_path=replay)
        assert replay.read_bytes() == golden.read_bytes()
        (_, records), = read_replay(golden)
        assert len(records[-1]["alive"]) < task.n_omnivores

    def test_replay_closed_when_episode_raises(self, tmp_path, tiny_task, monkeypatch):
        module = importlib.import_module("nviflab.harness.evaluate")
        real_step = module.step
        calls = []

        def failing_step(world, actions):
            calls.append(world.t)
            if len(calls) == 2:
                raise RuntimeError("step failed")
            return real_step(world, actions)

        monkeypatch.setattr(module, "step", failing_step)
        replay = tmp_path / "r.jsonl"
        with pytest.raises(RuntimeError, match="step failed") as failure:
            evaluate("random", tiny_task, episodes=1, seed=0, replay_path=replay)
        # the caller still holds the traceback (and so evaluate's frame), yet
        # the writer was closed on the way out: header and first step flushed
        assert failure.traceback
        lines = replay.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["kind"] == "header"

    @pytest.mark.parametrize("latent_mode", ["nvif", "full"])
    def test_replay_edges_built_once_per_step(self, tmp_path, tiny_task, tiny_compressor,
                                              monkeypatch, latent_mode):
        # the replay records the neighbor graph the encoder used, built once;
        # in full mode the encoder's complete graph is not what gets recorded
        rng = np.random.default_rng(9)
        width = tiny_compressor.config.latent_width
        encoder = NvifEncoder(NvifConfig(obs_feat_width=width, obs_dim=tiny_task.obs_dim,
                                         hidden_width=16, latent_width=8, flow_layers=1,
                                         decoder_hidden=16), rng)
        bundle = PolicyBundle("nvif-ppo", latent_mode, "desk-random-12", tiny_compressor,
                              encoder=encoder,
                              actor_critic=ActorCritic(PolicyConfig(width + 8, 16), rng))
        real_build = importlib.import_module("nviflab.commgraph").build_graph
        builds = []

        def counted_build(positions, ids):
            builds.append((np.array(positions), list(ids)))
            return real_build(positions, ids)

        for name in ("nviflab.policy.providers", "nviflab.harness.evaluate"):
            monkeypatch.setattr(importlib.import_module(name), "build_graph", counted_build)
        replay = tmp_path / "r.jsonl"
        evaluate(bundle, tiny_task, episodes=2, seed=3, replay_path=replay)
        records = [rec for _, recs in read_replay(replay) for rec in recs]
        assert len(builds) == len(records)
        for rec, (positions, ids) in zip(records, builds):
            assert rec["edges"] == [list(e) for e in real_build(positions, ids).edges()]

    @pytest.mark.parametrize("algorithm", ["nvif-ppo", "nvif-dqn"])
    def test_bundle_with_encoder_roundtrips_through_one_file(self, tmp_path, tiny_task,
                                                            tiny_compressor, algorithm):
        rng = np.random.default_rng(6)
        width = tiny_compressor.config.latent_width
        encoder = NvifEncoder(NvifConfig(obs_feat_width=width, obs_dim=tiny_task.obs_dim,
                                         hidden_width=16, latent_width=8, flow_layers=1,
                                         decoder_hidden=16), rng)
        if algorithm == "nvif-dqn":
            head = {"qnet": QNetwork(width + 8, 16, rng)}
            heads = [head["qnet"].store]
        else:
            head = {"actor_critic": ActorCritic(PolicyConfig(width + 8, 16), rng)}
            heads = [head["actor_critic"].actor, head["actor_critic"].critic]
        for store in heads:  # optimizer moments and step counts ride along
            for name in store.names():
                store[name].grad = rng.standard_normal(store[name].data.shape)
            optimizer_step(store, lr=1e-2)
        bundle = PolicyBundle(algorithm, "nvif", "desk-random-12", tiny_compressor,
                              encoder=encoder, **head)
        bundle.save(tmp_path / "bundle.ckpt")
        assert [f.name for f in tmp_path.iterdir()] == ["bundle.ckpt"]
        loaded = PolicyBundle.load(tmp_path / "bundle.ckpt")

        assert (loaded.algorithm, loaded.latent_mode, loaded.task, loaded.kind) == \
               (bundle.algorithm, bundle.latent_mode, bundle.task, bundle.kind)
        assert loaded.compressor.config == bundle.compressor.config
        assert loaded.encoder.config == encoder.config
        if algorithm == "nvif-dqn":
            assert loaded.actor_critic is None
            loaded_heads = [loaded.qnet.store]
        else:
            assert loaded.qnet is None and loaded.actor_critic.config == bundle.actor_critic.config
            loaded_heads = [loaded.actor_critic.actor, loaded.actor_critic.critic]
        pairs = zip([tiny_compressor.store, encoder.store, *heads],
                    [loaded.compressor.store, loaded.encoder.store, *loaded_heads])
        for before, after in pairs:
            assert after.names() == before.names() and after.step_count == before.step_count
            for name in before.names():
                assert after[name].data.dtype == before[name].data.dtype
                np.testing.assert_array_equal(after[name].data, before[name].data)
            assert after.moments.keys() == before.moments.keys()
            for name, bufs in before.moments.items():
                for key, arr in bufs.items():
                    np.testing.assert_array_equal(after.moments[name][key], arr)
        assert evaluate(loaded, tiny_task, episodes=2, seed=4) == \
               evaluate(bundle, tiny_task, episodes=2, seed=4)

    def test_bundle_width_mismatch_rejected(self, tiny_task, tiny_compressor):
        res = train_ppo(tiny_task, tiny_compressor,
                        PPOHyper(epochs=1, episodes_per_epoch=1, seed=0),
                        latent_mode="none")
        bundle = PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                              actor_critic=res.actor_critic)
        other = preset("desk-normal-16", seed=0, view_radius=4)
        with pytest.raises(ConfigError):
            bundle.check_task(other)


def _count_step_actions(monkeypatch, module) -> list:
    """Patches ``module.step`` as the benchmark's agent-step probe does
    (``_count_agent_steps`` in ``perfbench/workloads.py``): a positional
    ``probe(world, actions)`` adding ``len(actions)`` to a count."""
    count, original = [0], module.step

    def probe(world, actions):
        count[0] += len(actions)
        return original(world, actions)

    monkeypatch.setattr(module, "step", probe)
    return count


class TestBenchmarkProbeSites:
    """The benchmark counts agent-steps by patching ``step`` in the PPO, DQN
    and evaluation modules; each must call it there, once per env step, or
    the benchmark reads zero agent-steps/s."""

    def test_ppo_collect_episode(self, tiny_task, tiny_compressor, monkeypatch):
        ppo_mod = importlib.import_module("nviflab.policy.ppo")
        count = _count_step_actions(monkeypatch, ppo_mod)
        ac = ActorCritic(PolicyConfig(input_width=8), np.random.default_rng(0))
        (x, _, probs, adv, ret, _), stats = ppo_mod.collect_episode(
            tiny_task, 5, tiny_compressor, EmptyLatents(), ac, np.random.default_rng(1),
            0.9, 0.8)
        assert count[0] == len(x) == len(probs) == len(adv) == len(ret) > 0

    def test_dqn_train_dqn(self, tiny_task, tiny_compressor, monkeypatch):
        dqn_mod = importlib.import_module("nviflab.policy.dqn")
        count = _count_step_actions(monkeypatch, dqn_mod)
        rings = ring_spy(monkeypatch, dqn_mod)
        hyper = DQNHyper(episodes=2, min_replay=10 ** 6, replay_capacity=10 ** 4, seed=0)
        dqn_mod.train_dqn(tiny_task, tiny_compressor, hyper, latent_mode="none")
        # one ring row per alive agent per step, none overwritten
        assert 0 < rings[0].size < hyper.replay_capacity
        assert count[0] == rings[0].size

    def test_harness_evaluate(self, tmp_path, tiny_task, monkeypatch):
        eval_mod = importlib.import_module("nviflab.harness.evaluate")
        count = _count_step_actions(monkeypatch, eval_mod)
        replay = tmp_path / "r.jsonl"
        eval_mod.evaluate("random", tiny_task, episodes=2, seed=4, replay_path=replay)
        records = [rec for _, recs in read_replay(replay) for rec in recs]
        assert count[0] == sum(len(rec["actions"]) for rec in records) > 0


class TestScalability:
    def test_normalization_mechanics(self):
        raw = np.array([[10.0, 2.0], [5.0, 4.0]])
        scores = normalize_matrix(raw)
        np.testing.assert_allclose(scores, [[1.0, 0.5], [0.5, 1.0]])
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        assert np.all(scores.max(axis=0) == 1.0)
        # scores are measured from the reference: a common shift cancels
        shifted = normalize_matrix(raw + 7.5, reference=np.array([7.5, 7.5]))
        np.testing.assert_array_equal(shifted, scores)
        np.testing.assert_allclose(
            normalize_matrix(raw, reference=np.array([5.0, 2.0])),
            [[1.0, 0.0], [0.0, 1.0]])

    def test_negative_entries_clamped(self):
        scores = normalize_matrix(np.array([[4.0, -3.0], [-2.0, 6.0]]))
        np.testing.assert_allclose(scores, [[1.0, 0.0], [0.0, 1.0]])

    def test_nonpositive_column_rejected(self):
        with pytest.raises(DataError):
            normalize_matrix(np.array([[1.0, -2.0], [0.5, -0.1]]))
        # a column whose best return only equals its reference is rejected
        with pytest.raises(DataError, match="task 1"):
            normalize_matrix(np.array([[1.0, -2.0], [0.5, -3.0]]),
                             reference=np.array([0.5, -2.0]))

    def test_matrix_over_tasks(self, tiny_task, tiny_compressor):
        # a real bundle and noop, scored against the random policy per column.
        # Without food reward every reward is a penalty and noop pays only the
        # step penalty, so noop beats random (whose attacks cost far more).
        res = train_ppo(tiny_task, tiny_compressor,
                        PPOHyper(epochs=1, episodes_per_epoch=1, seed=0),
                        latent_mode="none")
        bundle = PolicyBundle("ippo", "none", "desk-random-12", tiny_compressor,
                              actor_critic=res.actor_critic)
        no_food = replace(tiny_task, r_food=0.0)
        rows, cols, raw, reference, scores = scalability_matrix(
            [("a", bundle), ("noop", "noop")],
            [("t1", no_food)], episodes=1, seed=0)
        assert rows == ["a", "noop"] and cols == ["t1"]
        assert scores.shape == (2, 1)
        np.testing.assert_allclose(scores.max(axis=0), 1.0)
        assert scores[1, 0] == 1.0
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)
        # the reference is random run on the same seed (the same env episodes)
        ref = evaluate("random", no_food, episodes=1, seed=0)["mean_return"]
        assert reference.tolist() == [ref]
        np.testing.assert_allclose(
            scores[:, 0], np.clip(raw[:, 0] - ref, 0.0, None) / (raw[1, 0] - ref))
        # the random policy alone plays the reference's own episodes: no gain
        with pytest.raises(DataError, match="task t1"):
            scalability_matrix([("r", "random")], [("t1", no_food)],
                               episodes=1, seed=0)


class TestResume:
    def test_save_killed_before_commit_resumes_bit_identical(self, tmp_path, tiny_task,
                                                             tiny_compressor, monkeypatch):
        hyper = PPOHyper(epochs=4, episodes_per_epoch=2, seed=11)
        full_dir = tmp_path / "full"
        res_full = train_ppo(tiny_task, tiny_compressor, hyper,
                             latent_mode="none", out_dir=full_dir)

        import nviflab.diffcore.params as params
        real_replace = params.os.replace
        saves = []

        def killed_at_epoch_3(src, dst):
            saves.append(dst)
            if len(saves) == 3:
                raise OSError("killed before the commit")
            real_replace(src, dst)

        part_dir = tmp_path / "part"
        monkeypatch.setattr(params.os, "replace", killed_at_epoch_3)
        with pytest.raises(OSError, match="killed"):
            train_ppo(tiny_task, tiny_compressor, hyper, latent_mode="none", out_dir=part_dir)
        monkeypatch.undo()
        assert saves == [part_dir / "checkpoint"] * 3
        res_resumed = train_ppo(tiny_task, tiny_compressor, hyper,
                                latent_mode="none", out_dir=part_dir, resume=True)

        assert res_full.metrics == res_resumed.metrics
        assert (full_dir / "metrics.csv").read_bytes() == \
               (part_dir / "metrics.csv").read_bytes()
        for before, after in ((res_full.actor_critic.actor, res_resumed.actor_critic.actor),
                              (res_full.actor_critic.critic, res_resumed.actor_critic.critic)):
            for name in before.names():
                np.testing.assert_array_equal(after[name].data, before[name].data)

    @pytest.mark.parametrize("key, task, hyper, latent_mode", [
        ("gamma", {}, {"gamma": 0.5}, "none"),
        ("episodes_per_epoch", {}, {"episodes_per_epoch": 3}, "none"),
        ("hidden_width", {}, {"hidden_width": 128}, "none"),
        ("latent_mode", {}, {}, "mean"),
        ("map_size", {"map_size": 10}, {}, "none"),
    ])
    def test_resume_with_other_settings_rejected(self, tmp_path, tiny_task, tiny_compressor,
                                                 key, task, hyper, latent_mode):
        saved = PPOHyper(epochs=1, episodes_per_epoch=1, seed=1)
        train_ppo(tiny_task, tiny_compressor, saved, latent_mode="none", out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match=key):
            train_ppo(replace(tiny_task, **task), tiny_compressor,
                      replace(saved, epochs=2, **hyper), latent_mode=latent_mode,
                      out_dir=tmp_path, resume=True)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_without_a_settings_record_rejected(self, tmp_path, tiny_task,
                                                       tiny_compressor):
        hyper = PPOHyper(epochs=1, episodes_per_epoch=1, seed=1)
        train_ppo(tiny_task, tiny_compressor, hyper, latent_mode="none", out_dir=tmp_path)
        meta, stores = load_checkpoint(tmp_path / "checkpoint")
        del meta["settings"]
        save_checkpoint(tmp_path / "checkpoint", meta, stores)
        with pytest.raises(ConfigError, match="none recorded"):
            train_ppo(tiny_task, tiny_compressor, replace(hyper, epochs=2),
                      latent_mode="none", out_dir=tmp_path, resume=True)

    def test_resume_of_a_checkpoint_with_retired_switches_rejected(self, tmp_path, tiny_task,
                                                                   tiny_compressor):
        # a checkpoint written while PPO still had these switches records them
        hyper = PPOHyper(epochs=1, episodes_per_epoch=1, seed=1)
        train_ppo(tiny_task, tiny_compressor, hyper, latent_mode="none", out_dir=tmp_path)
        meta, stores = load_checkpoint(tmp_path / "checkpoint")
        meta["settings"].update({"ppo.adv_norm": True, "ppo.latent_sample": True,
                                 "ppo.stop_food_frac": None})
        save_checkpoint(tmp_path / "checkpoint", {**meta, "stopped": False}, stores)
        with pytest.raises(ConfigError, match="ppo.adv_norm saved True, given None; "
                                              "ppo.latent_sample saved True, given None"):
            train_ppo(tiny_task, tiny_compressor, replace(hyper, epochs=2),
                      latent_mode="none", out_dir=tmp_path, resume=True)

    def test_checkpoint_resume_bit_identical(self, tmp_path, tiny_task, tiny_compressor):
        hyper = PPOHyper(epochs=4, episodes_per_epoch=2, seed=11)
        full_dir = tmp_path / "full"
        res_full = train_ppo(tiny_task, tiny_compressor, hyper,
                             latent_mode="none", out_dir=full_dir)

        part_dir = tmp_path / "part"
        train_ppo(tiny_task, tiny_compressor,
                  PPOHyper(epochs=2, episodes_per_epoch=2, seed=11),
                  latent_mode="none", out_dir=part_dir)
        res_resumed = train_ppo(tiny_task, tiny_compressor, hyper,
                                latent_mode="none", out_dir=part_dir, resume=True)

        assert res_full.metrics == res_resumed.metrics
        assert (full_dir / "metrics.csv").read_bytes() == \
               (part_dir / "metrics.csv").read_bytes()
