"""Observation compressor: a small VAE trained on raw local views.

The rest of the pipeline consumes its posterior mean as a fixed-width
1-D feature, deterministically at inference time, from the uint8 codes of
:func:`env_gather.observe`: per task, the first layer folds into weights over
[codes > 0, codes] and a table of each map cell's empty-window pre-activation
(equal to the float path up to rounding). The decoder returns per-cell
Bernoulli logits, and the cross entropy is computed from them
(:func:`diffcore.bce_loss`). Training balances the reconstruction term
against the KL by summing the cross entropy over cells (the usual VAE
convention), otherwise the prior collapses the code.

It trains on an :class:`ObsCorpus`: the windows as the uint8 hp-count codes
of :func:`env_gather.observe` with their positions, at 2*w*w + 8 bytes
a window against the 28*w*w of float32 rows. Each shuffled minibatch is
decoded by :func:`env_gather.decode_windows` into one float32 batch buffer
that training owns and reuses, so no float32 copy of the corpus is ever held.
Beside it, training owns the loss workspace: the two minibatch-sized arrays
:func:`diffcore.bce_loss` computes its elementwise terms in. Fresh arrays of
that size would come from the top of the heap, which is trimmed after each
minibatch and page-faulted back in on the next.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..diffcore import (
    ParamStore,
    Tensor,
    affine,
    backward,
    bce_loss,
    gaussian_sample,
    init_linear,
    init_mlp,
    load_checkpoint,
    log_sigma_head,
    mlp,
    mul,
    no_grad,
    optimizer_step,
    relu,
    save_checkpoint,
)
from ..env_gather import decode_windows
from ..errors import ConfigError, DataError, StateError, require_counts, require_rates
from .losses import kl_standard_normal


@dataclass(eq=False)  # array fields have no single truth value
class ObsCorpus:
    """Observation windows as :func:`env_gather.observe` codes them."""
    codes: np.ndarray          # (n, 2*w*w) uint8 hp-count codes
    positions: np.ndarray      # (n, 2) float32 normalized positions
    hp_omnivore: int           # the task's hp maxima, which the codes count in
    hp_food: int
    map_size: int              # the task's map, which the out-of-bounds channel follows


@dataclass
class ObsVaeConfig:
    obs_dim: int
    latent_width: int = 16
    hidden_width: int = 64
    dtype: str = "float32"


@dataclass
class ObsVaeHyper:
    epochs: int = 30
    lr: float = 1e-3
    batch_size: int = 256
    seed: int = 0

    def validate(self):
        require_counts("obs_vae", epochs=self.epochs, batch_size=self.batch_size)
        require_rates("obs_vae", lr=self.lr)


class ObsCompressor:
    def __init__(self, config: ObsVaeConfig, rng: np.random.Generator,
                 store: ParamStore | None = None, trained: bool = False):
        self.config = config
        self.trained = trained
        self._folds = {}  # (map_size, hp_omnivore, hp_food) -> (code weights, cell table)
        dt = np.dtype(config.dtype)
        if store is not None:
            self.store = store
            return
        self.store = ParamStore()
        c = config
        for name, fin, fout, scale in (
            ("enc_w1", c.obs_dim, c.hidden_width, None),
            ("enc_mu", c.hidden_width, c.latent_width, np.sqrt(1.0 / c.hidden_width)),
            ("enc_ls", c.hidden_width, c.latent_width, np.sqrt(1.0 / c.hidden_width)),
        ):
            w, b = init_linear(rng, fin, fout, dt, scale=scale)
            self.store.add(name, w)
            self.store.add(name + "_b", b)
        init_mlp(self.store, "dec_", [c.latent_width, c.hidden_width, c.obs_dim], rng, dt,
                 out_scale=np.sqrt(1.0 / c.hidden_width))

    def check_obs_width(self, task_cfg):
        """Raise ConfigError unless the task's observations are this compressor's width."""
        if self.config.obs_dim != task_cfg.obs_dim:
            raise ConfigError(f"compressor expects observation width {self.config.obs_dim}, "
                              f"task produces {task_cfg.obs_dim}")

    def _hidden(self, x):
        return relu(affine(x, self.store["enc_w1"], self.store["enc_w1_b"]))

    def _mean(self, h):
        return affine(h, self.store["enc_mu"], self.store["enc_mu_b"])

    def _encode(self, x):
        h = self._hidden(x)
        log_sigma = log_sigma_head(h, self.store["enc_ls"], self.store["enc_ls_b"])
        return self._mean(h), log_sigma

    def _decode(self, z):
        """Per-cell logits of the reconstructed observation."""
        return mlp(z, self.store, "dec_")

    def encode(self, codes: np.ndarray, cells: np.ndarray, task) -> np.ndarray:
        """Posterior means of the (n, 2*w*w) :func:`env_gather.observe` codes
        seen from the (n, 2) map cells (x, y) of ``task`` (its config, or a
        record of its ``map_size``, ``hp_omnivore`` and ``hp_food``)."""
        if not self.trained:
            raise StateError("observation compressor used before training")
        n, width, ms = len(codes), 2 * self.config.obs_dim // 7, task.map_size
        if (codes.shape != (n, width) or cells.shape != (n, 2)
                or n and not (0 <= cells.min() and cells.max() < ms)):
            raise DataError(f"encode needs ({n}, {width}) window codes and ({n}, 2) cells on "
                            f"the {ms}x{ms} map, got {codes.shape} and {cells.shape}")
        key = (ms, task.hp_omnivore, task.hp_food)
        if key not in self._folds:
            self._folds[key] = self._fold(task)
        w_codes, table = self._folds[key]
        x = np.empty((n, 2, width), dtype=w_codes.dtype)
        np.greater(codes, 0, out=x[:, 0])
        x[:, 1] = codes
        h = x.reshape(n, 2 * width) @ w_codes
        h += table[cells[:, 1], cells[:, 0]]
        with no_grad():
            return self._mean(Tensor(np.maximum(h, 0, out=h))).data

    def _fold(self, task):
        """The first layer's (4*w*w, hidden) weights of [codes > 0, codes] and
        (ms, ms, hidden) table of each cell's empty-window pre-activation, from
        windows :func:`env_gather.decode_windows` renders, affine in those
        columns at a fixed cell; in float64, at most ms windows at a time."""
        w1 = self.store["enc_w1"].data.astype(np.float64)
        b1 = self.store["enc_w1_b"].data.astype(np.float64)
        ms, width = task.map_size, 2 * self.config.obs_dim // 7

        def layer(codes, positions):
            return np.concatenate([decode_windows(codes[lo:lo + ms], positions[lo:lo + ms], task)
                                   @ w1 for lo in range(0, len(codes), ms)]) + b1

        ones = np.eye(width, dtype=np.uint8)  # a count of 1, then 2, in each column at (0, 0)
        one, two = np.split(layer(np.concatenate([ones, 2 * ones]), np.zeros((2 * width, 2)))
                            - layer(0 * ones[:1], np.zeros((1, 2))), 2)
        w_codes = np.concatenate([2 * one - two, two - one]).astype(self.config.dtype)
        positions = np.stack([np.arange(ms) / (ms - 1), np.zeros(ms)], axis=1)
        table = np.empty((ms, ms, len(b1)), dtype=self.config.dtype)
        for y in range(ms):
            positions[:, 1] = y / (ms - 1)
            table[y] = layer(np.zeros((ms, width), dtype=np.uint8), positions)
        return w_codes, table

    def train(self, corpus: ObsCorpus, hyper: ObsVaeHyper) -> list[dict]:
        """Minimize summed-bce reconstruction + KL over shuffled minibatches."""
        hyper.validate()
        n, obs_dim = len(corpus.codes), self.config.obs_dim
        if corpus.codes.ndim != 2 or n == 0 or 7 * corpus.codes.shape[1] != 2 * obs_dim:
            raise DataError(f"obs-vae corpus must be (n, 2*w*w) codes of {obs_dim}-wide "
                            f"windows, got {corpus.codes.shape}")
        self._folds.clear()  # they follow the weights
        rng = np.random.default_rng(hyper.seed)
        rows_max = min(n, hyper.batch_size)
        buffer = np.empty((rows_max, obs_dim), dtype=np.float32)
        # bce_loss's workspace, as two arrays: freeing one block of twice the size
        # would raise glibc's dynamic mmap threshold, and with it later peak RSS
        work = [np.empty((rows_max, obs_dim), dtype=self.config.dtype) for _ in range(2)]
        history = []
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            epoch_recon = epoch_kl = 0.0
            n_batches = 0
            for lo in range(0, n, hyper.batch_size):
                rows = order[lo:lo + hyper.batch_size]
                batch = decode_windows(corpus.codes[rows], corpus.positions[rows], corpus,
                                       out=buffer[:len(rows)])
                batch = batch.astype(self.config.dtype, copy=False)
                x = Tensor(batch)
                mu, log_sigma = self._encode(x)
                z = gaussian_sample(mu, log_sigma, rng=rng)
                recon = bce_loss(batch, self._decode(z), work=[w[:len(rows)] for w in work])
                recon = mul(recon, float(obs_dim))
                kl = kl_standard_normal(mu, log_sigma)
                loss = recon + kl
                backward(loss)
                optimizer_step(self.store, lr=hyper.lr)
                epoch_recon += float(recon.data)
                epoch_kl += float(kl.data)
                n_batches += 1
            history.append({"epoch": epoch, "recon": epoch_recon / n_batches,
                            "kl": epoch_kl / n_batches})
        self.trained = True
        return history

    def checkpoint_parts(self) -> tuple[dict, dict]:
        return ({"obs_vae": asdict(self.config) | {"trained": self.trained}},
                {"obs_vae": self.store})

    @classmethod
    def from_checkpoint(cls, meta: dict, stores: dict) -> "ObsCompressor":
        config = dict(meta["obs_vae"])
        trained = config.pop("trained")
        return cls(ObsVaeConfig(**config), rng=np.random.default_rng(0),
                   store=stores["obs_vae"], trained=trained)

    def save(self, path):
        save_checkpoint(path, *self.checkpoint_parts())

    @classmethod
    def load(cls, path) -> "ObsCompressor":
        return cls.from_checkpoint(*load_checkpoint(path))
