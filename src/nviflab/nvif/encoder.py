"""The communication encoder/decoder pair.

Per timestep the encoder runs two independent FlowNets (one over the agents'
compressed observations, one over their hidden states) and feeds the results
through a shared GRU cell (observation path as input, hidden path as the
recurrent state), all as one :func:`diffcore.flow_gru_cell` node whose value
is the next hidden state; it then samples the latent off an affine head.
A FlowNet is stacked graph convolutions that mix neighbor features: each
layer computes ReLU(A_hat @ H @ W), A_hat the symmetric normalized adjacency
given as its diagonal blocks (one per graph, so stacked graphs never
exchange features), and L layers give L rounds of exchange per timestep.
:meth:`NvifEncoder.step` is the one forward pass: inference calls it on one
episode's graph, pre-training on the stacked graphs of several episodes. The
decoder reconstructs an agent's raw observation window from its sampled
latent concatenated with its normalized position, as Bernoulli logits.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..diffcore import (
    ParamStore,
    Tensor,
    affine,
    as_tensor,
    concat,
    flow_gru_cell,
    gather_rows,
    gaussian_sample,
    init_gru,
    init_linear,
    init_mlp,
    load_checkpoint,
    log_sigma_head,
    mlp,
    save_checkpoint,
)
from ..errors import ConfigError, ProtocolError


def init_flownet(store: ParamStore, prefix: str, widths: list[int],
                 rng: np.random.Generator, dtype=np.float32) -> list[Tensor]:
    """Register FlowNet layer weights ``prefix/w0..`` for the given width
    chain and return them in layer order."""
    if len(widths) < 2:
        raise ConfigError(f"flownet {prefix!r} needs at least one layer (two widths), "
                          f"got widths {widths}")
    return [store.add(f"{prefix}/w{layer}", init_linear(rng, fin, fout, dtype)[0])
            for layer, (fin, fout) in enumerate(zip(widths[:-1], widths[1:]))]


@dataclass
class NvifConfig:
    obs_feat_width: int          # compressed observation width fed to FlowNet_o
    obs_dim: int                 # raw observation width the decoder reconstructs
    hidden_width: int = 64
    latent_width: int = 32
    flow_layers: int = 2
    decoder_hidden: int = 128
    dtype: str = "float32"

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass
class EncoderState:
    ids: tuple  # agent ids, or (episode, agent) keys in pre-training
    hidden: Tensor  # (len(ids), hidden_width)


@dataclass
class LatentDistribution:
    mu: Tensor
    log_sigma: Tensor
    latent: Tensor


class NvifEncoder:
    def __init__(self, config: NvifConfig, rng: np.random.Generator, store: ParamStore | None = None):
        self.config = config
        dt = config.np_dtype
        self.store = store if store is not None else ParamStore()
        if store is None:
            c = config
            self.flow_o = init_flownet(
                self.store, "flow_o",
                [c.obs_feat_width] + [c.hidden_width] * c.flow_layers, rng, dt)
            self.flow_h = init_flownet(
                self.store, "flow_h", [c.hidden_width] * (c.flow_layers + 1), rng, dt)
            for name, arr in init_gru(rng, c.hidden_width, c.hidden_width, dt).items():
                self.store.add(f"gru/{name}", arr)
            for head in ("mu", "ls"):
                w, b = init_linear(rng, c.hidden_width, c.latent_width, dt,
                                   scale=np.sqrt(1.0 / c.hidden_width))
                self.store.add(f"head/{head}_w", w)
                self.store.add(f"head/{head}_b", b)
            init_mlp(self.store, "dec/", [c.latent_width + 2, c.decoder_hidden, c.obs_dim],
                     rng, dt, out_scale=np.sqrt(1.0 / c.decoder_hidden))
        else:
            layers = config.flow_layers
            self.flow_o = [self.store[f"flow_o/w{i}"] for i in range(layers)]
            self.flow_h = [self.store[f"flow_h/w{i}"] for i in range(layers)]
        self._gru = {k.split("/", 1)[1]: v for k, v in
                     ((n, self.store[n]) for n in self.store.names() if n.startswith("gru/"))}

    # -- state handling -----------------------------------------------------

    def init_state(self, ids) -> EncoderState:
        ids = tuple(ids)
        zeros = np.zeros((len(ids), self.config.hidden_width), dtype=self.config.np_dtype)
        return EncoderState(ids=ids, hidden=Tensor(zeros))

    def _hidden_for(self, state: EncoderState, ids: tuple) -> Tensor:
        """Rows of the previous hidden state for ``ids``; unseen ids get zeros."""
        if ids == state.ids:
            return state.hidden
        lookup = {agent: row for row, agent in enumerate(state.ids)}
        zero_row = Tensor(np.zeros((1, self.config.hidden_width), dtype=self.config.np_dtype))
        extended = concat([state.hidden, zero_row], axis=0)
        return gather_rows(extended, [lookup.get(a, len(state.ids)) for a in ids])

    # -- forward passes -------------------------------------------------------

    def step(self, feats, state: EncoderState, ids, blocks, *,
             rng: np.random.Generator | None = None):
        """One encoder timestep over the alive agents ``ids``.

        ``blocks`` are the diagonal blocks of the normalized mixing matrix
        over ``ids`` (see :func:`commgraph.normalize`) in row order: one
        block for one episode's graph, one per episode when several are
        stacked. Array ``feats`` are cast to the model dtype. Returns
        (next state, latent distribution). Agents absent from ``ids`` are
        dropped from the state; new ones start from a zero hidden vector.
        The latent is a reparameterized draw with noise from ``rng``.
        """
        ids = tuple(ids)
        feats = feats if isinstance(feats, Tensor) else Tensor(
            np.asarray(feats, dtype=self.config.np_dtype))
        if feats.data.shape[0] != len(ids):
            raise ProtocolError(
                f"encoder step: {feats.data.shape[0]} feature rows for {len(ids)} agents")
        if rng is None:
            raise ProtocolError("encoder step: sampling the latent needs an rng")
        hidden = self._hidden_for(state, ids)
        h_next = flow_gru_cell(blocks, feats, hidden, self.flow_o, self.flow_h, self._gru)
        mu = affine(h_next, self.store["head/mu_w"], self.store["head/mu_b"])
        log_sigma = log_sigma_head(h_next, self.store["head/ls_w"], self.store["head/ls_b"])
        latent = gaussian_sample(mu, log_sigma, rng=rng)
        return EncoderState(ids=ids, hidden=h_next), LatentDistribution(mu, log_sigma, latent)

    def decode(self, latents, positions) -> Tensor:
        """Per-cell Bernoulli logits of the flattened observation windows,
        from latents and normalized positions; the loss takes the logits
        (:func:`diffcore.bce_loss`)."""
        pos = positions if isinstance(positions, Tensor) else Tensor(
            np.asarray(positions, dtype=self.config.np_dtype))
        return mlp(concat([as_tensor(latents), pos], axis=1), self.store, "dec/")

    # -- persistence ----------------------------------------------------------

    def checkpoint_parts(self) -> tuple[dict, dict]:
        return {"encoder": asdict(self.config)}, {"encoder": self.store}

    @classmethod
    def from_checkpoint(cls, meta: dict, stores: dict) -> "NvifEncoder":
        return cls(NvifConfig(**meta["encoder"]), rng=np.random.default_rng(0),
                   store=stores["encoder"])

    def save(self, path):
        save_checkpoint(path, *self.checkpoint_parts())

    @classmethod
    def load(cls, path) -> "NvifEncoder":
        return cls.from_checkpoint(*load_checkpoint(path))
