"""Self-contained policy checkpoints: everything evaluation needs in one
file (observation compressor, optional encoder, actor/critic or Q-network)."""
from __future__ import annotations

from dataclasses import dataclass

from ..diffcore import load_checkpoint, save_checkpoint
from ..errors import ConfigError, DataError
from ..nvif import NvifEncoder, ObsCompressor
from ..policy import ActorCritic, QNetwork


@dataclass
class PolicyBundle:
    algorithm: str
    latent_mode: str
    task: str
    compressor: ObsCompressor
    encoder: NvifEncoder | None = None
    actor_critic: ActorCritic | None = None
    qnet: QNetwork | None = None

    @property
    def kind(self) -> str:
        return "dqn" if self.qnet is not None else "ppo"

    def save(self, path):
        meta = {"algorithm": self.algorithm, "latent_mode": self.latent_mode, "task": self.task}
        stores = {}
        for part in (self.compressor, self.encoder, self.actor_critic, self.qnet):
            if part is not None:
                part_meta, part_stores = part.checkpoint_parts()
                meta |= part_meta
                stores |= part_stores
        save_checkpoint(path, meta, stores)

    @classmethod
    def load(cls, path) -> "PolicyBundle":
        meta, stores = load_checkpoint(path)
        if "algorithm" not in meta:
            raise DataError(f"{path}: not a policy bundle")

        def part(kind, store_name):
            return kind.from_checkpoint(meta, stores) if store_name in stores else None

        return cls(meta["algorithm"], meta["latent_mode"], meta["task"],
                   ObsCompressor.from_checkpoint(meta, stores),
                   encoder=part(NvifEncoder, "encoder"),
                   actor_critic=part(ActorCritic, "actor"), qnet=part(QNetwork, "qnet"))

    def check_task(self, task_cfg):
        if self.compressor.config.obs_dim != task_cfg.obs_dim:
            raise ConfigError(
                f"bundle compressor expects observation width "
                f"{self.compressor.config.obs_dim}, task produces {task_cfg.obs_dim}")
