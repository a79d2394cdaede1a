"""Communication protocol: encoder, decoder, losses, and pre-training."""
from .encoder import LatentDistribution, NvifConfig, NvifEncoder, init_flownet
from .losses import NvifLossReport, kl_standard_normal
from .obs_vae import ObsCompressor, ObsCorpus, ObsVaeConfig, ObsVaeHyper
from .pretrain import (
    EpisodeRecord,
    PretrainHyper,
    StepData,
    collect_pretrain_buffer,
    gather_step_data,
    pretrain,
)

__all__ = [
    "EpisodeRecord", "LatentDistribution",
    "NvifConfig", "NvifEncoder", "NvifLossReport", "ObsCompressor",
    "ObsCorpus", "ObsVaeConfig", "ObsVaeHyper", "PretrainHyper", "StepData",
    "collect_pretrain_buffer", "gather_step_data",
    "init_flownet", "kl_standard_normal", "pretrain",
]
