"""Mutual distillation between peer classifiers on a hand-rolled tape engine."""

from .autodiff import AutodiffError, Tensor, backward
from .losses import LossWeights, TupleSets, total_loss
from .models import NetworkConfig, PeerNetwork, init_network, load_checkpoint, save_checkpoint
from .trainer import TrainConfig, TrainingDivergence

__version__ = "0.1.0"

__all__ = [
    "AutodiffError",
    "Tensor",
    "backward",
    "LossWeights",
    "TupleSets",
    "total_loss",
    "NetworkConfig",
    "PeerNetwork",
    "init_network",
    "load_checkpoint",
    "save_checkpoint",
    "TrainConfig",
    "TrainingDivergence",
    "__version__",
]
