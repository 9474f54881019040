"""Optimizers and learning-rate schedules."""

from .optimizer import Optimizer, split_parameter_groups
from .sgd import SGD
from .adam import Adam
from .lr_scheduler import LRScheduler, MultiStepLR, NoamLR

__all__ = [
    "Optimizer",
    "split_parameter_groups",
    "SGD",
    "Adam",
    "LRScheduler",
    "MultiStepLR",
    "NoamLR",
]
