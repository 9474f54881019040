"""Data substrate: synthetic image classification, augmentation, loaders, translation."""

from .synthetic_images import SyntheticImageClassification
from .augmentation import (
    random_crop,
    random_horizontal_flip,
    Compose,
    standard_cifar_augmentation,
)
from .dataloader import DataLoader
from .vocabulary import Vocabulary, PAD_ID, BOS_ID, EOS_ID, UNK_ID
from .translation import SyntheticTranslationTask, TranslationPair

__all__ = [
    "SyntheticImageClassification",
    "random_crop",
    "random_horizontal_flip",
    "Compose",
    "standard_cifar_augmentation",
    "DataLoader",
    "Vocabulary",
    "PAD_ID",
    "BOS_ID",
    "EOS_ID",
    "UNK_ID",
    "SyntheticTranslationTask",
    "TranslationPair",
]
