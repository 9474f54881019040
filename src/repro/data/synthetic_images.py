"""Synthetic image-classification datasets (CIFAR-10 / CIFAR-100 / ImageNet stand-ins).

The paper's image experiments compare *neuron types* on CIFAR-10, CIFAR-100
and ImageNet.  Those datasets cannot be downloaded in this offline
environment, so this module generates deterministic, class-structured images
whose decision structure deliberately mixes:

* **first-order cues** — class-specific spatial prototypes (oriented
  sinusoidal gratings plus a soft elliptical shape mask), which a linear
  neuron can pick up; and
* **second-order cues** — classes that share the *same* mean prototype but
  differ in texture contrast / variance (the label depends on products of
  latent factors), which reward neurons able to model interactions between
  inputs, i.e. exactly the quadratic structure the paper exploits.

This preserves the qualitative comparison of the paper (quadratic neurons
match or beat linear neurons of larger size) while every parameter/FLOP
number reported by the benchmarks remains exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SyntheticImageClassification"]


@dataclass
class SyntheticImageClassification:
    """Deterministic synthetic image-classification dataset.

    Attributes (populated on construction)
    --------------------------------------
    train_images / test_images:
        Float32 arrays of shape ``(N, channels, image_size, image_size)``
        normalized to roughly zero mean and unit variance.
    train_labels / test_labels:
        Int64 class labels.
    """

    num_classes: int = 10
    image_size: int = 16
    channels: int = 3
    train_size: int = 512
    test_size: int = 128
    noise_level: float = 0.35
    second_order_fraction: float = 0.5
    seed: int = 0

    train_images: np.ndarray = field(init=False, repr=False)
    train_labels: np.ndarray = field(init=False, repr=False)
    test_images: np.ndarray = field(init=False, repr=False)
    test_labels: np.ndarray = field(init=False, repr=False)
    #: Normalization applied to the train split (``{"mean": ..., "std": ...}``
    #: of the raw pixel values).  Serving pipelines embed this in model
    #: bundles so raw inference inputs can be normalized the same way the
    #: training data was.
    train_normalization: dict = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self._prototypes, self._texture_signs = self._build_class_structure(rng)
        self.train_images, self.train_labels, self.train_normalization = \
            self._sample_split(rng, self.train_size)
        self.test_images, self.test_labels, _ = self._sample_split(rng, self.test_size)

    # -- class structure ------------------------------------------------------

    def _build_class_structure(self, rng: np.random.Generator):
        """Create per-class prototypes and the second-order texture assignments."""
        size = self.image_size
        ys, xs = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")

        num_second_order = int(round(self.num_classes * self.second_order_fraction))
        num_first_order = self.num_classes - num_second_order

        prototypes = np.zeros((self.num_classes, self.channels, size, size), dtype=np.float32)
        texture_signs = np.zeros(self.num_classes, dtype=np.float32)

        # First-order classes: unique oriented grating + elliptical blob + colour.
        for class_index in range(num_first_order):
            angle = np.pi * class_index / max(num_first_order, 1)
            frequency = 2.0 + 1.5 * (class_index % 3)
            grating = np.sin(frequency * np.pi * (xs * np.cos(angle) + ys * np.sin(angle)))
            center_x, center_y = rng.uniform(-0.4, 0.4, size=2)
            radius = rng.uniform(0.35, 0.7)
            blob = np.exp(-(((xs - center_x) ** 2 + (ys - center_y) ** 2) / radius ** 2))
            pattern = 0.7 * grating + 0.8 * blob
            colour = rng.uniform(0.4, 1.0, size=self.channels)
            prototypes[class_index] = colour[:, None, None] * pattern

        # Second-order classes: pairs share a mean prototype but differ in the
        # *sign of the texture correlation* between channels / neighbouring
        # pixels — only products of inputs separate them.
        shared_rng = np.random.default_rng(self.seed + 1000)
        for pair_offset in range(num_second_order):
            class_index = num_first_order + pair_offset
            pair_id = pair_offset // 2
            angle = np.pi * (pair_id + 0.5) / max(num_second_order, 1)
            grating = np.sin(3.0 * np.pi * (xs * np.cos(angle) + ys * np.sin(angle)))
            shared_colour = shared_rng.uniform(0.4, 1.0, size=self.channels)
            prototypes[class_index] = 0.4 * shared_colour[:, None, None] * grating
            texture_signs[class_index] = 1.0 if pair_offset % 2 == 0 else -1.0

        self._texture_pattern = np.sin(4.0 * np.pi * xs) * np.sin(4.0 * np.pi * ys)
        return prototypes, texture_signs

    # -- sampling ---------------------------------------------------------------

    def _sample_split(self, rng: np.random.Generator, count: int):
        labels = rng.integers(0, self.num_classes, size=count).astype(np.int64)
        images = np.zeros((count, self.channels, self.image_size, self.image_size),
                          dtype=np.float32)
        for index, label in enumerate(labels):
            images[index] = self._sample_image(rng, int(label))
        # Global normalization (per-dataset mean/std, like CIFAR preprocessing).
        mean = images.mean()
        std = images.std() + 1e-8
        images = (images - mean) / std
        normalization = {"mean": float(mean), "std": float(std)}
        return images.astype(np.float32), labels, normalization

    def _sample_image(self, rng: np.random.Generator, label: int) -> np.ndarray:
        amplitude = rng.uniform(0.7, 1.3)
        image = amplitude * self._prototypes[label].copy()

        sign = self._texture_signs[label]
        if sign != 0.0:
            # Second-order cue: a zero-mean latent factor multiplies the texture
            # pattern identically (sign +1) or with alternating channel sign
            # (sign -1).  The *mean* contribution is zero either way; only the
            # correlation between channels carries the label.
            latent = rng.standard_normal()
            channel_signs = np.ones(self.channels) if sign > 0 else \
                np.array([(-1.0) ** c for c in range(self.channels)])
            image += 0.9 * latent * channel_signs[:, None, None] * self._texture_pattern

        image += self.noise_level * rng.standard_normal(image.shape)
        return image

    # -- convenience -------------------------------------------------------------

    def __len__(self) -> int:
        return self.train_size

    #: Configuration fields reported by :meth:`describe` (in report order).
    DESCRIBE_KEYS = ("num_classes", "image_size", "channels", "train_size",
                     "test_size", "noise_level", "second_order_fraction", "seed")

    def describe(self) -> dict:
        """Summary of the dataset configuration (used in experiment reports)."""
        return {key: getattr(self, key) for key in self.DESCRIBE_KEYS}

    @classmethod
    def describe_config(cls, **overrides) -> dict:
        """The :meth:`describe` dictionary for a configuration, without
        generating any data — construction eagerly samples every image, which
        experiment drivers that only need the description should skip."""
        from dataclasses import fields

        config = {f.name: f.default for f in fields(cls) if f.init}
        config.update(overrides)
        return {key: config[key] for key in cls.DESCRIBE_KEYS}
