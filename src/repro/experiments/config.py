"""Experiment scales.

Every experiment driver accepts an :class:`ExperimentScale` that fixes the
dataset size, image resolution, network width and training budget.  Three
presets are provided:

* ``smoke``  — seconds per experiment; used by the test suite.
* ``bench``  — a couple of minutes for the full sweep on a laptop CPU;
  large enough for the paper's qualitative trends to emerge.
* ``paper``  — the closest practical approximation of the paper's settings
  (full CIFAR-style widths and depths).  Training at this scale on the NumPy
  substrate takes hours and is not run in CI; the preset exists so the exact
  architecture/cost numbers of the paper can be reproduced analytically and
  so that users with time to spare can launch the full runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

__all__ = ["ExperimentScale", "SCALES", "get_scale",
           "scale_to_payload", "scale_from_payload"]


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs that trade fidelity against runtime."""

    name: str
    # Image-classification workload.
    image_size: int = 12
    num_classes: int = 10
    train_size: int = 320
    test_size: int = 96
    batch_size: int = 32
    epochs: int = 20
    base_width: int = 4
    resnet_depths: tuple[int, ...] = (8, 14, 20)
    rank: int = 3
    noise_level: float = 0.3
    learning_rate: float = 0.1
    quadratic_learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_milestone_fractions: tuple[float, ...] = (0.5, 0.75)
    augmentation_padding: int = 2
    # Stability study (Fig. 6).
    stability_image_size: int = 12
    stability_num_classes: int = 8
    stability_train_size: int = 192
    stability_epochs: int = 5
    stability_base_width: int = 4
    kervolution_degree: int = 3
    kervolution_first_n: tuple[int, ...] = (3, 7, 11)
    # Transformer workload (Table II).
    translation_train_size: int = 384
    translation_test_size: int = 64
    translation_epochs: int = 12
    translation_batch_size: int = 32
    transformer_dim: int = 48
    transformer_heads: int = 4
    transformer_layers: int = 2
    transformer_hidden: int = 96
    transformer_rank: int = 5
    quadratic_dim_scale: float = 0.9
    transformer_lambda_lrs: tuple[float, ...] = (1e-4, 1e-5, 1e-6)
    # Analysis experiments (Figs. 7 and 8).
    analysis_epochs: int = 4
    analysis_num_classes: int = 10
    # Misc.
    seed: int = 0

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def lr_milestones(self, epochs: int | None = None) -> list[int]:
        """Concrete milestone epochs from the milestone fractions."""
        epochs = epochs or self.epochs
        return [max(1, int(round(fraction * epochs)))
                for fraction in self.lr_milestone_fractions]


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        image_size=10,
        train_size=96,
        test_size=48,
        epochs=2,
        base_width=4,
        resnet_depths=(8, 14),
        rank=3,
        stability_train_size=96,
        stability_epochs=2,
        kervolution_first_n=(3, 7),
        translation_train_size=128,
        translation_test_size=32,
        translation_epochs=3,
        transformer_dim=32,
        transformer_hidden=64,
        analysis_epochs=2,
    ),
    "bench": ExperimentScale(name="bench"),
    "paper": ExperimentScale(
        name="paper",
        image_size=32,
        train_size=50_000,
        test_size=10_000,
        batch_size=128,
        epochs=180,
        base_width=16,
        resnet_depths=(20, 32, 44, 56, 110),
        rank=9,
        noise_level=0.35,
        learning_rate=0.1,
        quadratic_learning_rate=1e-4,
        lr_milestone_fractions=(0.5, 0.75),
        augmentation_padding=4,
        stability_image_size=64,
        stability_num_classes=1000,
        stability_train_size=1_281_167,
        stability_epochs=100,
        stability_base_width=64,
        kervolution_first_n=(3, 7, 11, 15),
        translation_train_size=4_500_000,
        translation_test_size=3003,
        translation_epochs=20,
        transformer_dim=512,
        transformer_heads=8,
        transformer_layers=6,
        transformer_hidden=2048,
        transformer_rank=9,
        analysis_epochs=250,
    ),
}


def get_scale(name: str = "bench") -> ExperimentScale:
    """Look up a preset scale by name."""
    if name not in SCALES:
        raise KeyError(f"unknown scale '{name}'; available: {sorted(SCALES)}")
    return SCALES[name]


#: Fields whose values are tuples (payload round-trips turn them into lists).
_TUPLE_FIELDS = frozenset(f.name for f in fields(ExperimentScale)
                          if isinstance(getattr(SCALES["bench"], f.name), tuple))


def scale_to_payload(scale: ExperimentScale) -> dict:
    """Flatten a scale into primitives that survive pickling / JSON transport.

    Parallel workers receive scales in this form so nothing richer than
    dicts, lists and scalars ever crosses a process boundary.
    """
    return asdict(scale)


def scale_from_payload(payload: "ExperimentScale | str | dict") -> ExperimentScale:
    """Rebuild an :class:`ExperimentScale` from whatever crossed the boundary.

    Accepts an already-live scale, a preset name, or a
    :func:`scale_to_payload` dictionary (tuple-valued fields are restored so
    the rebuilt scale compares — and content-hashes — equal to the original).
    """
    if isinstance(payload, ExperimentScale):
        return payload
    if isinstance(payload, str):
        return get_scale(payload)
    restored = {key: tuple(value) if key in _TUPLE_FIELDS and isinstance(value, list)
                else value for key, value in payload.items()}
    return ExperimentScale(**restored)
