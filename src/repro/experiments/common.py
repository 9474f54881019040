"""Shared building blocks for the experiment drivers."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..data import DataLoader, SyntheticImageClassification, standard_cifar_augmentation
from ..io.bundle import default_bundle_name, save_bundle
from ..metrics.profiler import ModelProfile, profile_model
from ..nn import CrossEntropyLoss
from ..nn.module import Module
from ..optim import SGD, MultiStepLR, split_parameter_groups
from ..parallel import Task, run_tasks
from ..parallel.executor import raise_on_failure
from ..tensor import Tensor
from ..training import Trainer
from .config import ExperimentScale, scale_to_payload
from .runner import active_bundle_dir

__all__ = [
    "build_image_dataset",
    "describe_image_dataset",
    "classifier_bundle_info",
    "make_trainer",
    "train_image_classifier",
    "profile_classifier",
    "classifier_result_row",
    "run_model_grid",
]


#: One-slot memo for :func:`build_image_dataset`.  Grid cells rebuild "their"
#: dataset from configuration (nothing rich crosses a process boundary), and
#: within one process every cell of a sweep asks for the same configuration —
#: the memo makes that one eager data generation per process, exactly like the
#: old share-one-instance sequential code, while a single slot (rather than an
#: unbounded cache) avoids pinning a paper-scale array set after a sweep moves
#: on to a differently-configured workload.
_DATASET_MEMO: list[tuple[tuple, SyntheticImageClassification]] = []


def build_image_dataset(scale: ExperimentScale, num_classes: int | None = None,
                        image_size: int | None = None, train_size: int | None = None,
                        test_size: int | None = None, seed: int | None = None
                        ) -> SyntheticImageClassification:
    """Create (or reuse) the synthetic image-classification workload for a scale.

    The returned dataset is shared within the process for repeated calls with
    an identical configuration; it is generated deterministically from the
    seed, so sharing never changes results (and training never mutates it).
    """
    config = {
        "num_classes": num_classes if num_classes is not None else scale.num_classes,
        "image_size": image_size if image_size is not None else scale.image_size,
        "train_size": train_size if train_size is not None else scale.train_size,
        "test_size": test_size if test_size is not None else scale.test_size,
        "noise_level": scale.noise_level,
        "seed": seed if seed is not None else scale.seed,
    }
    key = tuple(sorted(config.items()))
    if not _DATASET_MEMO or _DATASET_MEMO[0][0] != key:
        _DATASET_MEMO[:] = [(key, SyntheticImageClassification(**config))]
    return _DATASET_MEMO[0][1]


def describe_image_dataset(scale: ExperimentScale, **overrides) -> dict:
    """The :meth:`describe` dict of :func:`build_image_dataset`'s dataset,
    computed from configuration alone — no images are generated, so drivers
    whose grid cells rebuild their own datasets can report the workload
    without paying for an extra parent-side copy."""
    return SyntheticImageClassification.describe_config(
        num_classes=scale.num_classes, image_size=scale.image_size,
        train_size=scale.train_size, test_size=scale.test_size,
        noise_level=scale.noise_level, seed=scale.seed, **overrides)


def make_trainer(model: Module, scale: ExperimentScale, epochs: int | None = None,
                 learning_rate: float | None = None,
                 quadratic_learning_rate: float | None = None,
                 world_size: int = 1, train_jobs: int | None = None,
                 train_seed: int = 0) -> Trainer:
    """SGD + multi-step schedule trainer with the paper's two-group learning rates.

    ``world_size > 1`` returns a
    :class:`~repro.training.DataParallelTrainer` splitting every batch into
    that many gradient shards, executed by ``train_jobs`` worker processes
    (the worker count never changes the bytes; the shard count does — see
    :mod:`repro.training.distributed`).
    """
    epochs = epochs or scale.epochs
    base_lr = learning_rate if learning_rate is not None else scale.learning_rate
    quadratic_lr = (quadratic_learning_rate if quadratic_learning_rate is not None
                    else scale.quadratic_learning_rate)
    groups = split_parameter_groups(model, base_lr=base_lr, quadratic_lr=quadratic_lr)
    optimizer = SGD(groups, lr=base_lr, momentum=scale.momentum,
                    weight_decay=scale.weight_decay)
    scheduler = MultiStepLR(optimizer, milestones=scale.lr_milestones(epochs), gamma=0.1)
    if world_size > 1:
        from ..training import DataParallelTrainer

        return DataParallelTrainer(model, optimizer, CrossEntropyLoss(),
                                   scheduler=scheduler, world_size=world_size,
                                   workers=train_jobs, seed=train_seed)
    return Trainer(model, optimizer, CrossEntropyLoss(), scheduler=scheduler)


def classifier_bundle_info(dataset: SyntheticImageClassification) -> dict:
    """Serving metadata for a classifier trained on ``dataset``.

    Embedded in every checkpoint/bundle the trainer writes: the raw-pixel
    normalization of the training split, the class labels and the per-sample
    input shape ``repro serve`` needs to validate and preprocess requests.
    """
    return {
        "normalization": dict(dataset.train_normalization),
        "classes": [f"class_{index}" for index in range(dataset.num_classes)],
        "input_shape": [dataset.channels, dataset.image_size, dataset.image_size],
    }


def train_image_classifier(model: Module, dataset: SyntheticImageClassification,
                           scale: ExperimentScale, epochs: int | None = None,
                           learning_rate: float | None = None,
                           quadratic_learning_rate: float | None = None,
                           bundle_dir: str | Path | None = None) -> tuple[Trainer, dict]:
    """Train ``model`` on ``dataset`` and return the trainer plus final test metrics.

    When a bundle directory is active — passed explicitly, or ambiently set by
    the experiment runner for the duration of a sweep — the trained model is
    additionally saved there as a self-describing bundle (weights + model spec
    + normalization stats), under a deterministic name, so every experiment's
    models come out directly servable by ``repro predict`` / ``repro serve``.
    """
    epochs = epochs or scale.epochs
    loader = DataLoader(dataset.train_images, dataset.train_labels,
                        batch_size=scale.batch_size, shuffle=True,
                        augmentation=standard_cifar_augmentation(scale.augmentation_padding),
                        seed=scale.seed)
    trainer = make_trainer(model, scale, epochs=epochs, learning_rate=learning_rate,
                           quadratic_learning_rate=quadratic_learning_rate)
    trainer.bundle_info = classifier_bundle_info(dataset)
    trainer.fit(loader, epochs, eval_inputs=dataset.test_images,
                eval_targets=dataset.test_labels)
    final = trainer.evaluate(dataset.test_images, dataset.test_labels) \
        if not trainer.diverged else {"loss": float("inf"), "accuracy": 0.0}

    bundle_dir = Path(bundle_dir) if bundle_dir is not None else active_bundle_dir()
    if bundle_dir is not None and getattr(model, "model_spec", None) is not None:
        # Training knobs never reach the model constructor, so they go into
        # the filename digest: two cells training an identical architecture
        # under different recipes must not overwrite each other's bundle.
        # ``"augment": True`` is a constant, kept in the digest because the
        # bundle names already recorded in artifacts hash it.
        discriminator = {"epochs": epochs, "learning_rate": learning_rate,
                         "quadratic_learning_rate": quadratic_learning_rate,
                         "augment": True, "scale_seed": scale.seed}
        save_bundle(bundle_dir / default_bundle_name(model, discriminator), model,
                    info={**trainer.bundle_info,
                          "metrics": {"test_loss": final["loss"],
                                      "test_accuracy": final["accuracy"]},
                          "diverged": trainer.diverged})
    return trainer, final


def profile_classifier(model: Module, dataset: SyntheticImageClassification) -> ModelProfile:
    """Parameter/MAC profile of an image classifier for the dataset's geometry."""
    example = Tensor(dataset.test_images[:1])
    return profile_model(model, example)


def run_model_grid(experiment: str, task_fn: str, cells: list[dict],
                   scale: ExperimentScale, jobs: int | str | None = None) -> list[dict]:
    """Fan a per-model training grid out through the parallel executor.

    ``task_fn`` is a dotted ``"module:function"`` reference to a *top-level*
    function taking ``(scale, **cell)`` — with ``scale`` delivered as a
    :func:`~repro.experiments.config.scale_to_payload` dict — and returning a
    JSON-safe result row.  ``cells`` are the grid coordinates (one kwargs dict
    per model).  Results come back in grid order regardless of completion
    order, and each task seeds the global RNGs deterministically from the
    scale seed and its cell key, so a parallel grid is byte-identical to the
    sequential one.

    ``jobs=None`` defers to ``$REPRO_JOBS`` (set by ``run_many`` / the CLI);
    inside a pool worker the grid is clamped to sequential execution rather
    than nesting pools.  A cell that crashes is retried once and then raises
    :class:`~repro.parallel.executor.ParallelTaskError`, surfacing as *this
    experiment's* failure in the surrounding sweep instead of aborting it.
    """
    payload = scale_to_payload(scale)

    def cell_key(cell: dict) -> str:
        parts = "/".join(f"{name}={cell[name]}" for name in sorted(cell))
        return f"{experiment}[{parts}]"

    tasks = [Task(key=cell_key(cell), fn=task_fn,
                  kwargs={"scale": payload, **cell}) for cell in cells]
    results = run_tasks(tasks, jobs=jobs, retries=1, seed=scale.seed)
    raise_on_failure(results)
    return [result.value for result in results]


def classifier_result_row(label: str, depth: int, neuron_type: str, profile: ModelProfile,
                          metrics: dict, trainer: Trainer) -> dict:
    """Standard row schema shared by the Fig. 4 / Fig. 5 sweeps."""
    return {
        "model": label,
        "depth": depth,
        "neuron": neuron_type,
        "test_accuracy": metrics["accuracy"],
        "best_train_accuracy": trainer.history.best("train_accuracy") or 0.0,
        "parameters": profile.total_parameters,
        "macs": profile.total_macs,
        "parameters_millions": profile.parameters_millions,
        "macs_millions": profile.macs_millions,
        "diverged": trainer.diverged,
    }
