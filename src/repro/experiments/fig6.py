"""Fig. 6 — training stability: proposed neuron vs kervolutional neurons (KNN-n).

The paper trains ResNet-18 on ImageNet with (a) the proposed quadratic neuron
in every convolution and (b) kervolutional neurons [14] deployed only in the
first n ∈ {3, 7, 11, 15} layers.  With few kervolutional layers training is
stable; with many, the loss fluctuates heavily and eventually diverges, while
the proposed neuron trains stably everywhere.

:func:`run` reproduces the study on the synthetic ImageNet stand-in with a
scaled ResNet-18: every configuration is trained with the same recipe, per-
epoch curves are recorded, and divergence / fluctuation statistics are
summarized through :mod:`repro.analysis.stability`.
"""

from __future__ import annotations

from ..analysis.stability import StabilityReport, analyze_history, compare_stability
from ..data import DataLoader, SyntheticImageClassification
from ..models import ResNet18
from .common import make_trainer
from .config import ExperimentScale, get_scale
from .reporting import format_table

__all__ = ["run", "stability_configurations"]


def stability_configurations(scale: ExperimentScale) -> list[dict]:
    """The Fig. 6 model configurations: proposed everywhere, KNN in the first n layers."""
    configurations = [{
        "label": "Ours",
        "neuron_type": "proposed",
        "first_n": None,
        "neuron_kwargs": {},
    }]
    for first_n in scale.kervolution_first_n:
        configurations.append({
            "label": f"KNN-{first_n}",
            "neuron_type": "kervolution",
            "first_n": int(first_n),
            "neuron_kwargs": {"degree": scale.kervolution_degree},
        })
    return configurations


def run(scale: ExperimentScale | None = None) -> dict:
    """Train every stability configuration and return curves plus stability reports."""
    scale = scale or get_scale("bench")
    dataset = SyntheticImageClassification(
        num_classes=scale.stability_num_classes,
        image_size=scale.stability_image_size,
        train_size=scale.stability_train_size,
        test_size=max(scale.stability_train_size // 4, 32),
        seed=scale.seed + 7)

    curves: dict[str, list[dict]] = {}
    reports: list[StabilityReport] = []
    for configuration in stability_configurations(scale):
        model = ResNet18(num_classes=scale.stability_num_classes,
                         neuron_type=configuration["neuron_type"],
                         rank=scale.rank,
                         base_width=scale.stability_base_width,
                         neuron_first_n=configuration["first_n"],
                         neuron_kwargs=configuration["neuron_kwargs"],
                         seed=scale.seed)
        loader = DataLoader(dataset.train_images, dataset.train_labels,
                            batch_size=scale.batch_size, shuffle=True, seed=scale.seed)
        # The stability study deliberately uses the plain high learning rate of
        # the ImageNet recipe with no gradient clipping, so instability shows.
        trainer = make_trainer(model, scale, epochs=scale.stability_epochs,
                               learning_rate=scale.learning_rate,
                               quadratic_learning_rate=scale.quadratic_learning_rate)
        trainer.fit(loader, scale.stability_epochs,
                    eval_inputs=dataset.test_images, eval_targets=dataset.test_labels,
                    stop_on_divergence=False)
        curves[configuration["label"]] = trainer.history.to_list()
        reports.append(analyze_history(trainer.history, label=configuration["label"]))

    report_rows = [report.as_dict() for report in reports]
    return {
        "curves": curves,
        "reports": report_rows,
        "comparison": compare_stability(reports),
        "report": format_table(report_rows,
                               columns=["label", "diverged", "divergence_epoch",
                                        "loss_fluctuation", "max_loss",
                                        "best_train_accuracy", "eval_extreme_values"]),
        "scale": scale.name,
    }


from .registry import register

register(name="fig6", artifact="Fig. 6",
         title="Training stability: proposed neuron vs kervolutional KNN-n",
         runner=run, version=2)


def main(scale_name: str = "bench") -> None:
    """Command-line entry point: print the Fig. 6 stability comparison."""
    result = run(get_scale(scale_name))
    print("Fig. 6 — training stability (proposed vs KNN-n)")
    print(result["report"])
    print()
    print("stable:", ", ".join(result["comparison"]["stable"]))
    print("diverged:", ", ".join(result["comparison"]["diverged"]) or "(none)")


if __name__ == "__main__":
    main()
