"""Table II — machine translation with baseline and quadratic Transformers.

The paper replaces every linear projection in the multi-head attention blocks
of a Transformer with the proposed quadratic neuron, trains on WMT14
English→German, and evaluates BLEU on newstest2014 under four settings
(13a / international tokenization × cased / uncased).  Because each quadratic
neuron produces ``k + 1`` outputs, the quadratic Transformer needs a smaller
model dimension for the same effective width, cutting parameters (and, since
Transformer FLOPs ≈ 2 × parameters per token, computation) by ≈20 % while
matching or beating the baseline BLEU.  Three learning rates for the
quadratic parameters Λᵏ (1e-4, 1e-5, 1e-6) are compared.

:func:`run` reproduces the experiment on the synthetic translation task: it
trains the baseline and the three quadratic variants, scores BLEU under all
four evaluation settings and reports the parameter reduction.
"""

from __future__ import annotations

from ..data import SyntheticTranslationTask
from ..io.bundle import default_bundle_name, save_bundle
from ..metrics.bleu import EVALUATION_SETTINGS
from ..models import Transformer
from ..nn import LabelSmoothingLoss
from ..optim import Adam, split_parameter_groups
from ..training import Seq2SeqTrainer
from .config import ExperimentScale, get_scale
from .reporting import format_table, relative_change
from .runner import active_bundle_dir

__all__ = ["run", "build_transformer", "train_translation_model",
           "save_translation_bundle"]


def _scaled_dim(dim: int, scale_factor: float, multiple_of: int) -> int:
    """Scale ``dim`` and round to the nearest positive multiple of ``multiple_of``."""
    scaled = max(multiple_of, int(round(dim * scale_factor / multiple_of)) * multiple_of)
    return scaled


def build_transformer(task: SyntheticTranslationTask, scale: ExperimentScale,
                      neuron_type: str = "linear") -> Transformer:
    """Build the baseline or quadratic Transformer for the translation task.

    The quadratic variant uses a reduced model/hidden dimension (the paper's
    mechanism for the ≈20 % parameter saving) and the proposed neuron in all
    attention projections.
    """
    if neuron_type == "linear":
        model_dim = scale.transformer_dim
        hidden_dim = scale.transformer_hidden
    else:
        model_dim = _scaled_dim(scale.transformer_dim, scale.quadratic_dim_scale,
                                scale.transformer_heads)
        hidden_dim = _scaled_dim(scale.transformer_hidden, scale.quadratic_dim_scale, 2)
    return Transformer(
        src_vocab_size=len(task.source_vocab),
        tgt_vocab_size=len(task.target_vocab),
        model_dim=model_dim,
        num_heads=scale.transformer_heads,
        num_layers=scale.transformer_layers,
        hidden_dim=hidden_dim,
        max_len=task.max_len,
        neuron_type=neuron_type,
        rank=scale.transformer_rank,
        pad_id=task.pad_id,
        seed=scale.seed,
    )


def train_translation_model(model: Transformer, task: SyntheticTranslationTask,
                            scale: ExperimentScale, quadratic_lr: float = 1e-4,
                            base_lr: float = 3e-3) -> Seq2SeqTrainer:
    """Train a translation model with label smoothing and per-group learning rates."""
    groups = split_parameter_groups(model, base_lr=base_lr, quadratic_lr=quadratic_lr)
    optimizer = Adam(groups, lr=base_lr)
    loss_fn = LabelSmoothingLoss(smoothing=0.1, ignore_index=task.pad_id)
    trainer = Seq2SeqTrainer(model, optimizer, loss_fn, seed=scale.seed)
    trainer.fit(task, epochs=scale.translation_epochs,
                batch_size=scale.translation_batch_size)
    return trainer


def save_translation_bundle(model: Transformer, task: SyntheticTranslationTask,
                            discriminator: dict | None = None,
                            bundle_dir=None) -> str | None:
    """Save ``model`` as a *servable generation bundle* when a bundle
    directory is active (or passed explicitly).

    The bundle carries a ``generation`` section — delimiter ids, position
    budget and both vocabularies — so ``repro.load`` returns a
    :class:`~repro.serve.generate.GenerationPredictor` for it and
    ``repro serve`` exposes ``POST /v1/models/<name>/generate``.  Returns
    the bundle filename (relative use is the runner's concern) or ``None``
    when no directory is active.
    """
    from ..serve.generate import generation_bundle_info

    bundle_dir = bundle_dir if bundle_dir is not None else active_bundle_dir()
    if bundle_dir is None or getattr(model, "model_spec", None) is None:
        return None
    name = default_bundle_name(model, discriminator)
    save_bundle(bundle_dir / name, model,
                info={"generation": generation_bundle_info(task),
                      "task": task.describe()})
    return name


def run(scale: ExperimentScale | None = None) -> dict:
    """Train the Table II models and return BLEU rows plus the parameter comparison."""
    scale = scale or get_scale("bench")
    task = SyntheticTranslationTask(train_size=scale.translation_train_size,
                                    test_size=scale.translation_test_size,
                                    seed=scale.seed + 31)

    # Baseline Transformer with linear neurons.
    baseline = build_transformer(task, scale, neuron_type="linear")
    baseline_trainer = train_translation_model(baseline, task, scale)
    baseline_bleu = baseline_trainer.evaluate_bleu(task)
    baseline_params = baseline.num_parameters()
    save_translation_bundle(baseline, task,
                            discriminator={"neuron": "linear",
                                           "scale_seed": scale.seed})

    # Quadratic Transformers with different Λ learning rates.
    quadratic_results = {}
    quadratic_params = None
    for quadratic_lr in scale.transformer_lambda_lrs:
        model = build_transformer(task, scale, neuron_type="proposed")
        trainer = train_translation_model(model, task, scale, quadratic_lr=quadratic_lr)
        quadratic_results[quadratic_lr] = trainer.evaluate_bleu(task)
        quadratic_params = model.num_parameters()
        save_translation_bundle(model, task,
                                discriminator={"neuron": "proposed",
                                               "quadratic_lr": quadratic_lr,
                                               "scale_seed": scale.seed})

    # Table II layout: one row per evaluation setting.
    rows = []
    for tokenization, cased in EVALUATION_SETTINGS:
        row = {
            "tokenization": tokenization,
            "cased": cased,
            "baseline": baseline_bleu[(tokenization, cased)],
        }
        for quadratic_lr in scale.transformer_lambda_lrs:
            row[f"quadratic_{quadratic_lr:.0e}"] = \
                quadratic_results[quadratic_lr][(tokenization, cased)]
        rows.append(row)

    parameter_row = {
        "baseline_parameters": baseline_params,
        "quadratic_parameters": quadratic_params,
        "parameter_change": relative_change(quadratic_params, baseline_params),
    }
    best_quadratic = max(
        max(result[setting] for setting in EVALUATION_SETTINGS)
        for result in quadratic_results.values())
    return {
        "rows": rows,
        "parameters": parameter_row,
        "baseline_bleu": {key: value for key, value in baseline_bleu.items()
                          if key != "hypotheses"},
        "quadratic_bleu": {lr: {key: value for key, value in result.items()
                                if key != "hypotheses"}
                           for lr, result in quadratic_results.items()},
        "best_quadratic_bleu": best_quadratic,
        "report": format_table(rows),
        "scale": scale.name,
        "task": task.describe(),
    }


from .registry import register

register(name="table2", artifact="Table II",
         title="Transformer translation BLEU and parameter cost",
         runner=run)


def main(scale_name: str = "bench") -> None:
    """Command-line entry point: print the Table II reproduction."""
    result = run(get_scale(scale_name))
    print("Table II — translation BLEU and parameter cost")
    print(result["report"])
    print()
    parameters = result["parameters"]
    print(f"baseline parameters:  {parameters['baseline_parameters']:,}")
    print(f"quadratic parameters: {parameters['quadratic_parameters']:,} "
          f"({parameters['parameter_change'] * 100:+.1f}%)")


if __name__ == "__main__":
    main()
