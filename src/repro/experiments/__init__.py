"""Experiment drivers: one module per table / figure of the paper.

===========  ==================================================================
Module       Paper artifact
===========  ==================================================================
``table1``   Table I  — neuron parameter/MAC complexity
``fig4``     Fig. 4   — linear vs proposed ResNets on CIFAR-10 (accuracy vs cost)
``fig5``     Fig. 5   — proposed vs prior quadratic neurons (Quad-1 / Quad-2)
``fig6``     Fig. 6   — training stability vs kervolutional neurons (KNN-n)
``table2``   Table II — Transformer translation BLEU and parameter cost
``fig7``     Fig. 7   — linear vs quadratic parameter distributions per layer
``fig8``     Fig. 8   — linear vs quadratic neuron response analysis
``ablation`` Extra    — rank-k sweep and vectorized-output ablation
===========  ==================================================================
"""

from . import ablation, fig4, fig5, fig6, fig7, fig8, table1, table2
from .config import ExperimentScale, SCALES, get_scale
from .registry import ExperimentSpec, all_specs, experiment_names, get_spec, register
from .reporting import SweepReporter, format_table, relative_change
from .runner import ExperimentOutcome, config_hash, run_experiment, run_many

__all__ = [
    "ablation",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "ExperimentSpec",
    "register",
    "get_spec",
    "experiment_names",
    "all_specs",
    "ExperimentOutcome",
    "SweepReporter",
    "config_hash",
    "run_experiment",
    "run_many",
    "format_table",
    "relative_change",
]
