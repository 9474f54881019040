"""Whole-model parameter and MAC profiler.

The Fig. 4 / Fig. 5 sweeps plot accuracy against the number of parameters and
the number of multiply-accumulate operations (MACs, reported by the paper as
"FLOPs/MMacs").  This profiler runs a single forward pass and records every
neuron layer's output shape through a forward hook.  A neuron layer is one
whose class names its Table I formula in ``neuron_formula`` (a key of
:data:`repro.quadratic.complexity.NEURON_FORMULAS`); every layer's MACs then
follow one rule — output positions × neurons ×
``neuron_complexity(neuron_formula, fan_in, rank).macs`` — so the counts are
exact and consistent with :mod:`repro.quadratic.complexity`.

As in the paper, only the neuron layers (convolutions and dense projections)
are counted; normalization, activation, pooling and embedding costs are
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..nn.module import Module
from ..quadratic.complexity import neuron_complexity
from ..tensor import no_grad

__all__ = ["LayerProfile", "ModelProfile", "profile_model"]


@dataclass
class LayerProfile:
    """Cost record of a single neuron layer."""

    name: str
    layer_type: str
    parameters: int
    macs: int
    output_shape: tuple


@dataclass
class ModelProfile:
    """Aggregated cost of a model for one input geometry."""

    layers: list[LayerProfile] = field(default_factory=list)
    total_parameters: int = 0
    total_macs: int = 0

    @property
    def parameters_millions(self) -> float:
        return self.total_parameters / 1e6

    @property
    def macs_millions(self) -> float:
        return self.total_macs / 1e6

    def as_rows(self) -> list[dict]:
        return [{
            "name": layer.name,
            "type": layer.layer_type,
            "parameters": layer.parameters,
            "macs": layer.macs,
            "output_shape": layer.output_shape,
        } for layer in self.layers]

    def summary(self) -> str:
        return (f"{self.total_parameters:,} parameters "
                f"({self.parameters_millions:.3f} M), "
                f"{self.total_macs:,} MACs ({self.macs_millions:.3f} MMac)")


def _layer_macs(module: Module, output_shape: tuple) -> int:
    """Output positions × neurons × the per-neuron MACs of Table I.

    The proposed layers count their neurons (``num_filters`` /
    ``num_neurons``), each emitting ``k + 1`` outputs; every other layer has
    one neuron per output channel or feature.
    """
    if len(output_shape) == 4:
        positions = output_shape[2] * output_shape[3]
    elif len(output_shape) == 3:
        positions = output_shape[1]
    else:
        positions = 1
    if hasattr(module, "in_features"):
        fan_in = module.in_features
        neurons = getattr(module, "num_neurons", module.out_features)
    else:
        fan_in = module.in_channels * module.kernel_size ** 2
        neurons = getattr(module, "num_filters", module.out_channels)
    cost = neuron_complexity(module.neuron_formula, fan_in, getattr(module, "rank", 1))
    return int(positions * neurons * cost.macs)


def profile_model(model: Module, *example_inputs, forward_fn=None) -> ModelProfile:
    """Profile ``model`` by running one forward pass on ``example_inputs``.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`.
    example_inputs:
        Arguments passed to the model (a single batch; batch size 1 is enough).
    forward_fn:
        Optional callable ``forward_fn(model, *example_inputs)`` when the model
        is not invoked as ``model(*example_inputs)``.

    Returns
    -------
    :class:`ModelProfile` with per-layer and total parameter / MAC counts.
    """
    records: list[tuple[str, Module, tuple]] = []
    hooked: list[tuple[Module, object]] = []

    for name, module in model.named_modules():
        if module.neuron_formula is None:
            continue

        def hook(mod, inputs, output, _name=name):
            records.append((_name, mod, output.shape))

        module.register_forward_hook(hook)
        hooked.append((module, hook))

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            if forward_fn is not None:
                forward_fn(model, *example_inputs)
            else:
                model(*example_inputs)
    finally:
        for module, hook in hooked:
            module.remove_forward_hook(hook)
        model.train(was_training)

    profile = ModelProfile()
    for name, module, output_shape in records:
        macs = _layer_macs(module, output_shape)
        profile.layers.append(LayerProfile(
            name=name,
            layer_type=type(module).__name__,
            parameters=module.num_parameters(),
            macs=macs,
            output_shape=tuple(output_shape)))
        profile.total_macs += macs
    profile.total_parameters = model.num_parameters()
    return profile
