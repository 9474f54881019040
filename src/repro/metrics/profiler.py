"""Whole-model parameter and MAC profiler, plus per-op wall-time profiling.

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

:func:`record_op_times` is the wall-time counterpart: it subscribes to the
graph executor's timing hooks (:func:`repro.tensor.engine.add_op_timing_hook`)
and aggregates the measured seconds per registered op — forward passes under
the op name, backward passes under ``"<name>:backward"``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..nn.module import Module
from ..quadratic.complexity import neuron_complexity
from ..tensor import no_grad
from ..tensor import engine as tensor_engine

__all__ = ["LayerProfile", "ModelProfile", "profile_model",
           "OpTimeTable", "record_op_times"]


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


# ---------------------------------------------------------------------------
# Per-op wall-time profiling (fed by the graph executor's timing hooks)
# ---------------------------------------------------------------------------

@dataclass
class OpTimeTable:
    """Aggregated wall time per autograd op.

    Keys are op names as emitted by the executor: plain names for forward
    passes (``"matmul"``) and ``"<name>:backward"`` for VJP executions.
    """

    total_seconds: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)

    def record(self, op_name: str, seconds: float) -> None:
        self.total_seconds[op_name] = self.total_seconds.get(op_name, 0.0) + seconds
        self.calls[op_name] = self.calls.get(op_name, 0) + 1

    @property
    def grand_total(self) -> float:
        return sum(self.total_seconds.values())

    def as_rows(self, sort_by_time: bool = True) -> list[dict]:
        names = sorted(self.total_seconds,
                       key=(lambda n: -self.total_seconds[n]) if sort_by_time else None)
        return [{
            "op": name,
            "seconds": self.total_seconds[name],
            "calls": self.calls[name],
            "mean_microseconds": 1e6 * self.total_seconds[name] / max(self.calls[name], 1),
        } for name in names]

    def summary(self, top: int = 10) -> str:
        lines = [f"{'op':<28s} {'calls':>7s} {'total ms':>10s} {'mean us':>9s}"]
        for row in self.as_rows()[:top]:
            lines.append(f"{row['op']:<28s} {row['calls']:>7d} "
                         f"{1e3 * row['seconds']:>10.3f} {row['mean_microseconds']:>9.1f}")
        return "\n".join(lines)


@contextmanager
def record_op_times():
    """Context manager that times every op executed inside the block.

    Yields an :class:`OpTimeTable`; the executor's timing hook is removed
    again on exit, so the zero-overhead fast path is restored.

    >>> with record_op_times() as table:
    ...     loss = model(batch); loss.backward()
    >>> print(table.summary())
    """
    table = OpTimeTable()
    tensor_engine.add_op_timing_hook(table.record)
    try:
        yield table
    finally:
        tensor_engine.remove_op_timing_hook(table.record)
