"""Autograd tensor engine: the NumPy-based substrate for all models.

The stack has three layers (see ARCHITECTURE.md at the repo root):

* :mod:`repro.tensor.ops` — declarative op registry; every primitive is a
  ``(name, forward, vjp, sample)`` record declared exactly once.
* :mod:`repro.tensor.engine` — graph executor: dispatch, topological sort,
  in-place gradient accumulation, per-op timing hooks.
* :class:`Tensor` — thin user-facing wrapper dispatching through the engine.

Public surface:

* :class:`Tensor` — reverse-mode autodiff array.
* :mod:`repro.tensor.functional` — softmax family, activations, losses.
* :mod:`repro.tensor.conv_utils` — conv2d / unfold / pooling primitives.
* :mod:`repro.tensor.fused` — fused composite kernels for the paper's
  quadratic-neuron hot paths.
* :mod:`repro.tensor.trace` / :mod:`repro.tensor.plan` — trace-and-replay
  inference compiler: record the op graph once, replay a fused,
  arena-allocated :class:`~repro.tensor.plan.ExecutionPlan` with zero
  Tensor/graph allocation.
* :mod:`repro.tensor.grad_check` — finite-difference gradient verification,
  including a registry-driven sweep over every registered op.
"""

from . import engine, ops
from .engine import (
    add_op_timing_hook,
    apply_op,
    graph_nodes_created,
    remove_op_timing_hook,
)
from .ops import register_op, op_names
from .tensor import Tensor, no_grad, is_grad_enabled, unbroadcast, DEFAULT_DTYPE
from . import trace, plan
from .trace import record_trace, TraceError
from .plan import ExecutionPlan, PlanCache, compile_forward, compile_plan
from . import functional
from . import fused
from .fused import linear, quadratic_conv2d, quadratic_form, quadratic_response
from .conv_utils import (
    conv2d,
    unfold,
    max_pool2d,
    global_avg_pool2d,
    im2col,
    col2im,
    conv_output_size,
)
from .grad_check import (
    check_gradients,
    check_registered_ops,
    numerical_gradient,
    max_relative_error,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "graph_nodes_created",
    "unbroadcast",
    "DEFAULT_DTYPE",
    "engine",
    "ops",
    "apply_op",
    "register_op",
    "op_names",
    "add_op_timing_hook",
    "remove_op_timing_hook",
    "trace",
    "plan",
    "record_trace",
    "TraceError",
    "ExecutionPlan",
    "PlanCache",
    "compile_forward",
    "compile_plan",
    "functional",
    "fused",
    "linear",
    "quadratic_form",
    "quadratic_response",
    "quadratic_conv2d",
    "conv2d",
    "unfold",
    "max_pool2d",
    "global_avg_pool2d",
    "im2col",
    "col2im",
    "conv_output_size",
    "check_gradients",
    "check_registered_ops",
    "numerical_gradient",
    "max_relative_error",
]
