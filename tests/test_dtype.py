"""Dtype contract: float32 data stays float32 through every op and model.

Python ``float``/``int`` operands are weak at ``apply_op``'s wrap site (NumPy
2's NEP 50 rule), so they take the dtype of the floating Tensor they meet
instead of promoting float32 activations to float64.  These tests pin that
for the registry (forward and VJP of every op), for SimpleCNN (train and
eval, dispatched and under plan replay) and for data-parallel shard grads.
"""

import numpy as np
import pytest

import repro.tensor.engine as engine
from repro import nn
from repro.models import SimpleCNN
from repro.tensor import Tensor, apply_op
from repro.tensor.grad_check import check_gradients
from repro.tensor.ops import OPS, OpContext
from repro.tensor.plan import compile_plan
from repro.tensor.trace import OpTracer, record_trace
from repro.training.dp_worker import build_sum_loss, compute_shard_gradients, loss_spec_of

DTYPES = [np.float32, np.float64]


def _cast_floats(arrays, dtype):
    return [np.asarray(a).astype(dtype) if np.asarray(a).dtype.kind == "f" else a
            for a in arrays]


class TestRegisteredOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_forward_and_vjp_keep_the_input_dtype(self, name, dtype):
        opdef = OPS[name]
        arrays, kwargs = opdef.sample(np.random.default_rng(0))
        inputs = tuple(_cast_floats(arrays, dtype))
        ctx = OpContext(inputs, kwargs, True)
        out = np.asarray(opdef.forward(ctx, *inputs, **kwargs))
        assert out.dtype == dtype, f"{name} forward gave {out.dtype}"
        grads = opdef.vjp(ctx, np.ones_like(out), (True,) * len(inputs))
        for index, grad in enumerate(grads):
            if grad is not None:
                assert np.asarray(grad).dtype == dtype, \
                    f"{name} VJP for input {index} gave {np.asarray(grad).dtype}"


class TestWeakScalars:
    @pytest.mark.parametrize("expression,expected", [
        (lambda f32, f64: f32 * 0.5, np.float32),
        (lambda f32, f64: 0.5 - f32, np.float32),
        (lambda f32, f64: 1.0 / f32, np.float32),
        (lambda f32, f64: f64 * 0.5, np.float64),
        (lambda f32, f64: f32 * np.float64(0.5), np.float64),
        (lambda f32, f64: f32 * 2, np.float32),
        (lambda f32, f64: f32 + f64 * 0.5, np.float64),
        (lambda f32, f64: f32.mean(), np.float32),
    ], ids=["f32*0.5", "0.5-f32", "1.0/f32", "f64*0.5", "f32*np.float64",
            "f32*2", "mixed", "f32.mean"])
    def test_result_dtype(self, expression, expected):
        f32 = Tensor(np.array([1.0, 2.0, 4.0], dtype=np.float32))
        f64 = Tensor(np.array([1.0, 2.0, 4.0]))
        assert expression(f32, f64).dtype == expected

    def test_scalar_is_rounded_like_numpy(self):
        data = np.array([1.0, 3.0, 7.0], dtype=np.float32)
        assert ((Tensor(data) * 0.1).data.tobytes() == (data * 0.1).tobytes())
        assert ((0.1 - Tensor(data)).data.tobytes() == (0.1 - data).tobytes())

    def test_scalar_without_a_tensor_operand_keeps_tensor_wrapping(self):
        assert apply_op("add", 1.0, 2.0).dtype == Tensor(1.0).dtype == np.float64
        assert apply_op("add", 1, 2).dtype == Tensor(1).dtype == np.float32

    def test_bool_operand_keeps_the_tensor_dtype(self):
        f64 = Tensor(np.ones(2))
        assert (f64 * True).dtype == np.float64
        assert (Tensor(np.ones(2, dtype=np.float32)) * True).dtype == np.float32


def _model(training: bool) -> SimpleCNN:
    model = SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                      image_size=8, seed=0)
    return model.train() if training else model.eval()


def _input(dtype) -> np.ndarray:
    return np.random.default_rng(1).standard_normal((3, 3, 8, 8)).astype(dtype)


def _dispatched_steps(model, x: np.ndarray) -> tuple:
    """Every op the forward dispatches (with autograd when training)."""
    tracer = OpTracer()
    tensor = tracer.add_input(x)
    if model.training:
        tensor.requires_grad = True
    engine._state.tracer = tracer
    try:
        model(tensor)
    finally:
        engine._state.tracer = None
    return tracer.steps


def _input_dependent(steps, n_inputs: int = 1) -> list:
    """The steps whose output depends on a plan input, not only on constants."""
    dependent = set(range(n_inputs))
    result = []
    for step in steps:
        if any(ref in dependent for ref in step.refs):
            dependent.add(step.out_slot)
            result.append(step)
    return result


class TestSimpleCNNDtype:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_float32_input_runs_every_op_in_float32(self, training):
        steps = _dispatched_steps(_model(training), _input(np.float32))
        assert len(steps) > 30
        promoted = [(s.name, str(s.out_dtype)) for s in steps if s.out_dtype != np.float32]
        assert promoted == []
        assert sum(s.name == "quadratic_conv2d" for s in steps) == 3

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_float64_input_stays_float64(self, training):
        # Parameter-only ops (reshaping a float32 weight) stay float32; every
        # op the input flows through is float64.
        steps = _input_dependent(_dispatched_steps(_model(training), _input(np.float64)))
        assert len(steps) > 20
        assert [(s.name, str(s.out_dtype)) for s in steps
                if s.out_dtype != np.float64] == []

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_plan_replay_keeps_the_input_dtype(self, training, dtype):
        model = _model(training)
        x = _input(dtype)
        trace = record_trace(model, x)
        plan = compile_plan(trace)
        dependent = {step.out_slot for step in _input_dependent(trace.steps)}
        values = [None] * plan.n_slots
        values[0] = x
        checked = 0
        for step in plan.steps:
            step.run(values, plan.constants)
            if step.out_slot in dependent:
                assert values[step.out_slot].dtype == dtype, step.name
                checked += 1
        assert checked > 10
        assert plan.replay(x).dtype == dtype

    def test_shard_gradients_are_float32(self):
        model = _model(True)
        sum_loss_fn, weight_fn = build_sum_loss(loss_spec_of(nn.CrossEntropyLoss()))
        targets = np.array([0, 1, 3])
        result = compute_shard_gradients(model, sum_loss_fn, weight_fn,
                                         _input(np.float32), targets)
        assert len(result["grads"]) == len(model.parameters())
        assert all(grad.dtype == np.float32 for grad in result["grads"])


class TestMatmulVectorBranches:
    """The 1-D ``matmul`` VJP branches, which the registry sample does not reach."""

    @pytest.mark.parametrize("a_shape,b_shape", [((4,), (4, 3)), ((4,), (2, 4, 3)),
                                                 ((3, 4), (4,)), ((2, 3, 4), (4,)),
                                                 ((4,), (4,))])
    def test_gradcheck(self, a_shape, b_shape):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
        coefficients = Tensor(rng.standard_normal((a @ b).shape))
        check_gradients(lambda: ((a @ b) * coefficients).sum(), [a, b])
