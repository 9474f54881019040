"""Finite-difference gradient checks for every autograd primitive."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    check_gradients,
    check_registered_ops,
    max_relative_error,
    numerical_gradient,
    op_names,
)
from repro.tensor import functional as F


def _tensor(shape, seed=0, scale=1.0, positive=False):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape).astype(np.float64) * scale
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


UNARY_CASES = [
    ("exp", lambda t: t.exp(), {}),
    ("log", lambda t: t.log(), {"positive": True}),
    ("sqrt", lambda t: t.sqrt(), {"positive": True}),
    ("tanh", lambda t: t.tanh(), {}),
    ("sigmoid", lambda t: t.sigmoid(), {}),
    ("abs", lambda t: t.abs(), {"scale": 2.0}),
    ("neg", lambda t: -t, {}),
    ("pow3", lambda t: t ** 3, {}),
    ("relu", lambda t: t.relu(), {"scale": 2.0}),
    ("clip", lambda t: t.clip(-0.5, 0.5), {"scale": 2.0}),
    ("reshape", lambda t: t.reshape(-1), {}),
    ("transpose", lambda t: t.transpose(), {}),
    ("getitem", lambda t: t[1:, :2], {}),
    ("pad", lambda t: t.pad(((1, 0), (0, 2))), {}),
    ("sum_axis0", lambda t: t.sum(axis=0), {}),
    ("mean", lambda t: t.mean(axis=1, keepdims=True), {}),
    ("var", lambda t: t.var(axis=0), {}),
    ("max_axis", lambda t: t.max(axis=1), {}),
    ("min", lambda t: t.min(axis=0), {}),
    ("expand_dims", lambda t: t.expand_dims(1), {}),
    ("sigmoid_chain", lambda t: (t * 2 + 1).sigmoid() * t, {}),
]


@pytest.mark.parametrize("name,op,opts", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_op_gradients(name, op, opts):
    tensor = _tensor((3, 4), seed=hash(name) % 1000, scale=opts.get("scale", 1.0),
                     positive=opts.get("positive", False))

    def objective():
        return (op(tensor) * 1.7).sum()

    report = check_gradients(objective, [tensor], tolerance=1e-4)
    assert max(report.values()) < 1e-4


BINARY_CASES = [
    ("add", lambda a, b: a + b, (3, 4), (3, 4)),
    ("add_broadcast", lambda a, b: a + b, (3, 4), (4,)),
    ("sub", lambda a, b: a - b, (2, 5), (2, 5)),
    ("mul", lambda a, b: a * b, (3, 4), (3, 4)),
    ("mul_broadcast", lambda a, b: a * b, (2, 3, 4), (3, 4)),
    ("div", lambda a, b: a / b, (3, 3), (3, 3)),
    ("matmul", lambda a, b: a @ b, (3, 4), (4, 5)),
    ("matmul_batched", lambda a, b: a @ b, (2, 3, 4), (2, 4, 5)),
    ("matmul_vec", lambda a, b: a @ b, (3, 4), (4,)),
    ("maximum", lambda a, b: a.maximum(b), (4, 4), (4, 4)),
]


@pytest.mark.parametrize("name,op,shape_a,shape_b", BINARY_CASES,
                         ids=[c[0] for c in BINARY_CASES])
def test_binary_op_gradients(name, op, shape_a, shape_b):
    a = _tensor(shape_a, seed=1)
    b = _tensor(shape_b, seed=2, positive=(name == "div"))

    def objective():
        return (op(a, b) ** 2).sum()

    report = check_gradients(objective, [a, b], tolerance=1e-4)
    assert max(report.values()) < 1e-4


def test_cat_gradients():
    a, b = _tensor((2, 3), seed=3), _tensor((2, 2), seed=4)

    def objective():
        return (Tensor.cat([a, b], axis=1) ** 2).sum()

    check_gradients(objective, [a, b], tolerance=1e-4)


def test_stack_gradients():
    a, b = _tensor((2, 3), seed=5), _tensor((2, 3), seed=6)

    def objective():
        return (Tensor.stack([a, b], axis=0).tanh()).sum()

    check_gradients(objective, [a, b], tolerance=1e-4)


def test_softmax_gradients():
    logits = _tensor((4, 6), seed=7)

    def objective():
        return (F.softmax(logits, axis=-1) * Tensor(np.arange(6, dtype=np.float64))).sum()

    check_gradients(objective, [logits], tolerance=1e-4)


def test_log_softmax_gradients():
    logits = _tensor((4, 6), seed=8)

    def objective():
        return (F.log_softmax(logits, axis=-1)[:, 2]).sum()

    check_gradients(objective, [logits], tolerance=1e-4)


def test_cross_entropy_gradients():
    logits = _tensor((5, 4), seed=9)
    targets = np.array([0, 1, 2, 3, 1])

    def objective():
        return F.cross_entropy_with_logits(logits, targets, label_smoothing=0.1)

    check_gradients(objective, [logits], tolerance=1e-4)


def test_numerical_gradient_matches_known_derivative():
    x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
    numeric = numerical_gradient(lambda: (x ** 2).sum(), x)
    np.testing.assert_allclose(numeric, [4.0], rtol=1e-5)


def test_max_relative_error_symmetric():
    a = np.array([1.0, 2.0])
    assert max_relative_error(a, a) == 0.0
    assert max_relative_error(a, a * 1.1) > 0.0


def test_check_gradients_raises_on_missing_gradient():
    used = _tensor((2, 2), seed=11)
    unused = _tensor((2, 2), seed=12)
    with pytest.raises(AssertionError):
        check_gradients(lambda: (used * 2).sum(), [unused])


# ---------------------------------------------------------------------------
# Registry-driven sweep: every registered op, no hand-picked list.
# ---------------------------------------------------------------------------

def test_registry_sweep_covers_every_registered_op():
    report = check_registered_ops(tolerance=1e-4)
    assert sorted(report) == op_names()
    assert max(report.values()) < 1e-4


def test_registry_sweep_accepts_subset():
    report = check_registered_ops(names=["matmul", "quadratic_response"])
    assert sorted(report) == ["matmul", "quadratic_response"]


def test_registry_sweep_rejects_unknown_name():
    with pytest.raises(KeyError):
        check_registered_ops(names=["not_a_real_op"])
