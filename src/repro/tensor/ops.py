"""Declarative autograd op registry: every primitive declared once.

This module is the bottom layer of the autograd stack:

``ops.py`` (this file)
    Pure NumPy definitions.  Each primitive operation is registered exactly
    once as an :class:`OpDef` — a ``(name, forward, vjp, sample)`` record.
    ``forward`` maps input arrays to an output array; ``vjp`` maps the output
    gradient back to one gradient per input; ``sample`` builds a random but
    well-conditioned input set so :func:`repro.tensor.grad_check
    .check_registered_ops` can sweep the whole registry with finite
    differences.  Nothing in this file knows about :class:`Tensor`.

``engine.py``
    The graph executor.  :func:`repro.tensor.engine.apply_op` looks up an
    :class:`OpDef`, runs its forward, and wires the output into the autograd
    graph; :func:`repro.tensor.engine.backward` topologically sorts the graph
    and drives the VJPs, accumulating gradients in place.

``tensor.py``
    A thin :class:`Tensor` wrapper whose operator methods dispatch through
    ``apply_op``.

Conventions
-----------
* ``forward(ctx, *arrays, **kwargs) -> ndarray``.  ``ctx`` is an
  :class:`OpContext`; anything the VJP needs besides the raw inputs is stored
  on ``ctx.saved`` (only when ``ctx.requires_grad`` is set — inference-mode
  calls skip the bookkeeping).  Elementwise forwards also take ``out=None``
  and write their result through it (see :class:`OpDef`).
* ``vjp(ctx, grad, needs) -> tuple`` aligned with the inputs.  ``needs[i]``
  tells the VJP whether input ``i`` requires a gradient; entries for inputs
  that do not may be ``None``.
* VJPs must never mutate ``grad`` — the executor may still hand the same
  buffer to a sibling node.
* ``sample(rng) -> (inputs, kwargs)`` must avoid non-differentiable kinks
  (``relu`` at 0, ties in ``max`` …) so central differences are reliable.

The registry also hosts the fused composite kernels for the paper's hot
paths: ``quadratic_response`` / ``quadratic_conv2d`` evaluate the proposed
neuron ``y = wᵀx + b + (fᵏ)ᵀΛᵏfᵏ`` with a single hand-derived VJP instead of
the ~8-node subgraph the unfused composition builds, ``layer_norm`` replaces
LayerNorm's 11-primitive composition byte for byte, and ``conv2d`` runs
im2col and one gemm.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "OpContext",
    "OpDef",
    "OPS",
    "register_op",
    "get_op",
    "op_names",
    "unbroadcast",
    "conv_output_size",
    "im2col",
    "col2im",
]


# ---------------------------------------------------------------------------
# Registry machinery
# ---------------------------------------------------------------------------

class OpContext:
    """Scratch space shared between one node's forward pass and its VJP.

    ``inputs`` holds the raw input arrays, ``kwargs`` the non-differentiable
    configuration, and ``saved`` whatever the forward stashed for the
    backward.  ``requires_grad`` tells the forward whether a VJP will run at
    all, so it can skip saving intermediates in inference mode.
    """

    __slots__ = ("inputs", "kwargs", "requires_grad", "saved")

    def __init__(self, inputs: tuple, kwargs: dict, requires_grad: bool):
        self.inputs = inputs
        self.kwargs = kwargs
        self.requires_grad = requires_grad
        self.saved = None


class OpDef:
    """A primitive operation declared once: ``(name, forward, vjp, sample)``.

    ``elementwise`` marks ops that map inputs to the output point-by-point
    (after broadcasting) with no cross-element data flow; the trace compiler
    (:mod:`repro.tensor.plan`) may fuse chains of such ops and write their
    results into preallocated arena buffers.  Their ``forward`` takes an
    ``out=None`` keyword for that: given an array, it writes the result there
    and returns it, **bit-identical** to the call without ``out`` (which is
    allowed to alias an input array, so the result must be written last).
    """

    __slots__ = ("name", "forward", "vjp", "sample", "elementwise")

    def __init__(self, name: str, forward: Callable, vjp: Callable,
                 sample: Callable | None = None, elementwise: bool = False):
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.sample = sample
        self.elementwise = elementwise

    def __repr__(self) -> str:
        return f"OpDef({self.name!r})"


OPS: dict[str, OpDef] = {}


def register_op(name: str, forward: Callable, vjp: Callable,
                sample: Callable | None = None, *, elementwise: bool = False) -> OpDef:
    """Register a primitive; raises if ``name`` is already taken."""
    if name in OPS:
        raise ValueError(f"op '{name}' is already registered")
    opdef = OpDef(name, forward, vjp, sample, elementwise)
    OPS[name] = opdef
    return opdef


def get_op(name: str) -> OpDef:
    try:
        return OPS[name]
    except KeyError:
        raise KeyError(f"unknown op '{name}'; registered ops: {sorted(OPS)}") from None


def op_names() -> list[str]:
    """Sorted names of every registered primitive."""
    return sorted(OPS)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    When an operand was broadcast during the forward pass, its gradient must
    be summed over the broadcast dimensions.  ``shape`` is the original
    operand shape; ``grad`` has the (possibly larger) output shape.
    """
    if grad.shape == shape:
        return grad
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _flatten_leading(*arrays: np.ndarray) -> list[np.ndarray]:
    """Collapse all leading (batch) dimensions of each array to one."""
    return [a.reshape(-1, a.shape[-1]) for a in arrays]


# -- sample-input helpers (gradient-check sweep) ----------------------------

def _sn(rng, *shape, scale: float = 1.0):
    return rng.standard_normal(shape) * scale


def _positive(rng, *shape):
    return np.abs(rng.standard_normal(shape)) + 0.5


def _away_from_zero(rng, *shape, gap: float = 0.2):
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return signs * (gap + rng.random(shape))


def _distinct(rng, *shape, scale: float = 0.1):
    values = rng.permutation(int(np.prod(shape))).astype(np.float64)
    return values.reshape(shape) * scale


# ---------------------------------------------------------------------------
# Arithmetic primitives
# ---------------------------------------------------------------------------

def _add_fw(ctx, a, b, out=None):
    return np.add(a, b, out=out)


def _add_vjp(ctx, grad, needs):
    a, b = ctx.inputs
    return (unbroadcast(grad, a.shape) if needs[0] else None,
            unbroadcast(grad, b.shape) if needs[1] else None)


register_op("add", _add_fw, _add_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3), _sn(rng, 3)], {}),
            elementwise=True)


def _sub_fw(ctx, a, b, out=None):
    return np.subtract(a, b, out=out)


def _sub_vjp(ctx, grad, needs):
    a, b = ctx.inputs
    return (unbroadcast(grad, a.shape) if needs[0] else None,
            unbroadcast(-grad, b.shape) if needs[1] else None)


register_op("sub", _sub_fw, _sub_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3), _sn(rng, 1, 3)], {}),
            elementwise=True)


def _neg_fw(ctx, a, out=None):
    return np.negative(a, out=out)


def _neg_vjp(ctx, grad, needs):
    return (-grad,)


register_op("neg", _neg_fw, _neg_vjp, sample=lambda rng: ([_sn(rng, 3, 4)], {}),
            elementwise=True)


def _mul_fw(ctx, a, b, out=None):
    return np.multiply(a, b, out=out)


def _mul_vjp(ctx, grad, needs):
    a, b = ctx.inputs
    return (unbroadcast(grad * b, a.shape) if needs[0] else None,
            unbroadcast(grad * a, b.shape) if needs[1] else None)


register_op("mul", _mul_fw, _mul_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 4), _sn(rng, 3, 4)], {}),
            elementwise=True)


def _div_fw(ctx, a, b, out=None):
    return np.divide(a, b, out=out)


def _div_vjp(ctx, grad, needs):
    a, b = ctx.inputs
    return (unbroadcast(grad / b, a.shape) if needs[0] else None,
            unbroadcast(-grad * a / (b ** 2), b.shape) if needs[1] else None)


register_op("div", _div_fw, _div_vjp,
            sample=lambda rng: ([_sn(rng, 3, 3), _positive(rng, 3, 3)], {}),
            elementwise=True)


def _pow_fw(ctx, a, exponent, out=None):
    # ``a ** 2``, ``a ** 0.5`` and ``a ** -1`` run square/sqrt/reciprocal;
    # ``np.power`` gives the same bytes at those exponents and takes ``out``.
    return np.power(a, exponent, out=out)


def _pow_vjp(ctx, grad, needs):
    (a,) = ctx.inputs
    exponent = ctx.kwargs["exponent"]
    return (grad * exponent * a ** (exponent - 1),)


register_op("pow", _pow_fw, _pow_vjp,
            sample=lambda rng: ([_sn(rng, 3, 4)], {"exponent": 3.0}),
            elementwise=True)


def _matmul_fw(ctx, a, b):
    return a @ b


def _matmul_vjp(ctx, grad, needs):
    a, b = ctx.inputs
    grad_a = grad_b = None
    if needs[0]:
        if a.ndim == 1 and b.ndim == 1:
            grad_a = grad * b
        elif b.ndim == 1:
            grad_a = grad[..., None] * b
        elif a.ndim == 1:
            # grad_a[i] = sum over (..., j) of b[..., i, j] * grad[..., j]
            grad_a = np.moveaxis(b, -2, 0).reshape(a.shape[0], -1) @ grad.reshape(-1)
        else:
            grad_a = unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
    if needs[1]:
        if a.ndim == 1 and b.ndim == 1:
            grad_b = grad * a
        elif a.ndim == 1:
            grad_b = a[:, None] * grad[..., None, :]
        elif b.ndim == 1:
            # grad_b[j] = sum over (..., i) of a[..., i, j] * grad[..., i]
            grad_b = a.reshape(-1, b.shape[0]).T @ grad.reshape(-1)
        else:
            grad_b = unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
    return grad_a, grad_b


register_op("matmul", _matmul_fw, _matmul_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 4), _sn(rng, 4, 5)], {}))


def _maximum_fw(ctx, a, b, out=None):
    if ctx.requires_grad:
        ctx.saved = a >= b
    return np.maximum(a, b, out=out)


def _maximum_vjp(ctx, grad, needs):
    a, b = ctx.inputs
    a_wins = ctx.saved
    return (unbroadcast(grad * a_wins, a.shape) if needs[0] else None,
            unbroadcast(grad * (~a_wins), b.shape) if needs[1] else None)


def _maximum_sample(rng):
    a = _sn(rng, 4, 4)
    return [a, a + _away_from_zero(rng, 4, 4)], {}


register_op("maximum", _maximum_fw, _maximum_vjp, sample=_maximum_sample,
            elementwise=True)


# ---------------------------------------------------------------------------
# Elementwise functions
# ---------------------------------------------------------------------------

def _exp_fw(ctx, a, out=None):
    value = np.exp(a, out=out)
    if ctx.requires_grad:
        ctx.saved = value
    return value


def _exp_vjp(ctx, grad, needs):
    return (grad * ctx.saved,)


register_op("exp", _exp_fw, _exp_vjp, sample=lambda rng: ([_sn(rng, 3, 4)], {}),
            elementwise=True)


def _log_fw(ctx, a, out=None):
    return np.log(a, out=out)


def _log_vjp(ctx, grad, needs):
    return (grad / ctx.inputs[0],)


register_op("log", _log_fw, _log_vjp, sample=lambda rng: ([_positive(rng, 3, 4)], {}),
            elementwise=True)


def _sqrt_fw(ctx, a, out=None):
    value = np.sqrt(a, out=out)
    if ctx.requires_grad:
        ctx.saved = value
    return value


def _sqrt_vjp(ctx, grad, needs):
    return (grad * 0.5 / ctx.saved,)


register_op("sqrt", _sqrt_fw, _sqrt_vjp, sample=lambda rng: ([_positive(rng, 3, 4)], {}),
            elementwise=True)


def _abs_fw(ctx, a, out=None):
    return np.absolute(a, out=out)


def _abs_vjp(ctx, grad, needs):
    return (grad * np.sign(ctx.inputs[0]),)


register_op("abs", _abs_fw, _abs_vjp, sample=lambda rng: ([_away_from_zero(rng, 3, 4)], {}),
            elementwise=True)


def _tanh_fw(ctx, a, out=None):
    value = np.tanh(a, out=out)
    if ctx.requires_grad:
        ctx.saved = value
    return value


def _tanh_vjp(ctx, grad, needs):
    return (grad * (1.0 - ctx.saved ** 2),)


register_op("tanh", _tanh_fw, _tanh_vjp, sample=lambda rng: ([_sn(rng, 3, 4)], {}),
            elementwise=True)


def _sigmoid_fw(ctx, a, out=None):
    # ``1.0 / (1.0 + np.exp(-a))`` one ufunc at a time, so ``out`` holds
    # every step (it may alias ``a``: each ufunc reads before it stores).
    value = np.negative(a, out=out)
    value = np.exp(value, out=out)
    value = np.add(value, 1.0, out=out)
    value = np.divide(1.0, value, out=out)
    if ctx.requires_grad:
        ctx.saved = value
    return value


def _sigmoid_vjp(ctx, grad, needs):
    value = ctx.saved
    return (grad * value * (1.0 - value),)


register_op("sigmoid", _sigmoid_fw, _sigmoid_vjp, sample=lambda rng: ([_sn(rng, 3, 4)], {}),
            elementwise=True)


def _relu_fw(ctx, a, out=None):
    # ``a * (a > 0)``, not ``np.maximum(a, 0)``, which differs on -0.0.
    mask = a > 0
    if ctx.requires_grad:
        ctx.saved = mask
    return np.multiply(a, mask, out=out)


def _relu_vjp(ctx, grad, needs):
    return (grad * ctx.saved,)


register_op("relu", _relu_fw, _relu_vjp,
            sample=lambda rng: ([_away_from_zero(rng, 3, 4)], {}),
            elementwise=True)


def _clip_fw(ctx, a, min_value=None, max_value=None, out=None):
    if ctx.requires_grad:
        inside = np.ones_like(a, dtype=bool)
        if min_value is not None:
            inside &= a >= min_value
        if max_value is not None:
            inside &= a <= max_value
        ctx.saved = inside
    return np.clip(a, min_value, max_value, out=out)


def _clip_vjp(ctx, grad, needs):
    return (grad * ctx.saved,)


def _clip_sample(rng):
    # Keep every value at least 0.08 away from the clip boundaries so the
    # central differences never straddle a kink.
    shape = (3, 4)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    magnitude = np.where(rng.random(shape) < 0.5,
                         rng.uniform(0.05, 0.42, shape),
                         rng.uniform(0.58, 1.5, shape))
    return [signs * magnitude], {"min_value": -0.5, "max_value": 0.5}


register_op("clip", _clip_fw, _clip_vjp, sample=_clip_sample,
            elementwise=True)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _sum_fw(ctx, a, axis=None, keepdims=False):
    return a.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(ctx, grad, needs):
    (a,) = ctx.inputs
    axis = ctx.kwargs.get("axis")
    keepdims = ctx.kwargs.get("keepdims", False)
    if axis is None:
        return (np.broadcast_to(grad, a.shape),)
    grad_local = grad
    if not keepdims:
        grad_local = np.expand_dims(grad_local, axis=axis)
    return (np.broadcast_to(grad_local, a.shape),)


register_op("sum", _sum_fw, _sum_vjp,
            sample=lambda rng: ([_sn(rng, 3, 4, 2)], {"axis": (0, 2)}))


def _max_fw(ctx, a, axis=None, keepdims=False):
    return a.max(axis=axis, keepdims=keepdims)


def _max_vjp(ctx, grad, needs):
    (a,) = ctx.inputs
    axis = ctx.kwargs.get("axis")
    keepdims = ctx.kwargs.get("keepdims", False)
    if axis is None:
        mask = (a == a.max()).astype(a.dtype)
        mask /= mask.sum()
        return (mask * grad,)
    max_keep = a.max(axis=axis, keepdims=True)
    mask = (a == max_keep).astype(a.dtype)
    mask /= mask.sum(axis=axis, keepdims=True)
    grad_local = grad
    if not keepdims:
        grad_local = np.expand_dims(grad_local, axis=axis)
    return (mask * grad_local,)


register_op("max", _max_fw, _max_vjp,
            sample=lambda rng: ([_distinct(rng, 3, 4, 5)], {"axis": 1}))


# ---------------------------------------------------------------------------
# Softmax family (fused, numerically stable)
# ---------------------------------------------------------------------------

def _softmax_fw(ctx, a, axis=-1):
    exps = np.exp(a - a.max(axis=axis, keepdims=True))
    value = exps / exps.sum(axis=axis, keepdims=True)
    if ctx.requires_grad:
        ctx.saved = value
    return value


def _softmax_vjp(ctx, grad, needs):
    axis = ctx.kwargs.get("axis", -1)
    value = ctx.saved
    inner = (grad * value).sum(axis=axis, keepdims=True)
    return ((grad - inner) * value,)


register_op("softmax", _softmax_fw, _softmax_vjp,
            sample=lambda rng: ([_sn(rng, 4, 6)], {"axis": -1}))


def _attention_softmax_fw(ctx, a, axis=-1):
    """Softmax whose denominator is accumulated strictly left-to-right.

    ``np.sum``'s pairwise reduction regroups as the reduced length changes,
    so a softmax over masked padding columns (additive ``-1e9`` → exp of
    exactly 0.0) is not bitwise equal to the softmax over just the real
    columns.  Attention needs it to be: KV-cached incremental decoding
    attends over a fixed-capacity window whose tail is masked padding, and
    its output must match the full-prefix recompute byte for byte.  A
    cumulative (sequential) sum makes trailing exact-zero terms
    byte-transparent and each row's denominator independent of every other
    row, which is what the cache path relies on.
    """
    exps = np.exp(a - a.max(axis=axis, keepdims=True))
    tail = [slice(None)] * exps.ndim
    tail[axis] = slice(-1, None)
    value = exps / np.cumsum(exps, axis=axis)[tuple(tail)]
    if ctx.requires_grad:
        ctx.saved = value
    return value


register_op("attention_softmax", _attention_softmax_fw, _softmax_vjp,
            sample=lambda rng: ([_sn(rng, 4, 6)], {"axis": -1}))


def _log_softmax_fw(ctx, a, axis=-1):
    shifted = a - a.max(axis=axis, keepdims=True)
    value = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    if ctx.requires_grad:
        ctx.saved = value
    return value


def _log_softmax_vjp(ctx, grad, needs):
    axis = ctx.kwargs.get("axis", -1)
    probs = np.exp(ctx.saved)
    return (grad - probs * grad.sum(axis=axis, keepdims=True),)


register_op("log_softmax", _log_softmax_fw, _log_softmax_vjp,
            sample=lambda rng: ([_sn(rng, 4, 6)], {"axis": -1}))


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------

def _reshape_fw(ctx, a, shape):
    return a.reshape(shape)


def _reshape_vjp(ctx, grad, needs):
    return (grad.reshape(ctx.inputs[0].shape),)


register_op("reshape", _reshape_fw, _reshape_vjp,
            sample=lambda rng: ([_sn(rng, 3, 4)], {"shape": (2, 6)}))


def _transpose_fw(ctx, a, axes):
    return a.transpose(axes)


def _transpose_vjp(ctx, grad, needs):
    inverse = np.argsort(ctx.kwargs["axes"])
    return (grad.transpose(inverse),)


register_op("transpose", _transpose_fw, _transpose_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 4)], {"axes": (2, 0, 1)}))


def _expand_dims_fw(ctx, a, axis):
    return np.expand_dims(a, axis)


def _expand_dims_vjp(ctx, grad, needs):
    return (np.squeeze(grad, axis=ctx.kwargs["axis"]),)


register_op("expand_dims", _expand_dims_fw, _expand_dims_vjp,
            sample=lambda rng: ([_sn(rng, 3, 4)], {"axis": 1}))


def _squeeze_fw(ctx, a, axis):
    return np.squeeze(a, axis=axis)


def _squeeze_vjp(ctx, grad, needs):
    return (np.expand_dims(grad, axis=ctx.kwargs["axis"]),)


register_op("squeeze", _squeeze_fw, _squeeze_vjp,
            sample=lambda rng: ([_sn(rng, 3, 1, 4)], {"axis": 1}))


def _getitem_fw(ctx, a, index):
    return a[index]


def _getitem_vjp(ctx, grad, needs):
    (a,) = ctx.inputs
    full = np.zeros_like(a)
    np.add.at(full, ctx.kwargs["index"], grad)
    return (full,)


register_op("getitem", _getitem_fw, _getitem_vjp,
            sample=lambda rng: ([_sn(rng, 4, 5)], {"index": np.array([0, 2, 2])}))


def _pad_fw(ctx, a, pad_width, constant_value=0.0):
    return np.pad(a, pad_width, mode="constant", constant_values=constant_value)


def _pad_vjp(ctx, grad, needs):
    (a,) = ctx.inputs
    slices = tuple(slice(before, before + size)
                   for (before, _after), size in zip(ctx.kwargs["pad_width"], a.shape))
    return (grad[slices],)


register_op("pad", _pad_fw, _pad_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3)],
                                {"pad_width": ((1, 0), (0, 2)), "constant_value": 1.0}))


def _cat_fw(ctx, *arrays, axis=0):
    return np.concatenate(arrays, axis=axis)


def _cat_vjp(ctx, grad, needs):
    axis = ctx.kwargs.get("axis", 0)
    sizes = [a.shape[axis] for a in ctx.inputs]
    offsets = np.cumsum([0] + sizes)
    grads = []
    for array, start, end in zip(ctx.inputs, offsets[:-1], offsets[1:]):
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(int(start), int(end))
        grads.append(grad[tuple(slicer)])
    return tuple(grads)


register_op("cat", _cat_fw, _cat_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3), _sn(rng, 2, 2)], {"axis": 1}))


# ---------------------------------------------------------------------------
# Convolution kernels: im2col / col2im and the ops built on them
# ---------------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def _stage_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` zero-padded and copied once into ``(N, H+2p, W+2p, C)`` layout."""
    if padding == 0:
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    n, channels, height, width = x.shape
    staged = np.zeros((n, height + 2 * padding, width + 2 * padding, channels), dtype=x.dtype)
    staged[:, padding:padding + height, padding:padding + width] = x.transpose(0, 2, 3, 1)
    return staged


def im2col(x: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
    """Extract sliding patches from ``x`` of shape ``(N, C, H, W)``.

    Returns a freshly allocated array of shape
    ``(N, out_h, out_w, C * kernel_size**2)`` where each row is a flattened
    receptive field in ``(C, KH, KW)`` order.  The padded input is staged
    once in NHWC layout, so each of the K² kernel offsets is one slice copy
    whose source rows are contiguous runs of C values.
    """
    n, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)
    staged = _stage_nhwc(x, padding)
    cols = np.empty((n, out_h, out_w, channels, kernel_size, kernel_size), dtype=x.dtype)
    for i in range(kernel_size):
        for j in range(kernel_size):
            cols[..., i, j] = staged[:, i:i + stride * out_h:stride,
                                     j:j + stride * out_w:stride]
    return cols.reshape(n, out_h, out_w, -1)


def col2im(cols: np.ndarray, input_shape: tuple, kernel_size: int, stride: int,
           padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch values back to image layout.

    Accumulates into a zeroed NHWC buffer, kernel offset ``(i, j)`` by
    offset in row-major order, then copies it back to NCHW once.  Every
    pixel receives its additions in that order, starting from ``0.0``.
    """
    n, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)
    cols = cols.reshape(n, out_h, out_w, channels, kernel_size, kernel_size)
    staged = np.zeros((n, height + 2 * padding, width + 2 * padding, channels),
                      dtype=cols.dtype)
    for i in range(kernel_size):
        for j in range(kernel_size):
            staged[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                cols[..., i, j]
    staged = staged[:, padding:padding + height, padding:padding + width]
    return np.ascontiguousarray(staged.transpose(0, 3, 1, 2))


def _unfold_fw(ctx, x, kernel_size, stride=1, padding=0):
    return im2col(x, kernel_size, stride, padding)


def _unfold_vjp(ctx, grad, needs):
    (x,) = ctx.inputs
    kwargs = ctx.kwargs
    return (col2im(grad, x.shape, kwargs["kernel_size"], kwargs.get("stride", 1),
                   kwargs.get("padding", 0)),)


register_op("unfold", _unfold_fw, _unfold_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 5, 5)],
                                {"kernel_size": 3, "stride": 2, "padding": 1}))


def _weight_grad(grad_t: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``sum_n grad_t[n] @ cols[n]``: a conv filter bank's weight gradient.

    ``grad_t`` is ``(N, C_out, OH·OW)`` and ``cols`` the im2col patches
    ``(N, OH, OW, C·K·K)``.  One BLAS gemm per sample, then a sum: a single
    gemm over all ``N·OH·OW`` rows has a long reduction axis, which
    multithreaded OpenBLAS splits into many synchronised rounds, and on
    shared cores (two data-parallel workers on two) that ran 3x slower than
    the ``einsum`` it replaces.
    """
    n = cols.shape[0]
    return np.matmul(grad_t, cols.reshape(n, -1, cols.shape[-1])).sum(axis=0)


def _conv2d_fw(ctx, x, weight, bias=None, stride=1, padding=0):
    n, c_in, height, width = x.shape
    c_out, c_in_w, k_h, k_w = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}")
    if k_h != k_w:
        raise ValueError("conv2d only supports square kernels")
    cols = im2col(x, k_h, stride, padding)                   # (N, OH, OW, C*K*K)
    flat_weight = weight.reshape(c_out, -1)                  # (C_out, C*K*K)
    out = cols @ flat_weight.T                               # (N, OH, OW, C_out)
    if bias is not None:
        out = out + bias
    if ctx.requires_grad:
        ctx.saved = (cols, flat_weight)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _conv2d_vjp(ctx, grad, needs):
    x, weight = ctx.inputs[0], ctx.inputs[1]
    has_bias = len(ctx.inputs) == 3
    stride = ctx.kwargs.get("stride", 1)
    padding = ctx.kwargs.get("padding", 0)
    kernel_size = weight.shape[-1]
    cols, flat_weight = ctx.saved
    grad_view = grad.transpose(0, 2, 3, 1)                   # (N, OH, OW, C_out)
    grad_x = grad_w = grad_b = None
    if needs[0]:
        grad_cols = grad_view @ flat_weight                  # (N, OH, OW, C*K*K)
        grad_x = col2im(grad_cols, x.shape, kernel_size, stride, padding)
    if needs[1]:
        grad_w = _weight_grad(grad.reshape(grad.shape[0], grad.shape[1], -1),
                              cols).reshape(weight.shape)
    if has_bias and needs[2]:
        grad_b = grad_view.sum(axis=(0, 1, 2))
    return (grad_x, grad_w, grad_b) if has_bias else (grad_x, grad_w)


register_op("conv2d", _conv2d_fw, _conv2d_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 5, 5), _sn(rng, 4, 3, 3, 3), _sn(rng, 4)],
                                {"stride": 2, "padding": 1}))


def _pool_slots(x: np.ndarray, kernel_size: int, stride: int, out_h: int,
                out_w: int) -> np.ndarray:
    """Window slot ``i·k + j`` of every pooling window, as one ``(k², N, C, OH, OW)`` stack."""
    n, channels = x.shape[:2]
    stack = np.empty((kernel_size * kernel_size, n, channels, out_h, out_w), dtype=x.dtype)
    for slot in range(kernel_size * kernel_size):
        i, j = divmod(slot, kernel_size)
        stack[slot] = x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
    return stack


def _max_pool2d_fw(ctx, x, kernel_size, stride=None):
    """Max over each window, scanning its k² slots in order.

    A later slot wins only when it is strictly greater than the running
    best, or NaN while the best is not: the first maximum wins, and a
    window holding a NaN returns its first NaN.  For the VJP it keeps each
    window's winning slot in the smallest unsigned dtype that holds
    ``k² - 1``.
    """
    stride = stride or kernel_size
    out_h = conv_output_size(x.shape[2], kernel_size, stride, 0)
    out_w = conv_output_size(x.shape[3], kernel_size, stride, 0)
    slots = _pool_slots(x, kernel_size, stride, out_h, out_w)
    best = slots[0]
    winner = None
    if ctx.requires_grad:
        winner = np.zeros(best.shape, dtype=np.min_scalar_type(len(slots) - 1))
    for slot in range(1, len(slots)):
        value = slots[slot]
        wins = ~(value <= best) & (best == best)
        best = np.where(wins, value, best)
        if winner is not None:
            # Slots are scanned in increasing order: the last win is the largest.
            np.maximum(winner, wins * winner.dtype.type(slot), out=winner)
    if winner is not None:
        ctx.saved = (winner, stride)
    return best


def _max_pool2d_vjp(ctx, grad, needs):
    """Route each output gradient to its window's winning slot.

    An input pixel's gradient is ``0.0 + g₁ + g₂ + …`` over the outputs
    whose window it wins, in row-major output order; ``grad + 0.0`` is the
    first term (−0.0 becomes +0.0).  Disjoint windows write each slot's
    share straight into its view.  Overlapping windows add the shares into
    zeros in reverse slot order, which reaches each pixel's outputs in
    row-major order.
    """
    (x,) = ctx.inputs
    kernel_size = ctx.kwargs["kernel_size"]
    winner, stride = ctx.saved
    out_h, out_w = grad.shape[2], grad.shape[3]
    grad_input = np.zeros_like(x)
    routed = grad + 0.0
    slots = range(kernel_size * kernel_size)
    overlapping = stride < kernel_size
    for slot in (reversed(slots) if overlapping else slots):
        i, j = divmod(slot, kernel_size)
        view = grad_input[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
        share = np.where(winner == slot, routed, 0.0)
        if overlapping:
            view += share
        else:
            view[...] = share
    return (grad_input,)


register_op("max_pool2d", _max_pool2d_fw, _max_pool2d_vjp,
            sample=lambda rng: ([_distinct(rng, 2, 2, 6, 6)],
                                {"kernel_size": 2, "stride": 2}))


# ---------------------------------------------------------------------------
# Fused dense kernels
# ---------------------------------------------------------------------------

def _linear_fw(ctx, x, weight, bias=None):
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def _linear_vjp(ctx, grad, needs):
    x, weight = ctx.inputs[0], ctx.inputs[1]
    has_bias = len(ctx.inputs) == 3
    grad_x = grad_w = grad_b = None
    grad2, x2 = _flatten_leading(grad, x)
    if needs[0]:
        grad_x = grad @ weight
    if needs[1]:
        grad_w = grad2.T @ x2
    if has_bias and needs[2]:
        grad_b = grad2.sum(axis=0)
    return (grad_x, grad_w, grad_b) if has_bias else (grad_x, grad_w)


register_op("linear", _linear_fw, _linear_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 4), _sn(rng, 5, 4), _sn(rng, 5)], {}))


def _layer_norm_fw(ctx, x, weight, bias, *, eps):
    """Layer normalization over the last axis, ``(x - μ) / √(σ² + eps) · w + b``.

    Repeats the numpy sequence of the 11-primitive composition it replaces:
    each mean is a ``sum`` times the Python float ``1/n``, and ``eps`` is
    added as a Python float.  Both are weak scalars there (see
    :func:`repro.tensor.engine.apply_op`) and here (NumPy 2), so they take
    the input's dtype: a float32 input stays float32, and the bytes of every
    output and gradient equal the composition's.
    """
    inv_n = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    normalized = centered / std
    if ctx.requires_grad:
        ctx.saved = (centered, std, normalized)
    return normalized * weight + bias


def _layer_norm_vjp(ctx, grad, needs):
    """Replays the composition's VJPs in the order the executor ran them.

    ``centered`` collects the ``div`` contribution first, then the two of
    ``centered * centered``; ``x`` collects the ``sub`` contribution, then
    the mean's ``sum``, each cast to ``x.dtype`` before it is added.
    """
    x, weight, bias = ctx.inputs
    centered, std, normalized = ctx.saved
    grad_x = grad_w = grad_b = None
    if needs[0]:
        inv_n = 1.0 / x.shape[-1]
        grad_normalized = unbroadcast(grad * weight, normalized.shape)
        grad_std = unbroadcast(-grad_normalized * centered / (std ** 2), std.shape)
        # sqrt, then the eps add and the variance's mean pass it through.
        grad_square = grad_std * 0.5 / std * inv_n
        from_square = grad_square * centered
        grad_centered = grad_normalized / std
        grad_centered += from_square
        grad_centered += from_square
        grad_mean = unbroadcast(-grad_centered, std.shape)
        grad_x = (grad_centered.astype(x.dtype, copy=False)
                  + (grad_mean * inv_n).astype(x.dtype, copy=False))
    if needs[1]:
        grad_w = unbroadcast(grad * normalized, weight.shape)
    if needs[2]:
        grad_b = unbroadcast(grad, bias.shape)
    return (grad_x, grad_w, grad_b)


register_op("layer_norm", _layer_norm_fw, _layer_norm_vjp,
            sample=lambda rng: ([_sn(rng, 2, 3, 5), _sn(rng, 5), _sn(rng, 5)],
                                {"eps": 1e-5}))


def _quadratic_form_fw(ctx, x, matrices):
    """Batched general quadratic form: ``y_o = xᵀ M_o x`` for stacked ``M``.

    ``x`` has shape ``(..., n)`` and ``matrices`` ``(m, n, n)``; the output
    has shape ``(..., m)``.  This replaces the per-output Python loop of the
    general quadratic baseline with two batched contractions.
    """
    lead = x.shape[:-1]
    n = x.shape[-1]
    x2 = x.reshape(-1, n)
    # proj[b, o, j] = sum_i x2[b, i] * M[o, i, j]
    proj = np.tensordot(x2, matrices, axes=([1], [1]))
    value = (proj * x2[:, None, :]).sum(axis=-1)
    if ctx.requires_grad:
        ctx.saved = proj
    return value.reshape(lead + (matrices.shape[0],))


def _quadratic_form_vjp(ctx, grad, needs):
    x, matrices = ctx.inputs
    n = x.shape[-1]
    x2 = x.reshape(-1, n)
    grad2 = grad.reshape(-1, matrices.shape[0])
    grad_x = grad_m = None
    if needs[0]:
        proj = ctx.saved                                       # sum_i x_i M_oij
        proj_t = np.tensordot(x2, matrices, axes=([1], [2]))   # sum_j M_oij x_j
        grad_x = (grad2[:, None, :] @ (proj + proj_t))[:, 0].reshape(x.shape)
    if needs[1]:
        # grad_m[o, i, j] = sum_b (grad2[b, o] * x2[b, i]) * x2[b, j]: one
        # gemm, with a (b, o·i) temporary rather than a (b, i·j) one.
        weighted = (grad2[:, :, None] * x2[:, None, :]).reshape(x2.shape[0], -1)
        grad_m = (weighted.T @ x2).reshape(matrices.shape)
    return (grad_x, grad_m)


register_op("quadratic_form", _quadratic_form_fw, _quadratic_form_vjp,
            sample=lambda rng: ([_sn(rng, 2, 4), _sn(rng, 3, 4, 4, scale=0.3)], {}))


def _quadratic_response_fw(ctx, x, weight, q_weight, lambdas, bias=None, *,
                           rank, vectorized=True, out_features=None):
    """Fused proposed-neuron response ``{y, fᵏ}`` (Sec. III of the paper).

    ``x``: (..., n); ``weight``: (m, n); ``q_weight``: (n, m·k);
    ``lambdas``: (m, k); optional ``bias``: (m,).  Output is
    ``concat([y, f], -1)`` of width ``m·(k+1)`` when ``vectorized`` else just
    ``y`` of width ``m`` — exactly the unfused composition
    ``EfficientQuadraticLinear`` used to build node by node.  A narrower
    ``out_features`` returns the leading features only, as a view of that
    output, so the layer's trim needs no separate ``getitem``.
    """
    m = weight.shape[0]
    f = x @ q_weight                                     # (..., m*k)
    g = f.reshape(x.shape[:-1] + (m, rank))
    quad = (g * g * lambdas).sum(axis=-1)                # (..., m)
    lin = x @ weight.T
    if bias is not None:
        lin = lin + bias
    y = lin + quad
    if ctx.requires_grad:
        ctx.saved = g
    out = np.concatenate([y, f], axis=-1) if vectorized else y
    if out_features is not None and out_features < out.shape[-1]:
        return out[..., :out_features]
    return out


def _quadratic_response_vjp(ctx, grad, needs):
    x, weight, q_weight, lambdas = ctx.inputs[:4]
    has_bias = len(ctx.inputs) == 5
    rank = ctx.kwargs["rank"]
    vectorized = ctx.kwargs.get("vectorized", True)
    g = ctx.saved
    m = weight.shape[0]
    width = m * (rank + 1) if vectorized else m
    if grad.shape[-1] < width:
        # Zero-pad back to the untrimmed width, as the trimming getitem's VJP
        # did: adding into zeros (not assigning) turns -0.0 into +0.0 like it.
        full = np.zeros(grad.shape[:-1] + (width,), dtype=grad.dtype)
        full[..., :grad.shape[-1]] += grad
        grad = full

    grad_y = grad[..., :m]
    # Gradient flowing into the projections f: the quadratic term contributes
    # 2 Λ f · dy, and in vectorized mode f is also a direct output.
    grad_f = (2.0 * (g * lambdas) * grad_y[..., None]).reshape(x.shape[:-1] + (m * rank,))
    if vectorized:
        grad_f = grad_f + grad[..., m:]

    grad_x = grad_w = grad_q = grad_l = grad_b = None
    if needs[0]:
        grad_x = grad_y @ weight + grad_f @ q_weight.T
    x2, grad_y2, grad_f2 = _flatten_leading(x, grad_y, grad_f)
    if needs[1]:
        grad_w = grad_y2.T @ x2
    if needs[2]:
        grad_q = x2.T @ grad_f2
    if needs[3]:
        grad_l = (g * g * grad_y[..., None]).reshape(-1, m, rank).sum(axis=0)
    if has_bias and needs[4]:
        grad_b = grad_y2.sum(axis=0)
    result = (grad_x, grad_w, grad_q, grad_l)
    return result + (grad_b,) if has_bias else result


def _quadratic_response_sample(rng):
    n, m, k = 5, 3, 2
    return ([_sn(rng, 2, n), _sn(rng, m, n), _sn(rng, n, m * k),
             _sn(rng, m, k, scale=0.5), _sn(rng, m)],
            {"rank": k, "vectorized": True, "out_features": m * (k + 1) - 1})


register_op("quadratic_response", _quadratic_response_fw, _quadratic_response_vjp,
            sample=_quadratic_response_sample)


# ---------------------------------------------------------------------------
# Fused convolutional quadratic kernel
# ---------------------------------------------------------------------------

def _quadratic_conv2d_fw(ctx, x, weight, q_weight, lambdas, bias=None, *,
                         stride=1, padding=0, rank, vectorized=True):
    """Fused quadratic convolution (Fig. 3 of the paper).

    One im2col extraction and ONE matmul against the stacked filter bank
    ``[w; Qᵏ]`` produce both the linear responses and the projections fᵏ —
    the unfused path runs two full convolutions over the same input (two
    im2col in the forward, two col2im in the backward).

    ``x``: (N, C, H, W); ``weight``: (m, C, K, K); ``q_weight``:
    (m·k, C, K, K); ``lambdas``: (m, k); optional ``bias``: (m,).
    Output: (N, m·(k+1), H', W') channel-first when ``vectorized``
    (responses first, projections after), else (N, m, H', W').
    """
    m = weight.shape[0]
    kernel_size = weight.shape[-1]
    cols = im2col(x, kernel_size, stride, padding)               # (N, OH, OW, C*K*K)
    flat_w = weight.reshape(m, -1)
    flat_q = q_weight.reshape(m * rank, -1)
    stacked = np.concatenate([flat_w, flat_q], axis=0)           # (m + m*k, n)
    response = cols @ stacked.T                                  # (N, OH, OW, m + m*k)
    lin = response[..., :m]
    f = response[..., m:]
    if bias is not None:
        lin = lin + bias
    g = np.ascontiguousarray(f).reshape(f.shape[:3] + (m, rank))
    quad = (g * g * lambdas).sum(axis=-1)
    y = lin + quad
    if ctx.requires_grad:
        ctx.saved = (cols, g, stacked)
    if vectorized:
        out = np.concatenate([y, f], axis=-1)
    else:
        out = y
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _quadratic_conv2d_vjp(ctx, grad, needs):
    x, weight, q_weight, lambdas = ctx.inputs[:4]
    has_bias = len(ctx.inputs) == 5
    stride = ctx.kwargs.get("stride", 1)
    padding = ctx.kwargs.get("padding", 0)
    rank = ctx.kwargs["rank"]
    vectorized = ctx.kwargs.get("vectorized", True)
    cols, g, stacked = ctx.saved
    m = weight.shape[0]
    kernel_size = weight.shape[-1]

    grad_y = grad[:, :m].transpose(0, 2, 3, 1)                   # (N, OH, OW, m)
    grad_f = (2.0 * (g * lambdas) * grad_y[..., None]).reshape(g.shape[:3] + (m * rank,))
    if vectorized:
        grad_f = grad_f + grad[:, m:].transpose(0, 2, 3, 1)

    grad_x = grad_w = grad_q = grad_l = grad_b = None
    grad_stacked = np.concatenate([grad_y, grad_f], axis=-1)     # (N, OH, OW, m + m*k)
    if needs[0]:
        grad_cols = grad_stacked @ stacked                       # (N, OH, OW, C*K*K)
        grad_x = col2im(grad_cols, x.shape, kernel_size, stride, padding)
    if needs[1] or needs[2]:
        grad_rows = grad_stacked.reshape(grad_stacked.shape[0], -1, grad_stacked.shape[-1])
        grad_bank = _weight_grad(grad_rows.transpose(0, 2, 1), cols)  # (m + m*k, C*K*K)
        if needs[1]:
            grad_w = grad_bank[:m].reshape(weight.shape)
        if needs[2]:
            grad_q = grad_bank[m:].reshape(q_weight.shape)
    if needs[3]:
        grad_l = (g * g * grad_y[..., None]).reshape(-1, m, rank).sum(axis=0)
    if has_bias and needs[4]:
        grad_b = grad_y.sum(axis=(0, 1, 2))
    result = (grad_x, grad_w, grad_q, grad_l)
    return result + (grad_b,) if has_bias else result


def _quadratic_conv2d_sample(rng):
    m, k = 2, 2
    return ([_sn(rng, 2, 2, 4, 4), _sn(rng, m, 2, 3, 3), _sn(rng, m * k, 2, 3, 3),
             _sn(rng, m, k, scale=0.5), _sn(rng, m)],
            {"stride": 1, "padding": 1, "rank": k, "vectorized": True})


register_op("quadratic_conv2d", _quadratic_conv2d_fw, _quadratic_conv2d_vjp,
            sample=_quadratic_conv2d_sample)
