"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the user-facing layer of the autograd stack.  The heavy
lifting lives one level down:

* :mod:`repro.tensor.ops` — the declarative op registry; every primitive
  (forward + VJP + gradcheck sample) is declared exactly once.
* :mod:`repro.tensor.engine` — the graph executor; owns dispatch
  (:func:`~repro.tensor.engine.apply_op`), topological sorting, in-place
  gradient accumulation, interior-gradient freeing, and per-op timing hooks.

:class:`Tensor` itself is deliberately thin: each operator method forwards to
``engine.apply_op("<op>", ...)`` and :meth:`Tensor.backward` delegates to
``engine.backward``.  The engine supports full NumPy broadcasting; gradients
of broadcast operands are reduced back to the operand's shape with
:func:`repro.tensor.ops.unbroadcast`.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import apply_op, is_grad_enabled, no_grad
from .ops import unbroadcast

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast", "DEFAULT_DTYPE"]

DEFAULT_DTYPE = np.float32


def _as_array(value, dtype=None) -> np.ndarray:
    array = np.asarray(value)
    if dtype is not None:
        return array.astype(dtype, copy=False)
    if not np.issubdtype(array.dtype, np.floating):
        return array.astype(DEFAULT_DTYPE)
    return array


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_op", "_ctx",
                 "_grad_owned")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _op: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._op = _op
        self._ctx = None
        self._grad_owned = False

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(*shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype or DEFAULT_DTYPE), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, requires_grad: bool = False, rng: np.random.Generator | None = None,
              scale: float = 1.0, dtype=None) -> "Tensor":
        rng = rng or np.random.default_rng()
        data = rng.standard_normal(shape).astype(dtype or DEFAULT_DTYPE) * scale
        return Tensor(data, requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(array, requires_grad=requires_grad)

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() on tensor of size {self.data.size}; only size-1 tensors "
                f"can be converted to a Python scalar (shape {self.shape})")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph bookkeeping --------------------------------------------------

    def _accumulate(self, grad: np.ndarray, fan_in: int = 1) -> None:
        """Add ``grad`` into ``self.grad``.

        The first contribution is stored by reference; when ``fan_in`` says
        more are coming it is promoted to a privately-owned buffer so later
        contributions are in-place ``+=`` instead of reallocating.
        """
        dtype = self.data.dtype
        grad = np.asarray(grad)
        owned = False
        if grad.dtype != dtype:
            grad = grad.astype(dtype)
            owned = True
        if self.grad is None:
            if fan_in > 1 and not owned:
                grad = grad.copy()
                owned = True
            self.grad = grad
            self._grad_owned = owned
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor to every reachable leaf.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  May
            be omitted only for scalar tensors, in which case it defaults to 1.
        """
        engine.backward(self, grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        return apply_op("add", self, other)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op("neg", self)

    def __sub__(self, other) -> "Tensor":
        return apply_op("sub", self, other)

    def __rsub__(self, other) -> "Tensor":
        return apply_op("sub", other, self)

    def __mul__(self, other) -> "Tensor":
        return apply_op("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return apply_op("div", self, other)

    def __rtruediv__(self, other) -> "Tensor":
        return apply_op("div", other, self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return apply_op("pow", self, exponent=exponent)

    def __matmul__(self, other) -> "Tensor":
        return apply_op("matmul", self, other)

    # -- elementwise functions ----------------------------------------------

    def exp(self) -> "Tensor":
        return apply_op("exp", self)

    def log(self) -> "Tensor":
        return apply_op("log", self)

    def sqrt(self) -> "Tensor":
        return apply_op("sqrt", self)

    def abs(self) -> "Tensor":
        return apply_op("abs", self)

    def tanh(self) -> "Tensor":
        return apply_op("tanh", self)

    def sigmoid(self) -> "Tensor":
        return apply_op("sigmoid", self)

    def relu(self) -> "Tensor":
        return apply_op("relu", self)

    def clip(self, min_value: float | None = None, max_value: float | None = None) -> "Tensor":
        return apply_op("clip", self, min_value=min_value, max_value=max_value)

    def maximum(self, other) -> "Tensor":
        return apply_op("maximum", self, other)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("max", self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op("reshape", self, shape=shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        return apply_op("transpose", self, axes=axes)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def expand_dims(self, axis: int) -> "Tensor":
        return apply_op("expand_dims", self, axis=axis)

    def squeeze(self, axis: int) -> "Tensor":
        return apply_op("squeeze", self, axis=axis)

    def __getitem__(self, index) -> "Tensor":
        index = index.data.astype(np.int64) if isinstance(index, Tensor) else index
        return apply_op("getitem", self, index=index)

    def pad(self, pad_width, constant_value: float = 0.0) -> "Tensor":
        return apply_op("pad", self, pad_width=pad_width, constant_value=constant_value)

    # -- composition helpers --------------------------------------------------

    @staticmethod
    def cat(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` (differentiable)."""
        return apply_op("cat", *tensors, axis=axis)

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        expanded = [t.expand_dims(axis) for t in tensors]
        return Tensor.cat(expanded, axis=axis)


# Hand the executor its output class (resolves the engine <-> tensor cycle).
engine._TENSOR_CLS = Tensor
