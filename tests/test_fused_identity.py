"""Byte identity of the fused kernels against the compositions they replace.

``layer_norm`` must reproduce the 11-primitive LayerNorm composition, a
width-trimmed ``quadratic_response`` must reproduce the full-width op plus
the ``getitem`` trim it absorbed, and the CNN's copy kernels (``im2col``,
``col2im``, ``max_pool2d``) must reproduce their sliding-window, ``argmax``
and ``np.add.at`` predecessors, in the bytes of outputs and gradients.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro import nn
from repro.quadratic import EfficientQuadraticLinear
from repro.tensor import Tensor, col2im, conv_output_size, im2col, quadratic_response
from repro.tensor.ops import OpContext, get_op


def _composed_layer_norm(layer: nn.LayerNorm, x: Tensor) -> Tensor:
    """The composition ``LayerNorm.forward`` dispatched before the fused op."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normalized = centered / (var + layer.eps).sqrt()
    return normalized * layer.weight + layer.bias


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(forward, x: Tensor, params, seed: np.ndarray):
    x.zero_grad()
    for param in params:
        param.zero_grad()
    out = forward(x)
    (out * Tensor(seed)).sum().backward()
    grads = [None if t.grad is None else t.grad.copy() for t in (x, *params)]
    return out.data.copy(), grads


class TestLayerNormIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 7), (2, 5, 28), (3, 1, 32), (6, 4, 28),
                                       (1, 9)])
    @pytest.mark.parametrize("needs", [(True, True, True), (True, False, False),
                                       (False, True, True), (True, True, False),
                                       (False, False, True)])
    def test_matches_composition_bytes(self, dtype, shape, needs):
        rng = np.random.default_rng(sum(shape))
        layer = nn.LayerNorm(shape[-1])
        layer.weight.data = (rng.standard_normal(shape[-1]) + 1).astype(np.float32)
        layer.bias.data = rng.standard_normal(shape[-1]).astype(np.float32)
        layer.weight.requires_grad, layer.bias.requires_grad = needs[1], needs[2]
        x = Tensor((rng.standard_normal(shape) * 3 + 1).astype(dtype),
                   requires_grad=needs[0])
        seed = rng.standard_normal(shape)
        params = [layer.weight, layer.bias]

        fused_out, fused_grads = _run(layer, x, params, seed)
        composed_out, composed_grads = _run(
            lambda t: _composed_layer_norm(layer, t), x, params, seed)

        # The composition's Python-float constants are weak: no promotion.
        assert fused_out.dtype == dtype
        assert _same_bytes(fused_out, composed_out)
        for name, need, fused, composed in zip(("x", "weight", "bias"), needs,
                                               fused_grads, composed_grads):
            assert (fused is None) == (not need), name
            if need:
                assert _same_bytes(fused, composed), f"{name} grad differs"

    def test_is_one_graph_node(self):
        layer = nn.LayerNorm(5)
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        out = layer(x)
        assert out._op == "layer_norm"
        assert out._parents == (x, layer.weight, layer.bias)


class TestTrimmedQuadraticIdentity:
    @staticmethod
    def _layer(dtype, vectorized, out_features):
        layer = EfficientQuadraticLinear(6, 3, rank=2, vectorized_output=vectorized,
                                         out_features=out_features, lambda_init=0.3,
                                         rng=np.random.default_rng(4))
        for param in layer.parameters():
            param.data = param.data.astype(dtype)
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 5, 6)).astype(dtype), requires_grad=True)
        return layer, x, rng.standard_normal((2, 5, out_features))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("vectorized,out_features", [(True, 7), (True, 8),
                                                         (False, 2)])
    def test_matches_full_width_op_plus_getitem_bytes(self, dtype, vectorized,
                                                      out_features):
        """The trim inside the op is the old ``output[..., :out_features]``."""
        layer, x, seed = self._layer(dtype, vectorized, out_features)
        params = layer.parameters()

        def full_then_getitem(t):
            full = quadratic_response(t, layer.weight, layer.q_weight, layer.lambdas,
                                      layer.bias, rank=2, vectorized=vectorized)
            return full[..., :out_features]

        fused_out, fused_grads = _run(layer, x, params, seed)
        sliced_out, sliced_grads = _run(full_then_getitem, x, params, seed)

        assert fused_out.shape == (2, 5, out_features)
        assert _same_bytes(fused_out, sliced_out)
        for fused, sliced in zip(fused_grads, sliced_grads):
            assert _same_bytes(fused, sliced)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("vectorized,out_features", [(True, 7), (False, 2)])
    def test_fused_matches_unfused(self, dtype, vectorized, out_features):
        """Same output bytes; the hand-derived VJP sums in another order."""
        layer, x, seed = self._layer(dtype, vectorized, out_features)
        params = layer.parameters()

        fused_out, fused_grads = _run(layer, x, params, seed)
        unfused_out, unfused_grads = _run(layer._forward_unfused, x, params, seed)

        assert _same_bytes(fused_out, unfused_out)
        for fused, unfused in zip(fused_grads, unfused_grads):
            assert fused.dtype == unfused.dtype
            np.testing.assert_allclose(fused, unfused, rtol=1e-5, atol=1e-6)

    def test_trim_is_not_a_separate_dispatch(self):
        layer = EfficientQuadraticLinear.for_output_features(
            6, 8, rank=2, rng=np.random.default_rng(3))
        out = layer(Tensor(np.ones((2, 6), dtype=np.float32), requires_grad=True))
        assert out.shape == (2, 8)
        assert out._op == "quadratic_response"


# The sliding-window kernels that ``im2col``, ``col2im`` and ``max_pool2d``
# replaced, kept verbatim as byte references.

def _old_im2col(x, kernel_size, stride, padding):
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                   mode="constant")
    windows = sliding_window_view(x, (kernel_size, kernel_size), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    windows = windows.transpose(0, 2, 3, 1, 4, 5)
    n, out_h, out_w = windows.shape[:3]
    flat_shape = (n, out_h, out_w, windows.shape[3] * kernel_size * kernel_size)
    return np.ascontiguousarray(windows.reshape(flat_shape))


def _old_col2im(cols, input_shape, kernel_size, stride, padding):
    n, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_size, stride, padding)
    out_w = conv_output_size(width, kernel_size, stride, padding)
    cols = cols.reshape(n, out_h, out_w, channels, kernel_size, kernel_size)
    padded = np.zeros((n, channels, height + 2 * padding, width + 2 * padding),
                      dtype=cols.dtype)
    for i in range(kernel_size):
        row_end = i + stride * out_h
        for j in range(kernel_size):
            col_end = j + stride * out_w
            padded[:, :, i:row_end:stride, j:col_end:stride] += \
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if padding == 0:
        return padded
    return padded[:, :, padding:padding + height, padding:padding + width]


def _old_max_pool2d_fw(ctx, x, kernel_size, stride=None):
    stride = stride or kernel_size
    n, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_size, stride, 0)
    out_w = conv_output_size(width, kernel_size, stride, 0)
    windows = sliding_window_view(x, (kernel_size, kernel_size), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    flat = windows.reshape(n, channels, out_h, out_w, -1)
    argmax = flat.argmax(axis=-1)
    if ctx.requires_grad:
        ctx.saved = (argmax, stride, out_h, out_w)
    return np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]


def _old_max_pool2d_vjp(ctx, grad, needs):
    (x,) = ctx.inputs
    kernel_size = ctx.kwargs["kernel_size"]
    argmax, stride, out_h, out_w = ctx.saved
    n, channels = x.shape[:2]
    grad_input = np.zeros_like(x)
    offsets_i, offsets_j = np.unravel_index(argmax, (kernel_size, kernel_size))
    base_i = (np.arange(out_h) * stride)[None, None, :, None]
    base_j = (np.arange(out_w) * stride)[None, None, None, :]
    rows = base_i + offsets_i
    cols_idx = base_j + offsets_j
    n_idx = np.arange(n)[:, None, None, None]
    c_idx = np.arange(channels)[None, :, None, None]
    np.add.at(grad_input, (n_idx, c_idx, rows, cols_idx), grad)
    return (grad_input,)


def _nans(dtype, count):
    """``count`` NaNs with distinct payloads, so the bytes tell which one won."""
    if dtype == np.float32:
        return (np.uint32(0x7FC00001) + np.arange(count, dtype=np.uint32)).view(dtype)
    return (np.uint64(0x7FF8000000000001) + np.arange(count, dtype=np.uint64)).view(dtype)


def _post_relu(rng, shape, dtype, specials=True):
    """ReLU output on a coarse grid: ties and −0.0; optionally NaNs and ±inf."""
    raw = np.round(rng.standard_normal(shape) * 2) / 2
    x = np.multiply(raw, raw > 0).astype(dtype)          # −0.0 where raw < 0
    if specials:
        flat = x.reshape(-1)
        picks = rng.choice(flat.size, size=3 * max(1, flat.size // 50), replace=False)
        thirds = np.array_split(picks, 3)
        flat[thirds[0]] = _nans(dtype, thirds[0].size)
        flat[thirds[1]] = np.inf
        flat[thirds[2]] = -np.inf
    return x


def _upstream(rng, shape, dtype):
    """A gradient with exact zeros of both signs among ordinary values."""
    grad = rng.standard_normal(shape).astype(dtype)
    grad[rng.random(shape) < 0.2] = -0.0
    grad[rng.random(shape) < 0.1] = 0.0
    return grad


_SHAPES = [(32, 8, 16, 16), (5, 3, 7, 9), (1, 1, 4, 4)]


class TestCopyKernelIdentity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_im2col_col2im_match_sliding_window_bytes(self, dtype, shape, padding, stride):
        rng = np.random.default_rng(sum(shape) + padding + 7 * stride)
        x = _post_relu(rng, shape, dtype)
        cols = im2col(x, 3, stride, padding)
        assert _same_bytes(cols, _old_im2col(x, 3, stride, padding))
        grad_cols = _upstream(rng, cols.shape, dtype)
        assert _same_bytes(col2im(grad_cols, shape, 3, stride, padding),
                           np.ascontiguousarray(_old_col2im(grad_cols, shape, 3, stride,
                                                            padding)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("specials", [True, False])
    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 1), (3, 2), (4, 4)])
    def test_max_pool2d_matches_argmax_bytes(self, dtype, shape, specials, kernel_size,
                                             stride):
        rng = np.random.default_rng(sum(shape) + kernel_size + 7 * stride)
        x = _post_relu(rng, shape, dtype, specials)
        kwargs = {"kernel_size": kernel_size, "stride": stride}
        op = get_op("max_pool2d")
        new_ctx = OpContext((x,), kwargs, requires_grad=True)
        old_ctx = OpContext((x,), kwargs, requires_grad=True)
        out = op.forward(new_ctx, x, **kwargs)
        assert _same_bytes(out, _old_max_pool2d_fw(old_ctx, x, **kwargs))
        grad = _upstream(rng, out.shape, dtype)
        (grad_x,) = op.vjp(new_ctx, grad, (True,))
        assert _same_bytes(grad_x, _old_max_pool2d_vjp(old_ctx, grad, (True,))[0])

    @pytest.mark.parametrize("kernel_size,stride", [(2, 2), (3, 1)])
    def test_max_pool2d_no_grad_forward(self, kernel_size, stride):
        rng = np.random.default_rng(1)
        x = _post_relu(rng, (5, 3, 7, 9), np.float32)
        kwargs = {"kernel_size": kernel_size, "stride": stride}
        ctx = OpContext((x,), kwargs, requires_grad=False)
        out = get_op("max_pool2d").forward(ctx, x, **kwargs)
        old = _old_max_pool2d_fw(OpContext((x,), kwargs, requires_grad=False), x, **kwargs)
        assert _same_bytes(out, old)
        assert ctx.saved is None
