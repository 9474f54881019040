"""Tests for the convolution / unfold / pooling primitives."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    check_gradients,
    col2im,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    im2col,
    max_pool2d,
    unfold,
)


def _naive_conv2d(x, w, b, stride, padding):
    """Direct quadruple-loop reference convolution."""
    n, c_in, h, width = x.shape
    c_out, _, k, _ = w.shape
    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(width, k, stride, padding)
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = x_pad[:, :, i * stride:i * stride + k, j * stride:j * stride + k]
            for f in range(c_out):
                out[:, f, i, j] = (patch * w[f]).sum(axis=(1, 2, 3))
    if b is not None:
        out += b[None, :, None, None]
    return out


class TestConvOutputSize:
    @pytest.mark.parametrize("size,k,s,p,expected", [
        (32, 3, 1, 1, 32),
        (32, 3, 2, 1, 16),
        (8, 3, 1, 0, 6),
        (7, 2, 2, 0, 3),
        (5, 5, 1, 2, 5),
    ])
    def test_formula(self, size, k, s, p, expected):
        assert conv_output_size(size, k, s, p) == expected


class TestIm2Col:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_shape(self):
        x = self.rng.standard_normal((2, 3, 8, 8))
        cols = im2col(x, 3, 1, 1)
        assert cols.shape == (2, 8, 8, 27)

    def test_patch_content(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 1, 0)
        # top-left 2x2 patch
        np.testing.assert_allclose(cols[0, 0, 0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[0, 2, 2], [10, 11, 14, 15])

    def test_col2im_adjointness(self):
        """col2im must be the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = self.rng.standard_normal((2, 3, 6, 6))
        cols = im2col(x, 3, 2, 1)
        y = self.rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 2, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_unfold_gradcheck(self):
        x = Tensor(self.rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        check_gradients(lambda: (unfold(x, 3, 2, 1) ** 2).sum(), [x], tolerance=1e-4)


class TestConv2d:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_naive_reference(self, stride, padding):
        x = self.rng.standard_normal((2, 3, 7, 7))
        w = self.rng.standard_normal((4, 3, 3, 3))
        b = self.rng.standard_normal(4)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = _naive_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_no_bias(self):
        x = self.rng.standard_normal((1, 2, 5, 5))
        w = self.rng.standard_normal((3, 2, 3, 3))
        out = conv2d(Tensor(x), Tensor(w), None, padding=1)
        assert out.shape == (1, 3, 5, 5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 4, 3, 3))))

    def test_rectangular_kernel_raises(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((3, 2, 3, 2))))

    def test_gradients(self):
        x = Tensor(self.rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(self.rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(self.rng.standard_normal(3) * 0.1, requires_grad=True)

        def objective():
            return conv2d(x, w, b, stride=2, padding=1).tanh().sum()

        check_gradients(objective, [x, w, b], tolerance=1e-4)

    def test_1x1_convolution(self):
        x = self.rng.standard_normal((2, 4, 6, 6))
        w = self.rng.standard_normal((8, 4, 1, 1))
        out = conv2d(Tensor(x), Tensor(w), None)
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)


class TestPooling:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradients_flow_to_argmax_only(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4), requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_pool_gradcheck(self):
        x = Tensor(self.rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        check_gradients(lambda: max_pool2d(x * 1.0, 2).sum(), [x], tolerance=1e-4)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_overlapping_windows_gradcheck(self, stride):
        """An input pixel in several windows sums the gradients of each it wins."""
        values = self.rng.permutation(2 * 7 * 7).astype(np.float64) * 0.1
        x = Tensor(values.reshape(1, 2, 7, 7), requires_grad=True)
        out = conv_output_size(7, 3, stride, 0)
        weights = Tensor(self.rng.standard_normal((1, 2, out, out)))
        check_gradients(lambda: (max_pool2d(x * 1.0, 3, stride=stride) * weights).sum(),
                        [x], tolerance=1e-4)

    def test_global_avg_pool(self):
        x = self.rng.standard_normal((2, 3, 4, 4))
        out = global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), rtol=1e-5)

    def test_stride_differs_from_kernel(self):
        x = self.rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        out = max_pool2d(Tensor(x), 3, stride=1)
        assert out.shape == (1, 1, 4, 4)
