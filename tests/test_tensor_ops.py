"""Unit tests for the autograd Tensor: forward semantics and graph behaviour."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled, unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert np.issubdtype(t.dtype, np.floating)

    def test_int_input_is_cast_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.floating)

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_zeros_ones(self):
        assert np.all(Tensor.zeros(2, 3).data == 0)
        assert np.all(Tensor.ones(4).data == 1)
        assert Tensor.zeros(2, 3).shape == (2, 3)

    def test_randn_with_seed_is_deterministic(self):
        a = Tensor.randn(5, rng=np.random.default_rng(0))
        b = Tensor.randn(5, rng=np.random.default_rng(0))
        np.testing.assert_allclose(a.data, b.data)

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmetic:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])

    def test_add_scalar(self):
        np.testing.assert_allclose((Tensor([1.0, 2.0]) + 1.5).data, [2.5, 3.5])
        np.testing.assert_allclose((1.5 + Tensor([1.0, 2.0])).data, [2.5, 3.5])

    def test_sub_and_rsub(self):
        a = Tensor([5.0, 3.0])
        np.testing.assert_allclose((a - 1.0).data, [4.0, 2.0])
        np.testing.assert_allclose((10.0 - a).data, [5.0, 7.0])

    def test_mul_div(self):
        a = Tensor([2.0, 4.0])
        np.testing.assert_allclose((a * 3).data, [6.0, 12.0])
        np.testing.assert_allclose((a / 2).data, [1.0, 2.0])
        np.testing.assert_allclose((8.0 / a).data, [4.0, 2.0])

    def test_neg_pow(self):
        a = Tensor([2.0, -3.0])
        np.testing.assert_allclose((-a).data, [-2.0, 3.0])
        np.testing.assert_allclose((a ** 2).data, [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, rtol=1e-5)

    def test_matmul_batched(self):
        a = self.rng.standard_normal((2, 3, 4))
        b = self.rng.standard_normal((2, 4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, rtol=1e-5)

    def test_matmul_vector(self):
        a = self.rng.standard_normal((3, 4))
        v = self.rng.standard_normal(4)
        np.testing.assert_allclose((Tensor(a) @ Tensor(v)).data, a @ v, rtol=1e-5)

    def test_broadcasting_add(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3, dtype=np.float32))
        assert (a + b).shape == (2, 3)

    def test_maximum(self):
        a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
        np.testing.assert_allclose(a.maximum(b).data, [3.0, 5.0])

    def test_clip(self):
        a = Tensor([-2.0, 0.5, 3.0])
        np.testing.assert_allclose(a.clip(-1.0, 1.0).data, [-1.0, 0.5, 1.0])

    def test_abs_sqrt_exp_log(self):
        a = Tensor([4.0])
        np.testing.assert_allclose(a.sqrt().data, [2.0])
        np.testing.assert_allclose(Tensor([-3.0]).abs().data, [3.0])
        np.testing.assert_allclose(Tensor([0.0]).exp().data, [1.0])
        np.testing.assert_allclose(Tensor([1.0]).log().data, [0.0])

    def test_activation_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(x.relu().data, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(x.tanh().data, np.tanh(x.data), rtol=1e-6)
        np.testing.assert_allclose(x.sigmoid().data, 1 / (1 + np.exp(-x.data)), rtol=1e-6)


class TestReductionsAndShapes:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.x = self.rng.standard_normal((3, 4, 5))

    def test_sum_axes(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t.sum().data, self.x.sum(), rtol=1e-5)
        np.testing.assert_allclose(t.sum(axis=1).data, self.x.sum(axis=1), rtol=1e-5)
        np.testing.assert_allclose(t.sum(axis=(0, 2), keepdims=True).data,
                                   self.x.sum(axis=(0, 2), keepdims=True), rtol=1e-5)

    def test_mean_var(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t.mean(axis=-1).data, self.x.mean(axis=-1), rtol=1e-5)
        np.testing.assert_allclose(t.var(axis=0).data, self.x.var(axis=0), rtol=1e-4)

    def test_max_min(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t.max(axis=2).data, self.x.max(axis=2), rtol=1e-6)
        np.testing.assert_allclose(t.min().data, self.x.min(), rtol=1e-6)

    def test_reshape_flatten(self):
        t = Tensor(self.x)
        assert t.reshape(12, 5).shape == (12, 5)
        assert t.reshape((3, 20)).shape == (3, 20)
        assert t.flatten(start_dim=1).shape == (3, 20)

    def test_transpose_and_T(self):
        t = Tensor(self.x)
        assert t.transpose(2, 0, 1).shape == (5, 3, 4)
        assert Tensor(np.zeros((2, 7))).T.shape == (7, 2)
        assert t.swapaxes(0, 2).shape == (5, 4, 3)

    def test_expand_squeeze(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.expand_dims(1).shape == (3, 1, 4)
        assert t.expand_dims(1).squeeze(1).shape == (3, 4)

    def test_getitem(self):
        t = Tensor(self.x)
        np.testing.assert_allclose(t[1].data, self.x[1])
        np.testing.assert_allclose(t[:, 2:4].data, self.x[:, 2:4])
        index = np.array([0, 2])
        np.testing.assert_allclose(t[index].data, self.x[index])

    def test_pad(self):
        t = Tensor(np.ones((2, 2)))
        padded = t.pad(((1, 1), (0, 2)), constant_value=5.0)
        assert padded.shape == (4, 4)
        assert padded.data[0, 0] == 5.0

    def test_cat_stack(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3)))
        assert Tensor.cat([a, b], axis=0).shape == (4, 3)
        assert Tensor.cat([a, b], axis=1).shape == (2, 6)
        assert Tensor.stack([a, b], axis=0).shape == (2, 2, 3)

    def test_item(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)


class TestAutogradMechanics:
    def test_backward_requires_grad_error(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3 + 1) ** 2
        y.backward()
        # dy/dx = 2*(3x+1)*3 = 42 at x=2
        np.testing.assert_allclose(x.grad, [42.0], rtol=1e-5)

    def test_gradient_accumulation_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 2).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_broadcast_gradient_shape(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_shared_subexpression(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = y + y
        z.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_state_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_non_requires_grad_inputs_produce_no_graph(self):
        a, b = Tensor([1.0]), Tensor([2.0])
        c = a + b
        assert not c.requires_grad
        assert c._ctx is None


class TestUnbroadcast:
    def test_identity(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)).shape == (2, 3)

    def test_sum_leading_dims(self):
        grad = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(grad, (2, 3)), np.full((2, 3), 4.0))

    def test_sum_size_one_dims(self):
        grad = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(grad, (1, 3)), np.full((1, 3), 2.0))

    def test_scalar_target(self):
        grad = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(grad, ()), 6.0)
