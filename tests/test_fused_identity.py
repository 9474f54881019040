"""Byte identity of the fused kernels against the compositions they replace.

``layer_norm`` must reproduce the 11-primitive LayerNorm composition, and a
width-trimmed ``quadratic_response`` must reproduce the full-width op plus
the ``getitem`` trim it absorbed, in the bytes of outputs and gradients.
"""

import numpy as np
import pytest

from repro import nn
from repro.quadratic import EfficientQuadraticLinear
from repro.tensor import Tensor, quadratic_response


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
