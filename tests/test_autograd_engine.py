"""Tests for the op registry, graph executor, and fused quadratic kernels.

Covers the autograd edge cases the engine must honour (nested no_grad,
mixed-dimension unbroadcast, double backward, diamond graphs), the registry
contract (every op declares a VJP and a gradcheck sample), per-op timing
hooks, and the bit-level equivalence of the fused quadratic hot-path kernels
with their unfused compositions.
"""

import numpy as np
import pytest

from repro.metrics.profiler import profile_model
from repro.nn.layers import Conv2d, Linear
from repro.quadratic import EfficientQuadraticConv2d, EfficientQuadraticLinear
from repro.tensor import (
    Tensor,
    add_op_timing_hook,
    apply_op,
    graph_nodes_created,
    is_grad_enabled,
    no_grad,
    op_names,
    remove_op_timing_hook,
    unbroadcast,
)
from repro.tensor.ops import OPS


class TestGradMode:
    def test_nested_no_grad_restores_each_level(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            # Leaving the inner block must keep gradients disabled.
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested_no_grad_blocks_graph_at_every_depth(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                inner = x * 2
            outer = x * 3
        assert not inner.requires_grad and not outer.requires_grad
        assert inner._parents == () and outer._parents == ()

    def test_no_grad_as_decorator(self):
        x = Tensor([2.0], requires_grad=True)

        @no_grad()
        def run(value):
            assert not is_grad_enabled()
            return value * 3

        out = run(x)
        assert not out.requires_grad and out._parents == ()
        assert is_grad_enabled()  # mode restored after the call

    def test_no_grad_decorator_restores_mode_on_exception(self):
        @no_grad()
        def boom():
            raise RuntimeError("inference failed")

        with pytest.raises(RuntimeError, match="inference failed"):
            boom()
        assert is_grad_enabled()

    def test_no_grad_decorator_nests_with_context_manager(self):
        @no_grad()
        def run():
            return is_grad_enabled()

        with no_grad():
            assert run() is False
            # Leaving the decorated call must keep the outer block's mode.
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_decorator_preserves_metadata(self):
        @no_grad()
        def documented():
            """docs survive wrapping"""

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "docs survive wrapping"


class TestGraphNodeCounter:
    def test_counts_only_recorded_nodes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        constant = Tensor([3.0, 4.0])
        before = graph_nodes_created()
        (x * 2 + 1).sum()           # three recorded nodes: mul, add, sum
        assert graph_nodes_created() - before == 3
        before = graph_nodes_created()
        constant * 2                # no requires_grad input → nothing recorded
        assert graph_nodes_created() == before

    def test_no_grad_region_creates_zero_nodes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        before = graph_nodes_created()
        with no_grad():
            ((x * 2 + 1) ** 2).sum()
        assert graph_nodes_created() == before


class TestUnbroadcastMixed:
    def test_added_dims_and_size_one_dims_together(self):
        # grad (4, 2, 3) -> shape (1, 3): sum over the added leading dim AND
        # the size-1 broadcast dim in one call.
        grad = np.ones((4, 2, 3))
        reduced = unbroadcast(grad, (1, 3))
        assert reduced.shape == (1, 3)
        np.testing.assert_allclose(reduced, np.full((1, 3), 8.0))

    def test_mixed_through_real_ops(self):
        a = Tensor(np.ones((1, 3), dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones((4, 2, 3), dtype=np.float64), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (1, 3)
        np.testing.assert_allclose(a.grad, np.full((1, 3), 8.0))
        assert b.grad.shape == (4, 2, 3)


class TestBackwardSemantics:
    def test_double_backward_accumulates_into_leaves(self):
        # Fresh graphs per call: plain accumulation into the leaf.
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).sum().backward()
        first = x.grad.copy()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_double_backward_same_root_compounds_root_grad(self):
        # Historical engine semantics: the root retains its gradient, so a
        # second backward() on the SAME root accumulates 1 into the root
        # first (root grad 1 -> 2) and pushes the doubled gradient down:
        # leaf receives 3, then 2 * 3 on the second pass.
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 3).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0, 3.0])
        y.backward()
        np.testing.assert_allclose(y.grad, 2.0)
        np.testing.assert_allclose(x.grad, [9.0, 9.0])

    def test_double_backward_does_not_mutate_retained_grad_array(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).sum()
        y.backward()
        retained = x.grad
        snapshot = retained.copy()
        y.backward()
        # The previously handed-out array must not have been written in place.
        np.testing.assert_allclose(retained, snapshot)

    def test_diamond_graph_accumulates_once_per_path(self):
        # z = left + right with both arms sharing the subgraph y = x * x:
        #   dz/dx = d(y*3)/dx + d(y*2)/dx = 5 * 2x = 30 at x = 3.
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = (y * 3 + y * 2).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [30.0])

    def test_deep_diamond_shared_subgraph(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
        shared = (x * 2).tanh()
        left = (shared * shared).sum()
        right = shared.sum()
        (left + right).backward()
        t = np.tanh(2 * x.data)
        expected = (2 * t + 1) * (1 - t ** 2) * 2
        np.testing.assert_allclose(x.grad, expected, rtol=1e-6)

    def test_interior_gradients_are_freed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        hidden = x * 2
        out = (hidden * 3).sum()
        out.backward()
        assert hidden.grad is None          # interior: freed after propagation
        assert out.grad is not None          # root keeps its gradient
        assert x.grad is not None            # leaf keeps its gradient

    def test_leaf_grads_are_private_and_writable(self):
        # sum's VJP emits a read-only broadcast view; the retained leaf grad
        # must be materialized into a private writable buffer.
        w = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        w.sum().backward()
        assert w.grad.flags.writeable
        w.grad[0] = 5.0          # user code may mutate .grad in place
        assert w.grad[0] == 5.0

    def test_leaf_grad_does_not_alias_caller_gradient(self):
        w = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        out = w.sum()
        seed_grad = np.ones((), dtype=np.float64)
        out.backward(seed_grad)
        seed_grad[...] = 100.0
        np.testing.assert_allclose(w.grad, [1.0, 1.0, 1.0])

    def test_sibling_leaf_grads_do_not_share_storage(self):
        # Same-shape add passes the gradient through by reference to both
        # parents; each retained leaf grad must still be a private buffer.
        a = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        seed = np.full(3, 2.0)
        (a + b).backward(seed)
        assert a.grad is not b.grad
        assert a.grad is not seed and b.grad is not seed
        a.grad[0] = 99.0
        seed[...] = -1.0
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_backward_through_same_parent_twice(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).sum()                    # x appears twice as parent
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])


class TestRegistryContract:
    def test_every_op_declares_vjp_and_sample(self):
        for name in op_names():
            opdef = OPS[name]
            assert opdef.vjp is not None, f"op '{name}' lacks a VJP"
            assert opdef.sample is not None, f"op '{name}' lacks a gradcheck sample"

    def test_core_primitives_are_registered(self):
        registered = set(op_names())
        for expected in ["add", "mul", "div", "pow", "matmul", "exp", "log", "sum",
                         "max", "transpose", "reshape", "getitem",
                         "conv2d", "unfold", "softmax", "log_softmax",
                         "quadratic_response", "quadratic_conv2d"]:
            assert expected in registered, f"missing op '{expected}'"

    def test_unknown_op_raises_with_listing(self):
        with pytest.raises(KeyError, match="unknown op"):
            apply_op("definitely_not_an_op", Tensor([1.0]))

    def test_duplicate_registration_rejected(self):
        from repro.tensor.ops import register_op
        with pytest.raises(ValueError, match="already registered"):
            register_op("add", lambda ctx, a: a, lambda ctx, g, n: (g,))


class TestTimingHooks:
    def test_forward_and_backward_ops_are_timed(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        timed = []

        def hook(name, seconds):
            timed.append((name, seconds))

        add_op_timing_hook(hook)
        try:
            ((x @ x).relu().sum()).backward()
        finally:
            remove_op_timing_hook(hook)
        names = [name for name, _ in timed]
        assert names.count("matmul") == 1
        assert names.count("matmul:backward") == 1
        assert names.count("relu") == 1
        assert all(seconds >= 0.0 for _, seconds in timed)

    def test_removed_hook_stops_observing(self):
        from repro.tensor import engine
        timed = []
        add_op_timing_hook(timed.append)
        remove_op_timing_hook(timed.append)
        assert engine._TIMING_HOOKS == ()
        (Tensor(np.ones((2, 2))) @ Tensor(np.ones((2, 2)))).sum()
        assert timed == []


class TestItemError:
    def test_item_on_size_one(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)

    def test_item_on_larger_tensor_raises_clear_error(self):
        with pytest.raises(ValueError, match=r"item\(\) on tensor of size 6"):
            Tensor(np.zeros((2, 3))).item()


class TestProfilerRuleMatching:
    @staticmethod
    def _macs(layer, shape):
        return profile_model(layer, Tensor(np.zeros(shape, dtype=np.float32))).total_macs

    def test_subclasses_of_profiled_layers_match(self):
        class MyConv(Conv2d):
            pass

        class MyLinear(Linear):
            pass

        rng = np.random.default_rng(0)
        assert self._macs(MyConv(3, 8, 3, rng=rng), (1, 3, 6, 6)) == \
            self._macs(Conv2d(3, 8, 3, rng=rng), (1, 3, 6, 6)) == 4 * 4 * 8 * 27
        assert self._macs(MyLinear(4, 2, rng=rng), (1, 4)) == \
            self._macs(Linear(4, 2, rng=rng), (1, 4)) == 8

    def test_most_derived_rule_wins(self):
        from repro.quadratic.baselines import GeneralQuadraticConv2d, PureQuadraticConv2d
        from repro.quadratic.complexity import neuron_complexity
        # PureQuadraticConv2d subclasses GeneralQuadraticConv2d; it must be
        # charged its own "pure" cost (no linear-term MACs), not the general
        # one it would inherit.
        pure = PureQuadraticConv2d(2, 3, 3, rng=np.random.default_rng(0))
        general = GeneralQuadraticConv2d(2, 3, 3, rng=np.random.default_rng(0))
        fan_in = 2 * 3 * 3
        per_position = 4 * 4 * 3
        assert self._macs(pure, (1, 2, 6, 6)) == \
            per_position * neuron_complexity("pure", fan_in, 1).macs
        assert self._macs(general, (1, 2, 6, 6)) == \
            per_position * neuron_complexity("general", fan_in, 1).macs
        assert neuron_complexity("pure", fan_in).macs != \
            neuron_complexity("general", fan_in).macs


def _dense_pair(vectorized, seed=0):
    layer = EfficientQuadraticLinear(6, 3, rank=2, vectorized_output=vectorized,
                                     lambda_init=0.3, rng=np.random.default_rng(seed))
    for parameter in layer.parameters():
        parameter.data = parameter.data.astype(np.float64)
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((5, 6)), requires_grad=True)
    return layer, x


def _conv_pair(vectorized, seed=0):
    layer = EfficientQuadraticConv2d(2, 2, 3, padding=1, rank=2,
                                     vectorized_output=vectorized, lambda_init=0.3,
                                     rng=np.random.default_rng(seed))
    for parameter in layer.parameters():
        parameter.data = parameter.data.astype(np.float64)
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((2, 2, 5, 5)),
               requires_grad=True)
    return layer, x


class TestFusedEquivalence:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_dense_forward_matches_unfused(self, vectorized):
        layer, x = _dense_pair(vectorized)
        fused = layer(x)
        unfused = layer._forward_unfused(x)
        np.testing.assert_allclose(fused.data, unfused.data, atol=1e-5, rtol=0)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_dense_gradients_match_unfused(self, vectorized):
        layer, x = _dense_pair(vectorized)
        weights = np.random.default_rng(7).standard_normal(layer(x).shape)

        def grads(forward):
            for parameter in layer.parameters():
                parameter.zero_grad()
            x.zero_grad()
            (forward(x) * Tensor(weights)).sum().backward()
            return [x.grad.copy()] + [p.grad.copy() for p in layer.parameters()]

        fused_grads = grads(layer)
        unfused_grads = grads(layer._forward_unfused)
        assert len(fused_grads) == len(unfused_grads)
        for fused_grad, unfused_grad in zip(fused_grads, unfused_grads):
            np.testing.assert_allclose(fused_grad, unfused_grad, atol=1e-5, rtol=1e-6)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_conv_forward_matches_unfused(self, vectorized):
        layer, x = _conv_pair(vectorized)
        fused = layer(x)
        unfused = layer._forward_unfused(x)
        np.testing.assert_allclose(fused.data, unfused.data, atol=1e-5, rtol=0)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_conv_gradients_match_unfused(self, vectorized):
        layer, x = _conv_pair(vectorized)
        weights = np.random.default_rng(8).standard_normal(layer(x).shape)

        def grads(forward):
            for parameter in layer.parameters():
                parameter.zero_grad()
            x.zero_grad()
            (forward(x) * Tensor(weights)).sum().backward()
            return [x.grad.copy()] + [p.grad.copy() for p in layer.parameters()]

        fused_grads = grads(layer)
        unfused_grads = grads(layer._forward_unfused)
        for fused_grad, unfused_grad in zip(fused_grads, unfused_grads):
            np.testing.assert_allclose(fused_grad, unfused_grad, atol=1e-5, rtol=1e-6)

    def test_trimmed_output_width_preserved(self):
        layer = EfficientQuadraticLinear.for_output_features(
            6, 8, rank=2, rng=np.random.default_rng(3))
        out = layer(Tensor(np.zeros((2, 6), dtype=np.float32)))
        assert out.shape == (2, 8)
