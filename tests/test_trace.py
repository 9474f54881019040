"""Trace-and-replay inference compiler: tracing, fusion, arena, plan cache."""

import numpy as np
import pytest

import repro.tensor.engine as engine
from repro.models import CifarResNet, MLPClassifier, SimpleCNN, Transformer
from repro.models.resnet import ResNet18
from repro.serve import InferenceSession
from repro.tensor import Tensor, apply_op, graph_nodes_created, no_grad
from repro.tensor.ops import OPS, OpContext
from repro.tensor.plan import (
    FALLBACK,
    PlanCache,
    _ComposedStep,
    compile_forward,
    compile_plan,
    plan_key,
)
from repro.tensor.trace import TraceError, record_trace


def _float_inputs(batch: int, shape: tuple, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((batch, *shape)) \
        .astype(np.float32)


# Small configurations of every servable float-input zoo model.
ZOO = {
    "simple_cnn": (lambda: SimpleCNN(num_classes=4, neuron_type="proposed",
                                     rank=2, base_width=4, image_size=8,
                                     seed=0),
                   (3, 8, 8)),
    "mlp_classifier": (lambda: MLPClassifier(in_features=48, num_classes=5,
                                             neuron_type="proposed", seed=0),
                       (48,)),
    "cifar_resnet": (lambda: CifarResNet(depth=8, num_classes=4,
                                         neuron_type="proposed", rank=2,
                                         base_width=4, seed=0),
                     (3, 8, 8)),
    "resnet18": (lambda: ResNet18(num_classes=4, neuron_type="proposed",
                                  rank=2, base_width=8, seed=0),
                 (3, 16, 16)),
}


class TestZooModelReplay:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_replay_byte_identical_across_batch_sizes(self, name):
        build, shape = ZOO[name]
        model = build().eval()
        for batch in (2, 5):
            x = _float_inputs(batch, shape, seed=batch)
            plan, traced_out = compile_forward(model, x)
            assert plan is not None, f"{name} failed to compile"
            with no_grad():
                expected = model(Tensor(x)).data
            assert traced_out.shape == expected.shape
            assert traced_out.dtype == expected.dtype
            assert traced_out.tobytes() == expected.tobytes()
            replayed = plan.replay(x)
            assert replayed.shape == expected.shape
            assert replayed.dtype == expected.dtype
            assert replayed.tobytes() == expected.tobytes()

    def test_transformer_falls_back_but_dispatch_still_works(self):
        model = Transformer(src_vocab_size=11, tgt_vocab_size=13, model_dim=16,
                            num_heads=2, num_layers=1, hidden_dim=32,
                            max_len=8, seed=0).eval()
        src = np.array([[1, 2, 3, 0], [4, 5, 0, 0]], dtype=np.int64)
        tgt = np.array([[1, 6, 0], [2, 7, 8]], dtype=np.int64)
        plan, out = compile_forward(model, src, tgt)
        assert plan is None  # int token ids cannot become trace inputs
        assert out is None
        with no_grad():
            logits = model(src, tgt)
        assert logits.shape == (2, 3, 13)

    def test_replay_allocates_no_graph_nodes_and_no_tensors(self):
        build, shape = ZOO["simple_cnn"]
        model = build().eval()
        x = _float_inputs(3, shape)
        plan, _ = compile_forward(model, x)
        assert plan is not None

        created = 0
        original_init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal created
            created += 1
            original_init(self, *args, **kwargs)

        nodes_before = graph_nodes_created()
        Tensor.__init__ = counting_init
        try:
            plan.replay(x)
        finally:
            Tensor.__init__ = original_init
        assert graph_nodes_created() == nodes_before
        assert created == 0


class TestFusionAndArena:
    def test_elementwise_chain_fuses_into_one_step(self):
        def forward(x):
            return ((x * 2.0 + 1.0).relu()).sum()

        x = _float_inputs(2, (5,))
        trace = record_trace(forward, x)
        plan = compile_plan(trace)
        composed = [s for s in plan.steps if isinstance(s, _ComposedStep)]
        assert len(composed) == 1
        assert composed[0].name == "fused(mul+add+relu)"
        assert plan.fused_chains == 1
        assert plan.fused_ops == 3
        with no_grad():
            expected = forward(Tensor(x)).data
        assert plan.replay(x).tobytes() == expected.tobytes()

    def test_multi_consumer_intermediate_breaks_the_chain(self):
        def forward(x):
            y = x + 1.0
            return (y * y).sum()  # y has two consumers → must materialize

        x = _float_inputs(2, (4,))
        plan = compile_plan(record_trace(forward, x))
        assert plan.fused_chains == 0
        with no_grad():
            expected = forward(Tensor(x)).data
        assert plan.replay(x).tobytes() == expected.tobytes()

    def test_multi_consumer_chain_root_still_fuses_downstream(self):
        def forward(x):
            y = x + 1.0
            return (y.relu() * y).sum()  # add breaks; relu+mul still fuse

        x = _float_inputs(2, (4,))
        plan = compile_plan(record_trace(forward, x))
        chains = [s for s in plan.steps
                  if isinstance(s, _ComposedStep) and len(s.names) > 1]
        assert [s.name for s in chains] == ["fused(relu+mul)"]
        with no_grad():
            expected = forward(Tensor(x)).data
        assert plan.replay(x).tobytes() == expected.tobytes()

    def test_zoo_models_fuse_batchnorm_activation_chains(self):
        build, shape = ZOO["cifar_resnet"]
        plan, _ = compile_forward(build().eval(), _float_inputs(2, shape))
        assert plan.fused_chains >= 1
        assert plan.fused_ops >= 2 * plan.fused_chains
        assert plan.arena_bytes > 0

    def test_arena_buffers_are_reused_across_replays(self):
        def forward(x):
            return ((x * 3.0).tanh() + 0.5).sum()

        x = _float_inputs(2, (6,))
        plan = compile_plan(record_trace(forward, x))
        composed = [s for s in plan.steps if isinstance(s, _ComposedStep)]
        assert composed
        buffer_before = composed[0].buffer
        first = plan.replay(x)
        assert composed[0].buffer is buffer_before  # no reallocation
        second = plan.replay(x)
        assert first.tobytes() == second.tobytes()
        assert plan.replays == 2

    def test_aliased_output_is_copied_out_of_the_arena(self):
        def forward(x):
            return (x + 1.0).relu().reshape(4, 2)

        x = _float_inputs(2, (4,))
        trace = record_trace(forward, x)
        plan = compile_plan(trace)
        assert plan.copy_output  # reshape view of a fused chain's buffer
        first = plan.replay(x)
        snapshot = first.copy()
        plan.replay(x + 1.0)  # overwrite the arena with different data
        assert first.tobytes() == snapshot.tobytes()  # caller's array intact
        for step in plan.steps:
            buffer = getattr(step, "buffer", None)
            if buffer is not None:
                assert not np.shares_memory(first, buffer)

    def test_constants_are_referenced_not_folded(self):
        weight = Tensor(np.full((3,), 2.0, dtype=np.float32))

        def forward(x):
            return (x * weight).sum()

        x = _float_inputs(2, (3,))
        plan = compile_plan(record_trace(forward, x))
        before = plan.replay(x)
        np.multiply(weight.data, 10.0, out=weight.data)  # in-place update
        after = plan.replay(x)
        assert after == pytest.approx(before * 10.0)


def _out_contract_cases():
    """Every elementwise op at float32/float64; ``pow`` also at the exponents
    ``a ** e`` special-cases (square, sqrt, reciprocal)."""
    for name in sorted(n for n, opdef in OPS.items() if opdef.elementwise):
        for dtype in (np.float32, np.float64):
            exponents = (None, 2, 0.5, -1) if name == "pow" else (None,)
            for exponent in exponents:
                label = name if exponent is None else f"{name}**{exponent}"
                yield pytest.param(name, dtype, exponent,
                                   id=f"{label}-{np.dtype(dtype).name}")


def _out_contract_inputs(name, dtype, exponent):
    inputs, kwargs = OPS[name].sample(np.random.default_rng(0))
    inputs = [np.asarray(x, dtype=dtype) for x in inputs]
    if exponent is not None:
        inputs = [np.abs(x) + 0.5 for x in inputs]  # sqrt/reciprocal-safe
        kwargs = {**kwargs, "exponent": exponent}
    return inputs, kwargs


class TestElementwiseOutContract:
    """Plans run every elementwise op through ``forward(..., out=buffer)``;
    that call must write the exact bytes the dispatched call returns."""

    @pytest.mark.parametrize("name,dtype,exponent", _out_contract_cases())
    def test_out_returns_buffer_with_dispatch_bytes(self, name, dtype, exponent):
        inputs, kwargs = _out_contract_inputs(name, dtype, exponent)
        forward = OPS[name].forward
        ctx = OpContext(tuple(inputs), kwargs, False)
        expected = np.asarray(forward(ctx, *inputs, **kwargs))
        buffer = np.full(expected.shape, 7, expected.dtype)
        assert forward(ctx, *inputs, out=buffer, **kwargs) is buffer
        assert buffer.tobytes() == expected.tobytes()

        first = inputs[0]
        if first.shape == expected.shape and first.dtype == expected.dtype:
            alias = first.copy()
            result = forward(ctx, alias, *inputs[1:], out=alias, **kwargs)
            assert result is alias
            assert alias.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name,dtype,exponent", _out_contract_cases())
    def test_one_op_plan_replays_dispatch_bytes(self, name, dtype, exponent):
        inputs, kwargs = _out_contract_inputs(name, dtype, exponent)

        def forward(*tensors):
            # The reshape keeps the op off the output step, so it lowers to
            # an arena step writing through ``out=``.
            return apply_op(name, *tensors, **kwargs).reshape(-1)

        with np.errstate(all="ignore"):  # validation draws negative inputs
            plan, _ = compile_forward(forward, *inputs)
            assert plan is not None, f"{name} plan fell back to dispatch"
            assert [s.names for s in plan.steps
                    if isinstance(s, _ComposedStep)] == [(name,)]
            with no_grad():
                expected = forward(*[Tensor(x) for x in inputs]).data
            replayed = plan.replay(*inputs)
        assert replayed.dtype == expected.dtype
        assert replayed.tobytes() == expected.tobytes()


class TestTraceRecording:
    def test_non_tensor_output_raises(self):
        with pytest.raises(TraceError, match="return a Tensor"):
            record_trace(lambda x: x.sum().item(), _float_inputs(1, (3,)))

    def test_output_computed_outside_apply_op_raises(self):
        with pytest.raises(TraceError, match="outside apply_op"):
            record_trace(lambda x: Tensor(np.zeros(3)), _float_inputs(1, (3,)))

    def test_integer_inputs_raise(self):
        with pytest.raises(TraceError, match="float ndarrays"):
            record_trace(lambda x: x.sum(), np.arange(4, dtype=np.int64))

    def test_nested_trace_raises(self):
        def forward(x):
            record_trace(lambda y: y.sum(), np.ones(2, dtype=np.float32))
            return x.sum()

        with pytest.raises(TraceError, match="already being recorded"):
            record_trace(forward, _float_inputs(1, (3,)))
        assert engine._state.tracer is None  # cleaned up despite the error

    def test_validation_catches_baked_in_python_math(self):
        def forward(x):
            # Array math outside the registry: the trace bakes in this run's
            # result, so validation on fresh inputs must reject the plan.
            shift = float(np.asarray(x.data).sum())
            return x + shift

        x = _float_inputs(2, (3,))
        plan, out = compile_forward(forward, x)
        assert plan is None
        assert out is not None  # the dispatched answer is still usable


class TestPlanCacheAndSession:
    def test_cache_stores_fallback_sentinel(self):
        cache = PlanCache()
        key = plan_key(((2, 3),), (np.float32,))
        assert cache.lookup(key) is None
        cache.store(key, None)
        assert cache.lookup(key) is FALLBACK
        stats = cache.stats()
        assert stats["plans"] == 0
        assert stats["fallback_keys"] == 1
        assert stats["misses"] == 1
        assert stats["fallbacks"] == 1

    def _session(self, **kwargs):
        build, shape = ZOO["simple_cnn"]
        return InferenceSession(build(), max_batch=8, **kwargs), shape

    def test_shape_change_misses_and_retraces(self):
        session, shape = self._session()
        session.predict(_float_inputs(2, shape))
        session.predict(_float_inputs(2, shape))
        session.predict(_float_inputs(3, shape))  # new batch size → new plan
        stats = session.plan_stats()
        assert stats["plans"] == 2
        assert stats["misses"] == 2
        assert stats["hits"] == 1
        assert stats["replays"] == 1

    def test_warm_compiles_the_steady_state_plan(self):
        session, shape = self._session()
        assert session.warm(shape, batch_sizes=(4,)) is True
        assert session.plan_stats()["plans"] == 1
        session.predict(_float_inputs(4, shape))
        assert session.plan_stats()["hits"] == 1

    def test_compile_false_always_dispatches(self):
        session, shape = self._session(compile=False)
        session.predict(_float_inputs(2, shape))
        stats = session.plan_stats()
        assert stats["compile"] is False
        assert stats["plans"] == 0
        assert stats["misses"] == 0

    def test_compiled_session_matches_dispatching_session(self):
        compiled, shape = self._session()
        dispatched, _ = self._session(compile=False)
        dispatched.model = compiled.model  # same weights
        x = _float_inputs(5, shape)
        first = compiled.predict(x)   # traces
        second = compiled.predict(x)  # replays
        reference = dispatched.predict(x)
        assert first.tobytes() == reference.tobytes()
        assert second.tobytes() == reference.tobytes()

    def test_describe_reports_plan_cache(self):
        session, shape = self._session()
        session.predict(_float_inputs(2, shape))
        description = session.describe()
        assert description["plan_cache"]["plans"] == 1
        assert description["plan_cache"]["compile"] is True


class TestEngineSatellites:
    def test_timing_hooks_snapshot_during_emission(self):
        calls = []

        def self_removing(name, seconds):
            calls.append(("first", name))
            engine.remove_op_timing_hook(self_removing)

        def counting(name, seconds):
            calls.append(("second", name))

        engine.add_op_timing_hook(self_removing)
        engine.add_op_timing_hook(counting)
        try:
            (Tensor(np.ones(2, dtype=np.float32)) + 1.0)  # one dispatch
            # The snapshot taken at dispatch time still ran both hooks even
            # though the first removed itself mid-emission.
            assert ("first", "add") in calls
            assert ("second", "add") in calls
            calls.clear()
            (Tensor(np.ones(2, dtype=np.float32)) + 1.0)
            assert calls == [("second", "add")]
        finally:
            engine.remove_op_timing_hook(counting)
        assert isinstance(engine._TIMING_HOOKS, tuple)

    def test_apply_op_accepts_mixed_tensor_and_raw_inputs(self):
        a = Tensor(np.arange(3, dtype=np.float32))
        out = apply_op("add", a, np.ones(3, dtype=np.float32))
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])

    def test_apply_op_all_tensor_inputs_skip_rewrapping(self):
        a = Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32))
        out = apply_op("add", a, b)
        out.backward(np.ones(3, dtype=np.float32))
        np.testing.assert_allclose(a.grad, np.ones(3))
