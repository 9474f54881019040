"""Incremental KV-cached decoding: byte-identity with the full-prefix path."""

from collections import Counter

import numpy as np
import pytest

from repro.data import SyntheticTranslationTask
from repro.experiments import get_scale
from repro.experiments.table2 import build_transformer
from repro.models import Transformer
from repro.serve.generate import (
    GreedyStrategy,
    SamplingStrategy,
    make_strategy,
    token_logprobs,
)
from repro.tensor import add_op_timing_hook, no_grad, remove_op_timing_hook
from repro.training import Seq2SeqTrainer

BOS, EOS, PAD = 1, 2, 0


def _tiny_transformer(max_len: int = 24, seed: int = 0,
                      neuron_type: str = "proposed") -> Transformer:
    # Odd vocabulary sizes on purpose: the generator projection then has a
    # SIMD tail block, the hardest case for the byte-identity guarantee.
    model = Transformer(src_vocab_size=53, tgt_vocab_size=47, model_dim=16,
                        num_heads=4, num_layers=2, hidden_dim=32,
                        neuron_type=neuron_type, rank=2, max_len=max_len,
                        seed=seed)
    model.eval()
    return model


def _sources(batch: int, length: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(4, 53, size=(batch, length))


def _reference_last_logits(model: Transformer, src_ids: np.ndarray,
                           prefix: np.ndarray) -> np.ndarray:
    """Full-prefix recompute: logits for the last position of each row."""
    with no_grad():
        memory, src_mask = model.encode(src_ids)
        logits = model.decode(prefix, memory, src_mask)
    return logits.data[:, -1, :].copy()


class TestByteIdentity:
    @pytest.mark.parametrize("batch", [2, 5])
    def test_decode_step_matches_full_prefix_recompute(self, batch):
        """Every step's logits are byte-for-byte those of the O(T²) path."""
        model = _tiny_transformer()
        src_ids = _sources(batch, 7, seed=batch)
        tokens = np.random.default_rng(batch + 100).integers(
            4, 47, size=(batch, 10))
        state = model.start_decode(src_ids)
        prefix = np.full((batch, 1), BOS, dtype=np.int64)
        rows = np.arange(batch)
        fed = np.full(batch, BOS, dtype=np.int64)
        for step in range(10):
            incremental = model.decode_step(state, fed, rows=rows)
            reference = _reference_last_logits(model, src_ids, prefix)
            assert np.array_equal(incremental, reference), \
                f"batch={batch} step={step}: logits diverged"
            fed = tokens[:, step]
            prefix = np.concatenate([prefix, fed[:, None]], axis=1)

    def test_ragged_sources_and_early_retirement(self):
        """Rows with padded sources that retire at different steps stay exact."""
        model = _tiny_transformer()
        src_ids = _sources(3, 8, seed=7)
        src_ids[0, 5:] = PAD  # ragged: row 0 is shorter
        src_ids[2, 3:] = PAD  # row 2 shorter still
        tokens = np.random.default_rng(9).integers(4, 47, size=(3, 9))
        state = model.start_decode(src_ids)
        prefix = np.full((3, 1), BOS, dtype=np.int64)
        active = np.arange(3)
        fed = np.full(3, BOS, dtype=np.int64)
        for step in range(9):
            incremental = model.decode_step(state, fed[active], rows=active)
            reference = _reference_last_logits(model, src_ids[active],
                                               prefix[active])
            assert np.array_equal(incremental, reference)
            fed = tokens[:, step]
            prefix = np.concatenate([prefix, fed[:, None]], axis=1)
            if step == 3:  # retire the middle row; survivors must not move
                active = np.array([0, 2])
            elif step == 6:
                active = np.array([2])

    @pytest.mark.parametrize("batch", [2, 5])
    def test_greedy_decode_matches_reference(self, batch):
        model = _tiny_transformer(max_len=20)
        src_ids = _sources(batch, 6, seed=batch + 20)
        incremental = model.greedy_decode(src_ids, bos_id=BOS, eos_id=EOS)
        reference = model.greedy_decode_reference(src_ids, bos_id=BOS,
                                                  eos_id=EOS)
        assert incremental == reference

    def test_linear_neuron_model_is_also_identical(self):
        model = _tiny_transformer(neuron_type="linear")
        src_ids = _sources(3, 5, seed=42)
        assert model.greedy_decode(src_ids, bos_id=BOS, eos_id=EOS) == \
            model.greedy_decode_reference(src_ids, bos_id=BOS, eos_id=EOS)


class TestCacheLifecycle:
    def test_cache_grows_across_capacity_boundary_and_stays_exact(self):
        """Cache doubling mid-decode does not perturb a single byte."""
        model = _tiny_transformer(max_len=16)
        src_ids = _sources(2, 5, seed=3)
        state = model.new_decode_state(2, src_capacity=5, initial_capacity=4)
        model.prefill(state, np.arange(2), src_ids)
        tokens = np.random.default_rng(5).integers(4, 47, size=(2, 15))
        prefix = np.full((2, 1), BOS, dtype=np.int64)
        fed = np.full(2, BOS, dtype=np.int64)
        for step in range(15):  # crosses capacity 4 → 8 → 16
            incremental = model.decode_step(state, fed)
            reference = _reference_last_logits(model, src_ids, prefix)
            assert np.array_equal(incremental, reference), \
                f"step {step} (capacity {state.capacity}) diverged"
            fed = tokens[:, step]
            prefix = np.concatenate([prefix, fed[:, None]], axis=1)
        assert state.grows >= 2
        assert state.capacity == 16
        assert int(state.lengths.max()) == 15

    def test_long_windows_agree_to_rounding_and_argmax(self):
        """Past window 15 the recompute rewrites its own history's bytes
        (BLAS K=16 reduction regrouping), so exact equality is impossible
        for any caching decoder — but agreement stays at the last bits and
        the argmax never moves."""
        model = _tiny_transformer(max_len=40)
        src_ids = _sources(2, 5, seed=3)
        state = model.start_decode(src_ids)
        tokens = np.random.default_rng(5).integers(4, 47, size=(2, 30))
        prefix = np.full((2, 1), BOS, dtype=np.int64)
        fed = np.full(2, BOS, dtype=np.int64)
        for step in range(30):
            incremental = model.decode_step(state, fed)
            reference = _reference_last_logits(model, src_ids, prefix)
            np.testing.assert_allclose(incremental, reference,
                                       rtol=0.0, atol=1e-12)
            assert np.array_equal(incremental.argmax(axis=-1),
                                  reference.argmax(axis=-1))
            fed = tokens[:, step]
            prefix = np.concatenate([prefix, fed[:, None]], axis=1)
        assert state.grows >= 1  # decoding 30 steps crossed capacity 16
        # Token-level greedy output is still exactly the reference's.
        assert model.greedy_decode(src_ids, bos_id=BOS, eos_id=EOS) == \
            model.greedy_decode_reference(src_ids, bos_id=BOS, eos_id=EOS)

    def test_step_past_max_len_is_rejected(self):
        model = _tiny_transformer(max_len=4)
        state = model.start_decode(_sources(1, 3, seed=0))
        fed = np.array([BOS])
        for _ in range(4):  # fills positions 0..3, the whole budget
            logits = model.decode_step(state, fed)
            fed = logits.argmax(axis=-1)
        with pytest.raises(ValueError, match="max_len"):
            model.decode_step(state, fed)

    def test_slot_reuse_after_reset_matches_fresh_state(self):
        """A recycled slot decodes exactly like a freshly allocated one."""
        model = _tiny_transformer()
        first = _sources(1, 6, seed=11)
        second = _sources(1, 4, seed=13)
        state = model.new_decode_state(2, src_capacity=8)
        slot = np.array([1])
        model.prefill(state, slot, first)
        fed = np.array([BOS])
        for _ in range(5):  # dirty the slot's caches
            fed = model.decode_step(state, fed, rows=slot).argmax(axis=-1)
        model.prefill(state, slot, second)  # recycle for a new sequence
        assert state.lengths[1] == 0
        fresh = model.start_decode(second)
        fed = np.array([BOS])
        for _ in range(5):
            reused = model.decode_step(state, fed, rows=slot)
            baseline = model.decode_step(fresh, fed)
            assert np.array_equal(reused, baseline)
            fed = reused.argmax(axis=-1)


class TestDispatchCount:
    """Decode is dispatch-bound, so the number of ops per forward is pinned.

    A composition that creeps back in (a LayerNorm built from primitives, a
    separate trim ``getitem`` per quadratic projection) fails here by name
    instead of showing up as a silent slowdown.
    """

    @staticmethod
    def _count(run) -> Counter:
        counts = Counter()

        def hook(name, seconds):
            counts[name] += 1

        add_op_timing_hook(hook)
        try:
            run()
        finally:
            remove_op_timing_hook(hook)
        return counts

    @staticmethod
    def _smoke_model() -> Transformer:
        scale = get_scale("smoke")
        task = SyntheticTranslationTask(train_size=8, test_size=4,
                                        seed=scale.seed + 31)
        return build_transformer(task, scale, neuron_type="proposed").eval()

    @staticmethod
    def _sources(batch: int) -> np.ndarray:  # ids inside the smoke vocabularies
        return np.random.default_rng(0).integers(4, 20, size=(batch, 6))

    def test_single_group_decode_step_dispatches_78_ops(self):
        model = self._smoke_model()
        state = model.start_decode(self._sources(3))
        model.decode_step(state, np.full(3, BOS))  # depth 0 runs two forwards
        counts = self._count(lambda: model.decode_step(state, np.full(3, 5)))
        assert sum(counts.values()) == 78, dict(counts)
        assert counts["layer_norm"] == 6 and "sqrt" not in counts, dict(counts)

    def test_one_source_prefill_dispatches_65_ops(self):
        model = self._smoke_model()
        state = model.new_decode_state(2, src_capacity=6)
        counts = self._count(lambda: model.prefill(state, np.array([1]),
                                                   self._sources(1)))
        assert sum(counts.values()) == 65, dict(counts)
        assert counts["getitem"] == 1, dict(counts)  # the embedding lookup only


class TestBleuIdentity:
    def test_evaluate_bleu_identical_across_decoders_at_smoke_scale(self):
        """The incremental decoder gives the reference decoder's hypotheses
        batch for batch, so the BLEU that ``evaluate_bleu`` scores from
        them is the reference decoder's BLEU."""
        scale = get_scale("smoke")
        task = SyntheticTranslationTask(train_size=32, test_size=16,
                                        seed=scale.seed + 31)
        model = build_transformer(task, scale, neuron_type="proposed")
        model.eval()
        source_ids, _, _ = task.test_arrays()
        options = {"bos_id": task.bos_id, "eos_id": task.eos_id,
                   "max_len": task.max_len}
        incremental, reference = [], []
        for start in range(0, len(source_ids), 32):
            batch = source_ids[start:start + 32]
            incremental.extend(model.greedy_decode(batch, **options))
            reference.extend(model.greedy_decode_reference(batch, **options))
        assert incremental == reference
        trainer = Seq2SeqTrainer(model, optimizer=None, loss_fn=None)
        scores = trainer.evaluate_bleu(task)
        assert scores["hypotheses"] == task.hypotheses_from_ids(reference)


class TestStrategies:
    def test_token_logprobs_normalize(self):
        logits = np.random.default_rng(0).standard_normal((3, 11))
        logprobs = token_logprobs(logits)
        assert np.allclose(np.exp(logprobs).sum(axis=-1), 1.0)

    def test_greedy_selects_argmax(self):
        logits = np.array([0.1, 3.0, -1.0, 2.9])
        rng = np.random.default_rng(0)
        assert GreedyStrategy().select(logits, rng) == 1

    def test_top_k_one_sampling_equals_greedy(self):
        logits = np.random.default_rng(1).standard_normal(17)
        rng = np.random.default_rng(2)
        strategy = SamplingStrategy(top_k=1)
        assert strategy.select(logits, rng) == int(logits.argmax())

    def test_top_k_restricts_support(self):
        logits = np.arange(10, dtype=float)
        strategy = SamplingStrategy(top_k=3)
        rng = np.random.default_rng(3)
        draws = {strategy.select(logits, rng) for _ in range(50)}
        assert draws <= {7, 8, 9}

    def test_make_strategy_dispatch(self):
        assert isinstance(make_strategy(None), GreedyStrategy)
        assert isinstance(make_strategy("greedy"), GreedyStrategy)
        assert isinstance(make_strategy(temperature=0.5), SamplingStrategy)
        assert isinstance(make_strategy(top_k=4), SamplingStrategy)

    def test_make_strategy_rejects_contradictions(self):
        with pytest.raises(ValueError):
            make_strategy("greedy", temperature=0.5)
        with pytest.raises(ValueError):
            make_strategy("beam")
        with pytest.raises(ValueError):
            SamplingStrategy(temperature=0.0)
        with pytest.raises(ValueError):
            SamplingStrategy(top_k=0)
