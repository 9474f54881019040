"""Continuous-batching GenerationEngine: storms, backpressure, drain, stats."""

import threading
import time

import numpy as np
import pytest

from repro.models import Transformer
from repro.serve import EngineClosed, QueueFull
from repro.serve.generate import GenerationEngine, GenerationStrategy

BOS, EOS = 1, 2


def _tiny_transformer(max_len: int = 16, seed: int = 0) -> Transformer:
    model = Transformer(src_vocab_size=53, tgt_vocab_size=47, model_dim=16,
                        num_heads=4, num_layers=2, hidden_dim=32,
                        neuron_type="proposed", rank=2, max_len=max_len,
                        seed=seed)
    model.eval()
    return model


def _source(length: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(4, 53, size=length)


class TestSubmitValidation:
    def test_rejects_bad_sources_and_budgets(self):
        model = _tiny_transformer()
        with GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=2) as engine:
            with pytest.raises(ValueError, match="1-D"):
                engine.submit(np.zeros((2, 3), dtype=np.int64))
            with pytest.raises(ValueError, match="1-D"):
                engine.submit([])
            with pytest.raises(ValueError, match="capacity"):
                engine.submit(_source(17, 0))  # longer than max_len 16
            with pytest.raises(ValueError, match="max_new_tokens"):
                engine.submit(_source(4, 0), max_new_tokens=0)

    def test_constructor_validation(self):
        model = _tiny_transformer()
        with pytest.raises(ValueError, match="max_batch"):
            GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=0)
        with pytest.raises(ValueError, match="queue_size"):
            GenerationEngine(model, bos_id=BOS, eos_id=EOS, queue_size=0)


class TestContinuousBatchingStorm:
    def test_storm_matches_sequential_greedy_decode(self):
        """N staggered clients with mixed budgets get exactly the tokens a
        sequential greedy_decode of their own source would produce."""
        model = _tiny_transformer()
        sources = [_source(length, seed)
                   for seed, length in enumerate([5, 7, 3, 6, 4, 8, 5, 6,
                                                  7, 4, 3, 5])]
        budgets = [15, 3, 7, 1, 15, 5, 2, 9, 15, 4, 6, 8]
        expected = [model.greedy_decode(source[None, :], bos_id=BOS,
                                        eos_id=EOS)[0][:budget]
                    for source, budget in zip(sources, budgets)]

        engine = GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=4,
                                  max_wait_ms=1.0)
        futures: list = [None] * len(sources)

        def client(index: int) -> None:
            time.sleep(0.002 * (index % 5))  # staggered arrivals
            futures[index] = engine.submit(sources[index],
                                           max_new_tokens=budgets[index])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(sources))]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=30) for future in futures]
        finally:
            engine.close()

        for index, (result, want) in enumerate(zip(results, expected)):
            assert result["tokens"] == want, f"request {index} diverged"
            assert len(result["logprobs"]) == len(result["tokens"])
            assert all(lp <= 0.0 for lp in result["logprobs"])
            assert result["finish_reason"] in ("eos", "length", "max_len")
            assert result["steps"] == len(result["tokens"])

        stats = engine.stats()
        assert stats["requests"] == len(sources)
        assert stats["generation"]["completed"] == len(sources)
        # Continuous batching actually shared forwards across sequences.
        assert stats["mean_batch_rows"] > 1.0

    def test_outputs_independent_of_co_arriving_traffic(self):
        """A request's tokens do not depend on what else is in flight."""
        model = _tiny_transformer()
        probe = _source(6, 99)
        with GenerationEngine(model, bos_id=BOS, eos_id=EOS,
                              max_batch=4) as engine:
            alone = engine.submit(probe).result(timeout=30)
            noise = [engine.submit(_source(5, seed), max_new_tokens=10)
                     for seed in range(6)]
            crowded = engine.submit(probe).result(timeout=30)
            for future in noise:
                future.result(timeout=30)
        assert alone["tokens"] == crowded["tokens"]
        assert alone["logprobs"] == crowded["logprobs"]


class TestSamplingDeterminism:
    def test_pinned_seed_reproduces_across_submissions(self):
        model = _tiny_transformer()
        source = _source(6, 1)
        with GenerationEngine(model, bos_id=BOS, eos_id=EOS,
                              max_batch=3) as engine:
            first = engine.submit(source, strategy="sample", temperature=0.8,
                                  top_k=5, seed=123).result(timeout=30)
            # crowd the pool so scheduling differs the second time around
            noise = [engine.submit(_source(4, s), max_new_tokens=6)
                     for s in range(3)]
            second = engine.submit(source, strategy="sample", temperature=0.8,
                                   top_k=5, seed=123).result(timeout=30)
            for future in noise:
                future.result(timeout=30)
        assert first["tokens"] == second["tokens"]
        assert first["logprobs"] == second["logprobs"]

    def test_unpinned_requests_draw_distinct_streams(self):
        model = _tiny_transformer()
        source = _source(6, 1)
        with GenerationEngine(model, bos_id=BOS, eos_id=EOS,
                              max_batch=2) as engine:
            results = [engine.submit(source, strategy="sample",
                                     temperature=2.0).result(timeout=30)
                       for _ in range(2)]
        # With temperature 2.0 over 47 tokens, identical 15-step streams
        # from independent seeds are (astronomically) unlikely.
        assert results[0]["tokens"] != results[1]["tokens"]


class TestBackpressureAndDrain:
    def test_queue_full_raises_and_close_fails_queued_futures(self):
        model = _tiny_transformer()
        engine = GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=1,
                                  queue_size=2, autostart=False)
        queued = [engine.submit(_source(4, seed)) for seed in range(2)]
        with pytest.raises(QueueFull, match="retry with backoff"):
            engine.submit(_source(4, 9))
        engine.close()
        for future in queued:
            with pytest.raises(EngineClosed):
                future.result(timeout=5)

    def test_close_drains_active_and_queued_work(self):
        """Everything submitted before close() resolves — no stranded futures."""
        model = _tiny_transformer()
        engine = GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=1,
                                  queue_size=16)
        futures = [engine.submit(_source(5, seed), max_new_tokens=10)
                   for seed in range(5)]
        engine.close()
        for future in futures:
            assert future.done()
            try:
                result = future.result(timeout=0)
            except EngineClosed:
                continue  # failed fast rather than hanging: acceptable drain
            assert result["finish_reason"] in ("eos", "length", "max_len")

    def test_close_finishes_active_and_fails_queued_without_leaking(
            self, monkeypatch):
        """One slot, one sequence decoding, a full queue behind it, then
        close(): the sequence finishes, every queued request fails with
        EngineClosed, close() is quick, and the scheduler thread is gone."""
        def repro_threads():
            return sum(thread.name.startswith("repro-")
                       for thread in threading.enumerate())

        baseline = repro_threads()
        model = _tiny_transformer()
        decode_step = model.decode_step
        decoding, release = threading.Event(), threading.Event()

        def held_decode_step(*args, **kwargs):
            decoding.set()
            release.wait(10)
            return decode_step(*args, **kwargs)

        monkeypatch.setattr(model, "decode_step", held_decode_step)
        engine = GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=1,
                                  queue_size=3)
        active = engine.submit(_source(5, 0), max_new_tokens=4)
        assert decoding.wait(10)  # the one slot is busy decoding
        queued = [engine.submit(_source(5, seed)) for seed in range(1, 4)]
        with pytest.raises(QueueFull):
            engine.submit(_source(5, 9))

        releaser = threading.Timer(0.2, release.set)
        releaser.start()
        started = time.monotonic()
        engine.close()
        elapsed = time.monotonic() - started
        releaser.join()

        assert elapsed < 3.0, f"close() took {elapsed:.1f}s on a full queue"
        assert active.result(timeout=0)["finish_reason"] in ("eos", "length")
        for future in queued:
            with pytest.raises(EngineClosed):
                future.result(timeout=0)
        assert repro_threads() == baseline

    def test_crashed_scheduler_fails_active_and_queued_futures(self):
        class Broken(GenerationStrategy):
            name = "broken"

            def select(self, logits, rng):
                raise RuntimeError("strategy bug")

        engine = GenerationEngine(_tiny_transformer(), bos_id=BOS, eos_id=EOS,
                                  max_batch=1, autostart=False)
        active = engine.submit(_source(5, 0), strategy=Broken())
        queued = engine.submit(_source(5, 1))
        engine.start()
        with pytest.raises(RuntimeError, match="strategy bug"):
            active.result(timeout=10)
        with pytest.raises(EngineClosed):
            queued.result(timeout=10)
        engine.close()
        assert engine.stats()["closed"] is True
        assert not engine._thread.is_alive()

    def test_submit_after_close_is_rejected(self):
        model = _tiny_transformer()
        engine = GenerationEngine(model, bos_id=BOS, eos_id=EOS)
        engine.close()
        with pytest.raises(EngineClosed, match="closed"):
            engine.submit(_source(4, 0))

    def test_close_is_idempotent(self):
        engine = GenerationEngine(_tiny_transformer(), bos_id=BOS, eos_id=EOS)
        engine.close()
        engine.close()


class TestStatsSchema:
    def test_flat_schema_mirrors_queued_engine(self):
        model = _tiny_transformer()
        with GenerationEngine(model, bos_id=BOS, eos_id=EOS, max_batch=2,
                              queue_size=7, max_wait_ms=1.5) as engine:
            engine.submit(_source(5, 0), max_new_tokens=4).result(timeout=30)
            stats = engine.stats()
        assert set(stats) == {"engine", "requests", "samples", "batches",
                              "mean_batch_rows", "queue_depth", "queue_size",
                              "max_batch", "max_wait_ms", "closed",
                              "generation"}
        assert stats["engine"] == "generation"
        assert stats["requests"] == 1
        assert stats["samples"] == stats["generation"]["tokens_generated"]
        assert stats["queue_size"] == 7
        assert stats["max_batch"] == 2
        assert stats["max_wait_ms"] == 1.5

    def test_generation_section_schema_and_occupancy(self):
        model = _tiny_transformer()
        with GenerationEngine(model, bos_id=BOS, eos_id=EOS,
                              max_batch=2) as engine:
            engine.submit(_source(5, 0), max_new_tokens=3).result(timeout=30)
            section = engine.stats()["generation"]
        assert set(section) == {"tokens_generated", "completed",
                                "active_sequences", "mean_batch_occupancy",
                                "slots", "cache"}
        assert section["completed"] == 1
        assert section["active_sequences"] == 0
        assert 0.0 < section["mean_batch_occupancy"] <= 1.0
        assert section["slots"] == 2
        assert section["cache"]["slots"] == 2
