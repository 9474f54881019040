"""Data-parallel training: sharding, byte-identity, preemption, crash recovery."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader
from repro.models import MLPClassifier, SimpleCNN
from repro.optim import SGD
from repro.parallel.seeding import derive_seed
from repro.parallel.worker import DEPTH_ENV
from repro.tensor import Tensor
from repro.training import DataParallelTrainer, DistributedTrainingError, Trainer, \
    shard_bounds
from repro.training.dp_worker import loss_spec_of


def _toy_classification(n=96, features=8, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, features)).astype(np.float32)
    targets = (inputs[:, 0] + inputs[:, 1] > 0).astype(np.int64)
    return inputs, targets


def _loader(seed=0, n=96, batch_size=32):
    inputs, targets = _toy_classification(n=n)
    return DataLoader(inputs, targets, batch_size=batch_size, shuffle=True, seed=seed)


def _mlp(seed=0):
    return MLPClassifier(8, 2, hidden_sizes=(16,), seed=seed)


def _params(model):
    return [parameter.data.copy() for parameter in model.parameters()]


def _assert_params_equal(left, right):
    for a, b in zip(left, right, strict=True):
        np.testing.assert_array_equal(a, b)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestShardBounds:
    def test_balanced_contiguous_cover(self):
        for total in (0, 1, 7, 32, 33, 100):
            for world_size in (1, 2, 3, 5, 8):
                bounds = shard_bounds(total, world_size)
                assert len(bounds) == world_size
                assert bounds[0][0] == 0 and bounds[-1][1] == total
                sizes = [end - start for start, end in bounds]
                # Contiguous: each shard starts where the previous one ended.
                for (_, end), (start, _) in zip(bounds, bounds[1:]):
                    assert start == end
                # Balanced: sizes differ by at most one, larger shards first.
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)
                assert sum(sizes) == total

    def test_non_divisible_distributes_remainder(self):
        assert shard_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_small_batch_leaves_empty_tail_shards(self):
        bounds = shard_bounds(2, 4)
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_bounds_depend_only_on_total_and_world_size(self):
        assert shard_bounds(33, 4) == shard_bounds(33, 4)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)


class TestDeriveSeedProperties:
    def test_train_dp_rank_seeds_pairwise_distinct(self):
        seeds = [derive_seed(0, "train-dp", rank) for rank in range(64)]
        assert len(set(seeds)) == len(seeds)

    def test_stable_across_calls(self):
        for rank in range(8):
            assert derive_seed(7, "train-dp", rank) == \
                derive_seed(7, "train-dp", rank)

    def test_distinct_across_root_seeds_and_namespaces(self):
        assert derive_seed(0, "train-dp", 0) != derive_seed(1, "train-dp", 0)
        assert derive_seed(0, "train-dp", 0) != derive_seed(0, "serve-pool", 0)


class TestDataParallelIdentity:
    def _fit(self, world_size, workers, epochs=2):
        model = _mlp(seed=0)
        trainer = DataParallelTrainer(
            model, SGD(model.parameters(), lr=0.1), nn.CrossEntropyLoss(),
            world_size=world_size, workers=workers, seed=0)
        try:
            history = trainer.fit(_loader(), epochs=epochs)
        finally:
            trainer.close()
        return _params(model), history, trainer

    def test_world_size_one_matches_plain_trainer_bitwise(self):
        model = _mlp(seed=0)
        plain = Trainer(model, SGD(model.parameters(), lr=0.1),
                        nn.CrossEntropyLoss())
        plain_history = plain.fit(_loader(), epochs=2)
        dp_params, dp_history, _ = self._fit(world_size=1, workers=1)
        _assert_params_equal(_params(model), dp_params)
        assert plain_history.to_list() == dp_history.to_list()

    def test_worker_count_never_changes_the_bytes(self):
        inline_params, inline_history, _ = self._fit(world_size=2, workers=1)
        remote_params, remote_history, trainer = self._fit(world_size=2, workers=2)
        _assert_params_equal(inline_params, remote_params)
        assert inline_history.to_list() == remote_history.to_list()
        assert trainer.workers == 2 and not trainer.degraded

    def test_sharding_is_an_explicit_hyperparameter(self):
        # world_size > 1 regroups the batch reduction; it is *documented* as
        # a different arithmetic, not silently identical to world_size=1.
        sharded_params, _, _ = self._fit(world_size=2, workers=1)
        plain_params, _, _ = self._fit(world_size=1, workers=1)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(sharded_params, plain_params))

    def test_sharded_step_returns_full_batch_argmax(self):
        # Both trainers' steps return (loss_value, predictions, stepped); the
        # concatenated shard predictions are the plain full-batch argmax.
        inputs, targets = _toy_classification(n=33)
        model = _mlp(seed=0)
        expected = model(Tensor(inputs)).data.argmax(axis=-1)
        trainer = DataParallelTrainer(
            model, SGD(model.parameters(), lr=0.1), nn.CrossEntropyLoss(),
            world_size=3, workers=1, seed=0)
        try:
            loss_value, predictions, stepped = trainer._optimize_batch(inputs, targets)
        finally:
            trainer.close()
        assert isinstance(loss_value, float) and np.isfinite(loss_value)
        assert stepped is True
        np.testing.assert_array_equal(predictions, expected)

    def test_batchnorm_buffers_identical_inline_vs_remote(self):
        def run(workers):
            rng = np.random.default_rng(0)
            inputs = rng.standard_normal((32, 3, 8, 8)).astype(np.float32)
            targets = rng.integers(0, 4, size=32).astype(np.int64)
            model = SimpleCNN(num_classes=4, base_width=4, image_size=8, seed=0)
            trainer = DataParallelTrainer(
                model, SGD(model.parameters(), lr=0.05), nn.CrossEntropyLoss(),
                world_size=2, workers=workers, seed=0)
            try:
                trainer.fit(DataLoader(inputs, targets, batch_size=16, seed=0),
                            epochs=1)
            finally:
                trainer.close()
            return model.state_dict()

        inline, remote = run(1), run(2)
        assert inline.keys() == remote.keys()
        for key in inline:
            np.testing.assert_array_equal(inline[key], remote[key])

    def test_degrades_to_inline_inside_sweep_workers(self, monkeypatch):
        monkeypatch.setenv(DEPTH_ENV, "1")
        model = _mlp(seed=0)
        trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                      nn.CrossEntropyLoss(), world_size=2,
                                      workers=4, seed=0)
        assert trainer.workers == 1 and trainer.degraded
        trainer.fit(_loader(), epochs=2)
        trainer.close()
        monkeypatch.delenv(DEPTH_ENV)
        inline_params, _, _ = self._fit(world_size=2, workers=1)
        _assert_params_equal(_params(model), inline_params)

    def test_worker_processes_require_a_registry_spec(self):
        class Plain(nn.Module):
            def __init__(self):
                super().__init__()
                self.linear = nn.Linear(8, 2)

            def forward(self, x):
                return self.linear(x)

        model = Plain()
        with pytest.raises(DistributedTrainingError, match="model_spec"):
            DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                nn.CrossEntropyLoss(), world_size=2, workers=2)
        # Inline execution needs no spec: the parent's own model runs the shards.
        trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                      nn.CrossEntropyLoss(), world_size=2,
                                      workers=1)
        trainer.fit(_loader(), epochs=1)
        trainer.close()

    def test_unsupported_loss_rejected(self):
        class OddLoss:
            pass

        with pytest.raises(ValueError, match="sum decomposition"):
            loss_spec_of(OddLoss())
        model = _mlp(seed=0)
        with pytest.raises(DistributedTrainingError, match="sum decomposition"):
            DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                OddLoss(), world_size=2, workers=1)

    def test_describe_reports_fleet_identity(self):
        model = _mlp(seed=0)
        trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                      nn.CrossEntropyLoss(), world_size=2,
                                      workers=2, seed=5)
        try:
            trainer.fit(_loader(), epochs=1)
            facts = trainer.describe()
        finally:
            trainer.close()
        assert facts["world_size"] == 2 and facts["workers"] == 2
        assert facts["degraded"] is False and facts["restarts"] == 0
        assert len(facts["per_worker"]) == 2
        for rank, worker in enumerate(facts["per_worker"]):
            assert worker["rank"] == rank
            assert worker["seed"] == derive_seed(5, "train-dp", rank)
            assert worker["depth"] == 1


class TestCrashRecovery:
    def _run(self, workers, kill_between_epochs=False):
        model = _mlp(seed=0)
        trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                      nn.CrossEntropyLoss(), world_size=2,
                                      workers=workers, seed=0)
        loader = _loader()
        try:
            trainer.fit(loader, epochs=1)
            if kill_between_epochs:
                victim = trainer.describe()["per_worker"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                deadline = time.time() + 10.0
                while trainer.describe()["per_worker"][0]["alive"]:
                    if time.time() > deadline:  # pragma: no cover
                        pytest.fail("killed worker still reported alive")
                    time.sleep(0.02)
            trainer.fit(loader, epochs=1)
        finally:
            trainer.close()
        return _params(model), trainer.restarts

    def test_killed_worker_respawns_and_bytes_are_unchanged(self):
        reference, _ = self._run(workers=1)
        recovered, restarts = self._run(workers=2, kill_between_epochs=True)
        assert restarts >= 1
        _assert_params_equal(reference, recovered)

    def test_both_workers_killed_before_a_step_count_two_restarts(self):
        model = _mlp(seed=0)
        trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                      nn.CrossEntropyLoss(), world_size=2,
                                      workers=2, seed=0)
        loader = _loader()
        try:
            trainer.fit(loader, epochs=1)
            for worker in trainer.describe()["per_worker"]:
                os.kill(worker["pid"], signal.SIGKILL)
            deadline = time.time() + 10.0
            while any(worker["alive"]
                      for worker in trainer.describe()["per_worker"]):
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("killed workers still reported alive")
                time.sleep(0.02)
            # Both dispatch threads respawn their worker on the same step.
            trainer.fit(loader, epochs=1)
            facts = trainer.describe()
        finally:
            trainer.close()
        assert trainer.restarts == 2 and facts["restarts"] == 2
        assert [worker["restarts"] for worker in facts["per_worker"]] == [1, 1]


class TestStepCheckpointing:
    def _trainer(self, seed=0):
        model = _mlp(seed=seed)
        return model, Trainer(model, SGD(model.parameters(), lr=0.1),
                              nn.CrossEntropyLoss())

    def test_step_interval_requires_checkpoint_dir(self):
        _, trainer = self._trainer()
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.fit(_loader(), epochs=1, checkpoint_every_steps=2)

    def test_step_files_and_rolling_last_step(self, tmp_path):
        _, trainer = self._trainer()
        trainer.fit(_loader(), epochs=1, checkpoint_dir=tmp_path,
                    checkpoint_every_steps=2)
        # 96 examples / batch 32 = 3 steps -> one step file at step 2.
        assert (tmp_path / "step_000002.npz").exists()
        assert _sha(tmp_path / "last_step.npz") == _sha(tmp_path / "step_000002.npz")

    def test_mid_epoch_resume_is_bit_identical(self, tmp_path):
        loader = _loader()
        model, trainer = self._trainer(seed=0)
        trainer.fit(loader, epochs=2, checkpoint_dir=tmp_path,
                    checkpoint_every_steps=1)
        trainer.save_checkpoint(tmp_path / "final.npz", loader=loader)
        reference_history = trainer.history.to_list()

        # Steps 1..3 are epoch 1, step 4 is mid-epoch 2: resume from there on
        # a *differently initialized* model and replay the rest of the run.
        resumed_model, resumed = self._trainer(seed=99)
        resumed_loader = _loader()
        resume_dir = tmp_path / "resume"
        resumed.fit(resumed_loader, epochs=2, checkpoint_dir=resume_dir,
                    checkpoint_every_steps=1,
                    resume_from=tmp_path / "step_000004.npz")
        resumed.save_checkpoint(resume_dir / "final.npz", loader=resumed_loader)

        _assert_params_equal(_params(model), _params(resumed_model))
        assert resumed.history.to_list() == reference_history
        assert _sha(resume_dir / "final.npz") == _sha(tmp_path / "final.npz")
        # The replayed tail's step checkpoints byte-match the original run's.
        assert _sha(resume_dir / "step_000006.npz") == \
            _sha(tmp_path / "step_000006.npz")

    def test_interrupted_step_save_never_corrupts_published_checkpoint(
            self, tmp_path, monkeypatch):
        from repro.io import checkpoint as checkpoint_module

        _, trainer = self._trainer()
        trainer.fit(_loader(), epochs=1, checkpoint_dir=tmp_path,
                    checkpoint_every_steps=2)
        published = tmp_path / "step_000002.npz"
        before = published.read_bytes()

        real_write = checkpoint_module._write_npz

        def torn_write(stream, payload):
            stream.write(b"PK\x03\x04partial")  # plausible zip prefix, then die
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(checkpoint_module, "_write_npz", torn_write)
        with pytest.raises(OSError, match="simulated crash"):
            trainer.save_checkpoint(published)
        monkeypatch.setattr(checkpoint_module, "_write_npz", real_write)

        assert published.read_bytes() == before
        checkpoint_module.load_checkpoint(published)  # still a valid archive
        assert not list(tmp_path.glob("*.tmp"))  # the torn temp was removed

    @pytest.mark.parametrize("rolling, numbered, interval", [
        ("last.npz", "epoch_0002.npz", {"checkpoint_every": 1}),
        ("last_step.npz", "step_000004.npz", {"checkpoint_every_steps": 2}),
    ])
    def test_interrupted_copy_never_publishes_a_torn_file(
            self, tmp_path, monkeypatch, rolling, numbered, interval):
        from repro.io.checkpoint import load_checkpoint
        from repro.training import trainer as trainer_module

        _, trainer = self._trainer()
        loader = _loader()
        trainer.fit(loader, epochs=1, checkpoint_dir=tmp_path, **interval)
        before = (tmp_path / rolling).read_bytes()

        def torn_copy(source, destination):
            destination.write(source.read(64))  # a valid prefix, then die
            raise OSError("simulated crash mid-copy")

        monkeypatch.setattr(trainer_module.shutil, "copyfileobj", torn_copy)
        with pytest.raises(OSError, match="simulated crash"):
            trainer.fit(loader, epochs=2, checkpoint_dir=tmp_path, **interval)
        monkeypatch.undo()

        assert not (tmp_path / numbered).exists()
        assert not list(tmp_path.glob("*.tmp"))  # the torn temp was removed
        # The rolling file was published whole before the copy began.
        assert (tmp_path / rolling).read_bytes() != before
        load_checkpoint(tmp_path / rolling)


class TestPreemptionSubprocess:
    """SIGKILL a real training process at a step boundary, resume, compare bytes."""

    BASE = [sys.executable, "-m", "repro", "train", "--scale", "smoke",
            "--epochs", "2", "--world-size", "2", "--train-jobs", "1",
            "--checkpoint-every-steps", "2", "--quiet"]

    def _env(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _run(self, extra):
        completed = subprocess.run(self.BASE + extra, env=self._env(),
                                   capture_output=True, text=True, timeout=600)
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout)

    def test_sigkill_then_resume_reproduces_the_uninterrupted_run(self, tmp_path):
        reference = self._run(["--checkpoint-dir", str(tmp_path / "ref")])

        kill_dir = tmp_path / "killed"
        process = subprocess.Popen(
            self.BASE + ["--checkpoint-dir", str(kill_dir)], env=self._env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            target = kill_dir / "step_000002.npz"
            deadline = time.time() + 300.0
            while not target.exists():
                if process.poll() is not None:  # pragma: no cover
                    pytest.fail("training finished before it could be killed")
                if time.time() > deadline:  # pragma: no cover
                    pytest.fail("no step checkpoint appeared before the deadline")
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait()

        resumed = self._run(["--checkpoint-dir", str(kill_dir),
                             "--resume-from", str(kill_dir / "last_step.npz")])
        assert resumed["checkpoint_sha256"] == reference["checkpoint_sha256"]
        assert resumed["final"] == reference["final"]
