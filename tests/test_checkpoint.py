"""Checkpoint/resume subsystem: serialization, optimizer state, bit-identical resume."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, standard_cifar_augmentation
from repro.io import CHECKPOINT_VERSION, load_checkpoint, save_checkpoint, to_jsonable
from repro.models import SimpleCNN
from repro.optim import SGD, Adam, MultiStepLR, NoamLR, split_parameter_groups
from repro.tensor import Tensor
from repro.training import History, Trainer


def _bowl(parameter):
    return ((parameter - 3.0) ** 2).sum()


class TestSerialization:
    def test_numpy_and_tuple_keys(self):
        value = {
            ("13a", True): np.float32(1.5),
            "array": np.arange(3),
            "nested": {"tuple": (1, 2), 7: "seven"},
        }
        converted = to_jsonable(value)
        assert converted["13a/True"] == 1.5
        assert converted["array"] == [0, 1, 2]
        assert converted["nested"] == {"tuple": [1, 2], "7": "seven"}


class TestOptimizerStateDict:
    def _trajectory(self, optimizer_factory, steps=5, resume_at=3):
        """Run `steps` steps straight vs save/restore at `resume_at`; compare."""
        p_full = nn.Parameter(np.zeros(4, dtype=np.float64))
        full = optimizer_factory([p_full])
        for _ in range(steps):
            full.zero_grad()
            _bowl(p_full).backward()
            full.step()

        p_a = nn.Parameter(np.zeros(4, dtype=np.float64))
        first = optimizer_factory([p_a])
        for _ in range(resume_at):
            first.zero_grad()
            _bowl(p_a).backward()
            first.step()
        state = first.state_dict()

        p_b = nn.Parameter(p_a.data.copy())
        second = optimizer_factory([p_b])
        second.load_state_dict(state)
        for _ in range(steps - resume_at):
            second.zero_grad()
            _bowl(p_b).backward()
            second.step()
        np.testing.assert_array_equal(p_full.data, p_b.data)

    def test_sgd_momentum_resume_bit_identical(self):
        self._trajectory(lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-2))

    def test_adam_resume_bit_identical(self):
        self._trajectory(lambda ps: Adam(ps, lr=0.1))

    def test_adam_state_contains_moments_and_step(self):
        p = nn.Parameter(np.zeros(2, dtype=np.float64))
        optimizer = Adam([p], lr=0.1)
        optimizer.zero_grad()
        _bowl(p).backward()
        optimizer.step()
        state = optimizer.state_dict()
        assert state["state"]["0"]["step"] == 1
        assert state["state"]["0"]["m"].shape == (2,)
        assert state["param_groups"][0]["lr"] == 0.1

    def test_group_count_mismatch_raises(self):
        p = nn.Parameter(np.zeros(2))
        optimizer = SGD([p], lr=0.1)
        two_groups = SGD([{"params": [nn.Parameter(np.zeros(2))]},
                          {"params": [nn.Parameter(np.zeros(2))]}], lr=0.1)
        with pytest.raises(ValueError):
            optimizer.load_state_dict(two_groups.state_dict())

    def test_scheduler_modified_lr_restored(self):
        p = nn.Parameter(np.zeros(1))
        optimizer = SGD([p], lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        scheduler.step()
        assert optimizer.param_groups[0]["lr"] == pytest.approx(0.1)
        saved_opt, saved_sched = optimizer.state_dict(), scheduler.state_dict()

        fresh_p = nn.Parameter(np.zeros(1))
        fresh_opt = SGD([fresh_p], lr=1.0)
        fresh_sched = MultiStepLR(fresh_opt, milestones=[1], gamma=0.1)
        fresh_opt.load_state_dict(saved_opt)
        fresh_sched.load_state_dict(saved_sched)
        assert fresh_opt.param_groups[0]["lr"] == pytest.approx(0.1)
        assert fresh_sched.last_step == 1
        # The next decay continues from the restored counter.
        fresh_sched.step()
        assert fresh_opt.param_groups[0]["lr"] == pytest.approx(0.1)

    def test_noam_scheduler_state_roundtrip(self):
        p = nn.Parameter(np.zeros(1))
        optimizer = SGD([p], lr=1.0)
        scheduler = NoamLR(optimizer, model_dim=64, warmup_steps=10)
        for _ in range(7):
            scheduler.step()
        fresh_opt = SGD([nn.Parameter(np.zeros(1))], lr=1.0)
        fresh = NoamLR(fresh_opt, model_dim=64, warmup_steps=10)
        fresh.load_state_dict(scheduler.state_dict())
        assert fresh_opt.param_groups[0]["lr"] == pytest.approx(
            optimizer.param_groups[0]["lr"])


class TestClipGradNorm:
    def test_scales_in_place(self):
        p = nn.Parameter(np.zeros(3, dtype=np.float64))
        optimizer = SGD([p], lr=0.1)
        optimizer.zero_grad()
        (p * Tensor(np.array([100.0, 100.0, 100.0]))).sum().backward()
        grad_before = p.grad
        norm = optimizer.clip_grad_norm(1.0)
        assert p.grad is grad_before, "clipping must not reallocate the gradient"
        assert norm == pytest.approx(np.sqrt(3) * 100, rel=1e-5)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


class TestModuleLoadStateDict:
    def _block(self):
        model = nn.Sequential(nn.Linear(3, 4, rng=np.random.default_rng(0)))
        return model

    def test_missing_keys_raise(self):
        model = self._block()
        state = model.state_dict()
        state.pop(sorted(state)[0])
        with pytest.raises(KeyError, match="missing keys"):
            model.load_state_dict(state)

    def test_error_reports_both_lists(self):
        model = self._block()
        state = model.state_dict()
        removed = sorted(state)[0]
        state.pop(removed)
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError) as excinfo:
            model.load_state_dict(state)
        assert removed in str(excinfo.value)
        assert "bogus" in str(excinfo.value)

    def test_non_strict_returns_both_lists(self):
        model = self._block()
        state = model.state_dict()
        removed = sorted(state)[0]
        state.pop(removed)
        state["bogus"] = np.zeros(1)
        missing, unexpected = model.load_state_dict(state, strict=False)
        assert missing == [removed]
        assert unexpected == ["bogus"]

    def test_shape_mismatch_raises(self):
        model = self._block()
        state = model.state_dict()
        key = sorted(state)[0]
        state[key] = np.zeros((1, 1), dtype=state[key].dtype)
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)

    def test_shape_mismatch_writes_nothing(self):
        # Shapes are validated before any assignment: a mismatch must not
        # leave the module half-loaded.
        model = self._block()
        before = {name: value.copy() for name, value in model.state_dict().items()}
        state = model.state_dict()
        keys = sorted(state)
        state[keys[0]] = state[keys[0]] + 1.0          # valid, would change the model
        state[keys[-1]] = np.zeros((1, 1), dtype=state[keys[-1]].dtype)  # invalid
        with pytest.raises(ValueError, match="shape mismatch"):
            model.load_state_dict(state)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])


class TestDataLoaderRNG:
    def _data(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal((20, 3, 6, 6)).astype(np.float32), rng.integers(0, 3, 20)

    def test_shuffle_order_independent_of_augmentation(self):
        inputs, targets = self._data()
        plain = DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=7)
        augmented = DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=7,
                               augmentation=standard_cifar_augmentation(1))
        for _ in range(3):  # same example order every epoch, with or without augmentation
            plain_targets = [batch_targets for _, batch_targets in plain]
            augmented_targets = [batch_targets for _, batch_targets in augmented]
            for a, b in zip(plain_targets, augmented_targets):
                np.testing.assert_array_equal(a, b)

    def test_state_roundtrip_reproduces_batches(self):
        inputs, targets = self._data()
        loader = DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=3,
                            augmentation=standard_cifar_augmentation(1))
        list(loader)  # advance one epoch
        state = loader.state_dict()
        epoch_a = [(bi.copy(), bt.copy()) for bi, bt in loader]

        other = DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=3,
                           augmentation=standard_cifar_augmentation(1))
        other.load_state_dict(state)
        epoch_b = list(other)
        for (inputs_a, targets_a), (inputs_b, targets_b) in zip(epoch_a, epoch_b):
            np.testing.assert_array_equal(inputs_a, inputs_b)
            np.testing.assert_array_equal(targets_a, targets_b)

    def test_mid_epoch_state_resumes_remaining_batches(self):
        inputs, targets = self._data()

        def fresh():
            return DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=3,
                              augmentation=standard_cifar_augmentation(1))

        reference = fresh()
        iterator = iter(reference)
        consumed = [next(iterator) for _ in range(2)]
        state = reference.state_dict()  # mid-epoch: carries the cursor
        assert state["cursor"]["batch_index"] == 2
        remaining = [(bi.copy(), bt.copy()) for bi, bt in iterator]
        next_epoch = [(bi.copy(), bt.copy()) for bi, bt in reference]

        resumed = fresh()
        resumed.load_state_dict(state)
        resumed_remaining = list(resumed)
        assert len(resumed_remaining) == len(remaining)
        for (a_in, a_t), (b_in, b_t) in zip(remaining, resumed_remaining):
            np.testing.assert_array_equal(a_in, b_in)
            np.testing.assert_array_equal(a_t, b_t)
        # The epoch after the resumed one matches too (RNG streams line up),
        # and none of the already-consumed batches are replayed.
        for (a_in, a_t), (b_in, b_t) in zip(next_epoch, resumed):
            np.testing.assert_array_equal(a_in, b_in)
            np.testing.assert_array_equal(a_t, b_t)
        assert len(consumed) == 2

    def test_v1_epoch_boundary_state_loads_unchanged(self):
        inputs, targets = self._data()
        loader = DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=3)
        list(loader)  # one full epoch; state is the v1 two-stream format
        state = loader.state_dict()
        assert "cursor" not in state
        reference = [bt.copy() for _, bt in loader]

        resumed = DataLoader(inputs, targets, batch_size=4, shuffle=True, seed=3)
        resumed.load_state_dict(state)
        for a, (_, b) in zip(reference, resumed):
            np.testing.assert_array_equal(a, b)


class TestHistoryJSON:
    def test_roundtrip(self):
        history = History()
        history.append(epoch=1, train_loss=0.5, diverged=False)
        history.append(epoch=2, train_loss=float("inf"), diverged=True)
        restored = History.from_json(history.to_json())
        assert restored.to_list() == history.to_list()

    def test_save_load(self, tmp_path):
        history = History()
        history.append(epoch=1, train_loss=np.float32(0.25))
        path = history.save(tmp_path / "history.json")
        restored = History.load(path)
        assert restored.last("train_loss") == pytest.approx(0.25)


class TestCheckpointFile:
    def test_roundtrip_preserves_dtype_and_values(self, tmp_path):
        model = nn.Sequential(nn.Linear(3, 2, rng=np.random.default_rng(1)))
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        rng = np.random.default_rng(9)
        rng.standard_normal(5)  # advance the stream
        path = save_checkpoint(tmp_path / "ckpt.npz", model=model, optimizer=optimizer,
                               rng=rng, extra={"epoch": 3})
        checkpoint = load_checkpoint(path)
        assert checkpoint.version == CHECKPOINT_VERSION
        assert checkpoint.extra["epoch"] == 3
        for name, value in model.state_dict().items():
            stored = checkpoint.sections["model"][name]
            assert stored.dtype == value.dtype
            np.testing.assert_array_equal(stored, value)
        fresh_rng = np.random.default_rng(0)
        checkpoint.restore(rng=fresh_rng)
        np.testing.assert_array_equal(fresh_rng.standard_normal(4),
                                      rng.standard_normal(4))

    def test_future_version_refused(self, tmp_path):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)))
        path = save_checkpoint(tmp_path / "future.npz", model=model,
                               version=CHECKPOINT_VERSION + 1)
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)

    def test_missing_section_raises_on_restore(self, tmp_path):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)))
        path = save_checkpoint(tmp_path / "model_only.npz", model=model)
        optimizer = SGD(model.parameters(), lr=0.1)
        with pytest.raises(KeyError, match="optimizer"):
            load_checkpoint(path).restore(optimizer=optimizer)

    def test_missing_section_restores_nothing(self, tmp_path):
        # Sections are validated before any restore: the model must be
        # untouched when a later-requested section is absent.
        source = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)))
        path = save_checkpoint(tmp_path / "model_only.npz", model=source)
        target = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(4)))
        optimizer = SGD(target.parameters(), lr=0.1)
        before = {name: value.copy() for name, value in target.state_dict().items()}
        with pytest.raises(KeyError, match="optimizer"):
            load_checkpoint(path).restore(model=target, optimizer=optimizer)
        for name, value in target.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ValueError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_identical_state_hashes_identically(self, tmp_path):
        # The writer pins zip timestamps/compression, so checkpoint bytes are
        # a pure function of the state — the property the CI sha256 gates use.
        import hashlib
        import time

        model = nn.Sequential(nn.Linear(3, 2, rng=np.random.default_rng(1)))
        first = save_checkpoint(tmp_path / "a.npz", model=model,
                                extra={"epoch": 1})
        time.sleep(1.1)  # cross a zip mtime granularity boundary
        second = save_checkpoint(tmp_path / "b.npz", model=model,
                                 extra={"epoch": 1})
        assert hashlib.sha256(first.read_bytes()).hexdigest() == \
            hashlib.sha256(second.read_bytes()).hexdigest()

    def test_version_1_checkpoints_still_load(self, tmp_path):
        # Version 2 added the deterministic writer and mid-epoch loader
        # cursors; the reader must keep accepting v1 files unchanged.
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)))
        path = save_checkpoint(tmp_path / "v1.npz", model=model, version=1)
        checkpoint = load_checkpoint(path)
        assert checkpoint.version == 1
        target = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(4)))
        checkpoint.restore(model=target)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(target.state_dict()[name], value)


def _make_trainer():
    model = SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                      image_size=8, seed=3)
    groups = split_parameter_groups(model, base_lr=0.05, quadratic_lr=1e-3)
    optimizer = SGD(groups, lr=0.05, momentum=0.9, weight_decay=1e-4)
    scheduler = MultiStepLR(optimizer, milestones=[2, 3], gamma=0.1)
    return Trainer(model, optimizer, nn.CrossEntropyLoss(), scheduler=scheduler)


def _make_loader(inputs, targets):
    return DataLoader(inputs, targets, batch_size=16, shuffle=True,
                      augmentation=standard_cifar_augmentation(1), seed=5)


@pytest.mark.slow
class TestTrainerResume:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.inputs = rng.standard_normal((48, 3, 8, 8)).astype(np.float32)
        self.targets = rng.integers(0, 4, 48)
        self.eval_inputs = rng.standard_normal((16, 3, 8, 8)).astype(np.float32)
        self.eval_targets = rng.integers(0, 4, 16)

    def test_resume_reproduces_uninterrupted_run_bit_identically(self, tmp_path):
        # Uninterrupted reference: 4 epochs straight through.
        straight = _make_trainer()
        straight_history = straight.fit(
            _make_loader(self.inputs, self.targets), 4,
            eval_inputs=self.eval_inputs, eval_targets=self.eval_targets)

        # Interrupt after epoch 2 (checkpoint written), then resume to epoch 4.
        interrupted = _make_trainer()
        interrupted.fit(_make_loader(self.inputs, self.targets), 2,
                        eval_inputs=self.eval_inputs, eval_targets=self.eval_targets,
                        checkpoint_dir=tmp_path, checkpoint_every=2)
        resumed = _make_trainer()
        resumed_history = resumed.fit(
            _make_loader(self.inputs, self.targets), 4,
            eval_inputs=self.eval_inputs, eval_targets=self.eval_targets,
            resume_from=tmp_path / "last.npz")

        assert resumed_history.to_list() == straight_history.to_list()
        straight_params = dict(straight.model.named_parameters())
        for name, parameter in resumed.model.named_parameters():
            np.testing.assert_array_equal(parameter.data, straight_params[name].data)
        for (_, buffer_a), (_, buffer_b) in zip(resumed.model.named_buffers(),
                                                straight.model.named_buffers()):
            np.testing.assert_array_equal(buffer_a, buffer_b)

    def test_best_checkpoint_and_epoch_files_written(self, tmp_path):
        trainer = _make_trainer()
        trainer.fit(_make_loader(self.inputs, self.targets), 2,
                    eval_inputs=self.eval_inputs, eval_targets=self.eval_targets,
                    checkpoint_dir=tmp_path, checkpoint_every=1)
        assert (tmp_path / "best.npz").exists()
        assert (tmp_path / "last.npz").exists()
        assert (tmp_path / "epoch_0001.npz").exists()
        assert (tmp_path / "epoch_0002.npz").exists()
        assert trainer.best_epoch is not None
        assert trainer.best_metric is not None

    def test_resume_without_loader_section_raises(self, tmp_path):
        # A checkpoint saved without loader state cannot silently back a
        # bit-identical resume — requesting one must fail loudly.
        trainer = _make_trainer()
        trainer.save_checkpoint(tmp_path / "no_loader.npz")
        fresh = _make_trainer()
        with pytest.raises(KeyError, match="loader"):
            fresh.fit(_make_loader(self.inputs, self.targets), 4,
                      resume_from=tmp_path / "no_loader.npz")

    def test_second_fit_resets_best_tracking(self):
        trainer = _make_trainer()
        trainer.fit(_make_loader(self.inputs, self.targets), 1,
                    eval_inputs=self.eval_inputs, eval_targets=self.eval_targets)
        stage_one_best = trainer.best_metric
        assert stage_one_best is not None
        trainer.fit(_make_loader(self.inputs, self.targets), 1,
                    eval_inputs=self.eval_inputs, eval_targets=self.eval_targets)
        assert trainer.best_epoch == 1  # re-established by stage two, not inherited

