"""Tests for optimizers, parameter groups and learning-rate schedules."""

import numpy as np
import pytest

from repro import nn
from repro.optim import (
    SGD,
    Adam,
    MultiStepLR,
    NoamLR,
    split_parameter_groups,
)
from repro.tensor import Tensor


def _quadratic_bowl(parameter):
    """Convex objective with minimum at 3."""
    return ((parameter - 3.0) ** 2).sum()


class TestSGD:
    def test_converges_on_quadratic_bowl(self):
        p = nn.Parameter(np.zeros(4, dtype=np.float64))
        optimizer = SGD([p], lr=0.1, momentum=0.0)
        for _ in range(200):
            optimizer.zero_grad()
            _quadratic_bowl(p).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = nn.Parameter(np.zeros(1, dtype=np.float64))
            optimizer = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                optimizer.zero_grad()
                _quadratic_bowl(p).backward()
                optimizer.step()
            return abs(float(p.data[0]) - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_parameters(self):
        p = nn.Parameter(np.full(3, 5.0, dtype=np.float64))
        optimizer = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        optimizer.zero_grad()
        (p.sum() * 0.0).backward()
        optimizer.step()
        assert np.all(np.abs(p.data) < 5.0)

    def test_skips_parameters_without_gradient(self):
        p = nn.Parameter(np.ones(2))
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, 1.0)

    def test_nesterov_runs(self):
        p = nn.Parameter(np.zeros(2, dtype=np.float64))
        optimizer = SGD([p], lr=0.05, momentum=0.9, nesterov=True)
        for _ in range(100):
            optimizer.zero_grad()
            _quadratic_bowl(p).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, 3.0, atol=0.05)


class TestAdam:
    def test_converges_on_quadratic_bowl(self):
        p = nn.Parameter(np.zeros(4, dtype=np.float64))
        optimizer = Adam([p], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            _quadratic_bowl(p).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step(self):
        p = nn.Parameter(np.array([10.0], dtype=np.float64))
        optimizer = Adam([p], lr=0.5)
        optimizer.zero_grad()
        _quadratic_bowl(p).backward()
        optimizer.step()
        # With bias correction the very first step has magnitude ≈ lr.
        assert abs(float(p.data[0]) - 10.0) == pytest.approx(0.5, rel=0.01)


class TestParameterGroups:
    def test_split_by_quadratic_tag(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0)))
        model.add_module("extra", _QuadraticTagged())
        groups = split_parameter_groups(model, base_lr=0.1, quadratic_lr=1e-4)
        assert len(groups) == 2
        assert groups[0]["lr"] == 0.1
        assert groups[1]["lr"] == 1e-4
        assert all(p.tag == "quadratic" for p in groups[1]["params"])

    def test_no_quadratic_parameters_single_group(self):
        model = nn.Linear(4, 4, rng=np.random.default_rng(0))
        groups = split_parameter_groups(model, base_lr=0.1, quadratic_lr=1e-4)
        assert len(groups) == 1

    def test_group_learning_rates_applied(self):
        fast = nn.Parameter(np.zeros(1, dtype=np.float64))
        slow = nn.Parameter(np.zeros(1, dtype=np.float64))
        optimizer = SGD([{"params": [fast], "lr": 1.0}, {"params": [slow], "lr": 0.01}],
                        lr=0.5, momentum=0.0)
        optimizer.zero_grad()
        ((fast - 1.0) ** 2 + (slow - 1.0) ** 2).sum().backward()
        optimizer.step()
        assert abs(float(fast.data[0])) > abs(float(slow.data[0]))

    def test_clip_grad_norm(self):
        p = nn.Parameter(np.zeros(3, dtype=np.float64))
        optimizer = SGD([p], lr=0.1)
        optimizer.zero_grad()
        (p * Tensor(np.array([100.0, 100.0, 100.0]))).sum().backward()
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(np.sqrt(3) * 100, rel=1e-5)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


class _QuadraticTagged(nn.Module):
    def __init__(self):
        super().__init__()
        self.lambdas = nn.Parameter(np.zeros(3, dtype=np.float32), tag="quadratic")

    def forward(self, x):
        return x


class TestSchedulers:
    def _optimizer(self):
        return SGD([nn.Parameter(np.zeros(1))], lr=1.0)

    def test_multistep_decays_at_milestones(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[2, 4], gamma=0.1)
        lrs = []
        for _ in range(5):
            scheduler.step()
            lrs.append(optimizer.param_groups[0]["lr"])
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01, 0.01], rtol=1e-6)

    def test_multistep_scales_all_groups(self):
        optimizer = SGD([{"params": [nn.Parameter(np.zeros(1))], "lr": 1.0},
                         {"params": [nn.Parameter(np.zeros(1))], "lr": 1e-4}], lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        scheduler.step()
        assert optimizer.param_groups[0]["lr"] == pytest.approx(0.1)
        assert optimizer.param_groups[1]["lr"] == pytest.approx(1e-5)

    def test_noam_warmup_then_decay(self):
        optimizer = self._optimizer()
        scheduler = NoamLR(optimizer, model_dim=64, warmup_steps=10)
        factors = [scheduler.get_factor(step) for step in range(1, 40)]
        peak = int(np.argmax(factors)) + 1
        assert peak == 10
        assert factors[0] < factors[9] > factors[-1]

    def test_multistep_sorts_milestones(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[4, 2], gamma=0.5)
        assert scheduler.milestones == [2, 4]
        assert [scheduler.get_factor(step) for step in (1, 2, 3, 4)] == [1.0, 0.5, 0.5, 0.25]

    def test_noam_peak_value_and_scale(self):
        optimizer = self._optimizer()
        scheduler = NoamLR(optimizer, model_dim=64, warmup_steps=16, scale=2.0)
        # At the end of warmup both branches meet at warmup^-0.5.
        assert scheduler.get_factor(16) == pytest.approx(2.0 * 64 ** -0.5 * 16 ** -0.5)
        # Step 0 is clamped to step 1 rather than dividing by zero.
        assert scheduler.get_factor(0) == scheduler.get_factor(1)
        scheduler.step()
        assert optimizer.param_groups[0]["lr"] == pytest.approx(scheduler.get_factor(1))

    def test_current_lrs(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[1])
        scheduler.step()
        assert scheduler.current_lrs() == [optimizer.param_groups[0]["lr"]]

    def test_load_state_dict_restores_step_zero_over_decayed_lr(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        fresh = scheduler.state_dict()  # last_step == 0, base lr in effect
        scheduler.step()
        assert optimizer.param_groups[0]["lr"] == pytest.approx(0.1)
        scheduler.load_state_dict(fresh)
        # Restoring the step-0 snapshot must undo the decay, not keep it.
        assert scheduler.last_step == 0
        assert optimizer.param_groups[0]["lr"] == pytest.approx(1.0)

    def test_load_state_dict_reapplies_decayed_schedule(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[2], gamma=0.1)
        scheduler.step(), scheduler.step()
        snapshot = scheduler.state_dict()
        restored_optimizer = SGD([nn.Parameter(np.zeros(1))], lr=1.0)
        restored = MultiStepLR(restored_optimizer, milestones=[2], gamma=0.1)
        restored.load_state_dict(snapshot)
        assert restored.last_step == 2
        assert restored_optimizer.param_groups[0]["lr"] == pytest.approx(0.1)
