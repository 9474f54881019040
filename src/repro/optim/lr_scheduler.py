"""Learning-rate schedules.

:class:`MultiStepLR` reproduces the CNN recipe (decay by 0.1 at fixed epochs);
:class:`NoamLR` reproduces the Transformer warmup schedule from
"Attention Is All You Need", which the paper follows for the WMT14 experiments.
"""

from __future__ import annotations

from .optimizer import Optimizer

__all__ = ["LRScheduler", "MultiStepLR", "NoamLR"]


class LRScheduler:
    """Base class: scales every parameter group's initial LR by a factor."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lrs = [group["lr"] for group in optimizer.param_groups]
        self.last_step = 0

    def get_factor(self, step: int) -> float:
        raise NotImplementedError

    def step(self) -> None:
        self.last_step += 1
        factor = self.get_factor(self.last_step)
        for group, base_lr in zip(self.optimizer.param_groups, self.base_lrs):
            group["lr"] = base_lr * factor

    def current_lrs(self) -> list[float]:
        return [group["lr"] for group in self.optimizer.param_groups]

    def state_dict(self) -> dict:
        """Serializable snapshot: step counter plus the base learning rates."""
        return {"last_step": self.last_step, "base_lrs": list(self.base_lrs)}

    def load_state_dict(self, state: dict) -> None:
        """Restore the step counter and re-apply the schedule to the optimizer.

        At ``last_step == 0`` no step has happened yet, so groups go back to
        their base LRs — restoring a step-0 snapshot over a decayed optimizer
        must undo the decay, not leave it in place.
        """
        self.last_step = int(state["last_step"])
        self.base_lrs = [float(lr) for lr in state["base_lrs"]]
        factor = self.get_factor(self.last_step) if self.last_step > 0 else 1.0
        for group, base_lr in zip(self.optimizer.param_groups, self.base_lrs):
            group["lr"] = base_lr * factor


class MultiStepLR(LRScheduler):
    """Multiply the LR by ``gamma`` each time a milestone epoch is passed."""

    def __init__(self, optimizer: Optimizer, milestones: list[int], gamma: float = 0.1):
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def get_factor(self, step: int) -> float:
        passed = sum(1 for milestone in self.milestones if step >= milestone)
        return self.gamma ** passed


class NoamLR(LRScheduler):
    """Inverse-square-root schedule with linear warmup (Transformer training)."""

    def __init__(self, optimizer: Optimizer, model_dim: int, warmup_steps: int = 4000,
                 scale: float = 1.0):
        super().__init__(optimizer)
        self.model_dim = model_dim
        self.warmup_steps = warmup_steps
        self.scale = scale

    def get_factor(self, step: int) -> float:
        step = max(step, 1)
        return self.scale * (self.model_dim ** -0.5) * min(step ** -0.5,
                                                           step * self.warmup_steps ** -1.5)
