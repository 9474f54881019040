"""Module/parameter system: the layer abstraction all models are built on.

The design mirrors ``torch.nn``: a :class:`Module` owns :class:`Parameter`
leaves and child modules, exposes recursive iteration over both, and carries a
``training`` flag toggled by :meth:`Module.train` / :meth:`Module.eval`.
State can be exported/imported as plain NumPy dictionaries, which the training
harness uses for checkpointing best models.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList", "Identity"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable leaf of a module.

    The optional ``tag`` labels the parameter's role (for example
    ``"quadratic"`` for the eigenvalue vector Λ of the proposed neuron), which
    lets optimizers apply the per-group learning rates used in the paper and
    lets the analysis tools separate linear from quadratic parameters.
    """

    __slots__ = ("tag",)

    def __init__(self, data, tag: str = "linear"):
        super().__init__(data, requires_grad=True)
        self.tag = tag


class Module:
    """Base class for all layers and models."""

    #: Self-describing spec ``{"name": ..., "kwargs": {...}}`` attached by the
    #: model registry (:mod:`repro.models.registry`) when the module was built
    #: by a registered builder; ``None`` means "not reconstructible by name"
    #: and such modules cannot be saved as servable bundles.
    model_spec: dict | None = None

    #: Key of :data:`repro.quadratic.complexity.NEURON_FORMULAS` naming the
    #: Table I cost of one neuron of this layer; ``None`` for layers that are
    #: not neuron layers, which :func:`repro.metrics.profile_model` skips.
    neuron_formula: str | None = None

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._forward_hooks: list = []
        self.training = True

    # -- attribute registration ---------------------------------------------

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running statistics)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- iteration ------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        return [parameter for _, parameter in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def modules(self) -> list["Module"]:
        return [module for _, module in self.named_modules()]

    def children(self) -> list["Module"]:
        return list(self._modules.values())

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield (f"{prefix}{name}", buffer)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    # -- training mode ---------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradients and state ----------------------------------------------------

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(parameter.size for parameter in self.parameters()))

    def state_dict(self) -> dict:
        state = {name: parameter.data.copy() for name, parameter in self.named_parameters()}
        state.update({f"buffer::{name}": buffer.copy() for name, buffer in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict, strict: bool = True) -> tuple[list, list]:
        """Load parameters and buffers from a :meth:`state_dict` snapshot.

        With ``strict`` (the default) the state must cover the module exactly:
        a ``KeyError`` listing *both* the missing and the unexpected keys is
        raised otherwise — a silent partial load would let a truncated or
        mismatched checkpoint go unnoticed.  With ``strict=False`` the
        intersection is loaded and ``(missing_keys, unexpected_keys)`` is
        returned for the caller to inspect.
        """
        parameters = dict(self.named_parameters())
        buffer_targets: dict[str, tuple[Module, str]] = {}
        for owner_prefix, owner in self._iter_buffer_owners():
            for local in owner._buffers:
                buffer_targets[f"buffer::{owner_prefix}{local}"] = (owner, local)

        expected = set(parameters) | set(buffer_targets)
        provided = set(state)
        missing = sorted(expected - provided)
        unexpected = sorted(provided - expected)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict does not match module: "
                           f"missing keys {missing}, unexpected keys {unexpected}")

        # Validate every shape before mutating anything, so a mismatch never
        # leaves the module half-loaded.
        writes = []
        for name in sorted(provided & expected):
            value = np.asarray(state[name])
            if name in parameters:
                target = parameters[name].data
            else:
                owner, local = buffer_targets[name]
                target = owner._buffers[local]
            if tuple(value.shape) != tuple(target.shape):
                raise ValueError(f"shape mismatch for {name!r}: state has {value.shape}, "
                                 f"module has {target.shape}")
            writes.append((target, value))
        for target, value in writes:
            target[...] = value
        return missing, unexpected

    def _iter_buffer_owners(self, prefix: str = ""):
        if self._buffers:
            yield (prefix, self)
        for child_name, child in self._modules.items():
            yield from child._iter_buffer_owners(prefix=f"{prefix}{child_name}.")

    # -- forward ----------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def register_forward_hook(self, hook) -> None:
        """Register ``hook(module, inputs, output)``, called after every forward.

        Used by the profiler (to record activation shapes) and by the analysis
        tools (to capture intermediate responses for Fig. 8).
        """
        self._forward_hooks.append(hook)

    def remove_forward_hook(self, hook) -> None:
        """Remove one hook added by :meth:`register_forward_hook`."""
        self._forward_hooks.remove(hook)

    def clear_forward_hooks(self) -> None:
        self._forward_hooks = []

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in self._forward_hooks:
            hook(self, args, output)
        return output

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module.__class__.__name__}"
                       for name, module in self._modules.items()]
        header = self.__class__.__name__
        if not child_lines:
            return f"{header}()"
        return header + "(\n" + "\n".join(child_lines) + "\n)"


class Identity(Module):
    """Pass-through module (useful as a neutral shortcut in residual blocks)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Run child modules in order, feeding each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """A list of modules whose parameters are all registered."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._modules)), module)
        return self

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]
