"""Model-spec registry: reconstruct any servable model from a name + primitive kwargs.

A *model spec* is the JSON-safe pair ``{"name": <registered name>, "kwargs":
{...primitives...}}``.  Builders (model classes or factory functions) register
under a name with :func:`register_model`; every instance they construct then
carries its own spec on ``model.model_spec``, captured automatically from the
constructor arguments.  :func:`build_from_spec` inverts the mapping, which is
what makes checkpoints *self-describing*: :func:`repro.io.load_bundle` can
rebuild the architecture of any registered model from the spec embedded in a
``.npz`` bundle without knowing which experiment produced it.

Spec kwargs must be **primitives** (``None``/bool/int/float/str, and
lists/tuples/dicts thereof) so a spec survives a JSON round trip bit-exactly.
Builders therefore take a ``seed`` rather than a live ``numpy`` ``Generator``.
Constructing a registered model directly with a non-primitive argument does
not fail — the instance simply gets ``model_spec = None`` (not servable) —
while :func:`build_model` validates eagerly and raises.

To make a new model servable::

    from .registry import register_model

    @register_model("my_net")
    class MyNet(nn.Module):
        def __init__(self, num_classes: int = 10, seed: int = 0):
            ...

Nothing else is required: ``MyNet(num_classes=4).model_spec`` round-trips
through :func:`build_from_spec`, ``Trainer.fit`` checkpoints become loadable
bundles, and ``repro serve`` can serve them.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

__all__ = [
    "ModelSpecError",
    "register_model",
    "build_model",
    "build_from_spec",
    "get_model_builder",
    "model_names",
    "sanitize_spec_value",
]


class ModelSpecError(TypeError):
    """A value cannot participate in a model spec (not a JSON-safe primitive)."""


_REGISTRY: dict[str, object] = {}


# ---------------------------------------------------------------------------
# Spec values
# ---------------------------------------------------------------------------

def sanitize_spec_value(value, context: str = "value"):
    """Coerce ``value`` to a JSON-safe primitive structure or raise.

    Tuples become lists (matching what a JSON round trip produces, so a spec
    captured at construction compares equal to one reloaded from a bundle);
    NumPy scalars collapse to Python scalars.  Anything else —
    ``np.random.Generator``, arrays, modules — raises :class:`ModelSpecError`
    naming the offending argument.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [sanitize_spec_value(item, context=f"{context}[{index}]")
                for index, item in enumerate(value)]
    if isinstance(value, dict):
        return {str(key): sanitize_spec_value(item, context=f"{context}[{key!r}]")
                for key, item in value.items()}
    raise ModelSpecError(
        f"{context} = {value!r} ({type(value).__name__}) cannot be part of a "
        f"model spec; specs only carry None/bool/int/float/str and "
        f"lists/dicts thereof (pass a seed instead of a Generator)")


def _capture_kwargs(signature: inspect.Signature, args: tuple, kwargs: dict,
                    context: str) -> dict:
    """Bind a builder call and flatten it into sanitized keyword arguments."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    captured: dict = {}
    for name, value in bound.arguments.items():
        if name == "self":
            continue
        kind = signature.parameters[name].kind
        if kind is inspect.Parameter.VAR_KEYWORD:
            for key, item in value.items():
                captured[key] = sanitize_spec_value(item, context=f"{context}({key}=...)")
        elif kind is inspect.Parameter.VAR_POSITIONAL:
            if value:
                raise ModelSpecError(
                    f"{context} received extra positional arguments {value!r}; "
                    f"servable builders must be fully keyword-addressable")
        else:
            captured[name] = sanitize_spec_value(value, context=f"{context}({name}=...)")
    return captured


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

def register_model(name: str):
    """Class/function decorator registering a model builder under ``name``.

    Classes keep their identity (the decorator wraps ``__init__`` so every
    instance — however constructed — captures its spec); functions are
    replaced by a wrapper that attaches the spec to the module they return.
    Re-decorating the same builder is idempotent; registering a *different*
    builder under an existing name raises.
    """
    def decorate(builder):
        existing = _REGISTRY.get(name)
        if existing is not None:
            if existing is builder or getattr(existing, "__wrapped__", None) is builder:
                return existing
            raise ValueError(f"model name '{name}' is already registered "
                             f"to {existing!r}")
        if inspect.isclass(builder):
            _instrument_class(name, builder)
            _REGISTRY[name] = builder
            return builder
        wrapped = _instrument_function(name, builder)
        _REGISTRY[name] = wrapped
        return wrapped
    return decorate


def _instrument_class(name: str, cls) -> None:
    original = cls.__init__
    signature = inspect.signature(original)

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        # Only exact instances of the registered class capture its spec: a
        # subclass reaching here through super().__init__ is a *different*
        # architecture, and stamping it with the parent's spec would make
        # build_from_spec silently reconstruct the wrong model.  Subclasses
        # register themselves (their own wrapper attaches after this returns)
        # or stay non-servable.
        if type(self) is not cls:
            original(self, *args, **kwargs)
            return
        try:
            spec_kwargs = _capture_kwargs(signature, (self,) + args, kwargs,
                                          context=name)
        except (ModelSpecError, TypeError):
            # Binding errors surface from the real constructor call below;
            # non-primitive arguments just make this instance non-servable.
            spec_kwargs = None
        original(self, *args, **kwargs)
        self.model_spec = ({"name": name, "kwargs": spec_kwargs}
                           if spec_kwargs is not None else None)

    cls.__init__ = __init__
    cls.spec_name = name


def _instrument_function(name: str, function):
    signature = inspect.signature(function)

    @functools.wraps(function)
    def build(*args, **kwargs):
        try:
            spec_kwargs = _capture_kwargs(signature, args, kwargs, context=name)
        except (ModelSpecError, TypeError):
            spec_kwargs = None
        module = function(*args, **kwargs)
        module.model_spec = ({"name": name, "kwargs": spec_kwargs}
                             if spec_kwargs is not None else None)
        return module

    build.spec_name = name
    return build


# ---------------------------------------------------------------------------
# Lookup / construction
# ---------------------------------------------------------------------------

def get_model_builder(name: str):
    """The registered builder for ``name``; ``KeyError`` lists what exists."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model '{name}'; registered models: "
                       f"{', '.join(model_names()) or '(none)'}")
    return _REGISTRY[name]


def model_names() -> list[str]:
    """Registered model names in registration order."""
    return list(_REGISTRY)


def build_model(name: str, **kwargs):
    """Construct a registered model from primitive keyword arguments.

    Unlike direct construction, this path is strict: a non-primitive argument
    raises :class:`ModelSpecError` up front, so everything built here is
    guaranteed to carry a round-trippable ``model_spec``.
    """
    for key, value in kwargs.items():
        sanitize_spec_value(value, context=f"{name}({key}=...)")
    model = get_model_builder(name)(**kwargs)
    if getattr(model, "model_spec", None) is None:
        raise ModelSpecError(f"builder '{name}' did not attach a model spec")
    return model


def build_from_spec(spec: dict):
    """Rebuild a model from a ``{"name": ..., "kwargs": {...}}`` spec."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ValueError(f"not a model spec: {spec!r}")
    return build_model(spec["name"], **(spec.get("kwargs") or {}))
