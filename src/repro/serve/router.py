"""Named multi-model routing for the v1 serving API.

A :class:`ModelRouter` is an ordered mapping of model names to live
:class:`~repro.serve.ops.ManagedModel` mounts plus the notion of a *default*
model (listed by ``GET /v1/models`` and targeted by ``repro promote`` /
``repro reload`` when no ``--model`` is named).  The HTTP layer holds
exactly one router and resolves every request path through it; in-process
embedders can use it the same way to serve several bundles behind one
object.

Every predictor added to the router is wrapped in a
:class:`~repro.serve.ops.ManagedModel`, which is what makes the mount table
*operable*: the router exposes per-model hot reload, canary/shadow staging,
promote, and clear-canary — the verbs behind the
``/v1/admin/models/<name>/...`` HTTP API — and its per-model stats carry
latency histograms and admission gauges.
"""

from __future__ import annotations

from .engine import EngineClosed
from .ops import ManagedModel

__all__ = ["ModelRouter"]


class ModelRouter:
    """Name → managed-model routing table with a designated default model.

    The first model added becomes the default unless another is promoted
    via ``add(..., default=True)`` or :meth:`set_default`.  Lookups with an
    unknown name raise ``KeyError`` listing the available models — the HTTP
    layer forwards that message on its 404s.
    """

    def __init__(self, models: dict | None = None, default: str | None = None):
        self._models: dict[str, ManagedModel] = {}
        self._default: str | None = None
        self._closed = False
        for name, predictor in (models or {}).items():
            self.add(name, predictor)
        if default is not None:
            self.set_default(default)

    # -- mutation --------------------------------------------------------------

    def add(self, name: str, predictor, default: bool = False,
            source: str | None = None, load_options: dict | None = None,
            max_inflight: int | None = None) -> ManagedModel:
        """Mount ``predictor`` under ``name`` (first added becomes default).

        Plain predictors are wrapped in a :class:`ManagedModel`;
        ``ManagedModel`` instances pass through unwrapped, so re-mounting
        ``router.get(name)`` under a second name shares the same mount.
        ``source``/``load_options``/``max_inflight`` configure the wrapper
        (bundle path for reloads, inherited :func:`repro.serve.load` options,
        per-model admission cap).
        """
        name = str(name)
        if not name or "/" in name:
            raise ValueError(f"model name {name!r} must be non-empty and "
                             f"contain no '/' (it becomes a URL segment)")
        if self._closed:
            raise EngineClosed(
                f"router is closed; cannot mount model {name!r}")
        if not isinstance(predictor, ManagedModel):
            predictor = ManagedModel(predictor, source=source,
                                     load_options=load_options,
                                     max_inflight=max_inflight)
        self._models[name] = predictor
        if default or self._default is None:
            self._default = name
        return predictor

    def set_default(self, name: str) -> None:
        if name not in self._models:
            raise KeyError(self._unknown(name))
        self._default = name

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str | None = None) -> ManagedModel:
        """The managed model mounted under ``name`` (default when ``None``)."""
        if name is None:
            name = self._default
        if name is None or name not in self._models:
            raise KeyError(self._unknown(name))
        return self._models[name]

    def _unknown(self, name) -> str:
        available = ", ".join(sorted(self._models)) or "none"
        return f"unknown model {name!r}; available models: {available}"

    @property
    def default_name(self) -> str | None:
        return self._default

    @property
    def default(self) -> ManagedModel:
        """The default model (raises ``KeyError`` on an empty router)."""
        return self.get(None)

    def names(self) -> list[str]:
        return list(self._models)

    def items(self):
        return self._models.items()

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, name) -> bool:
        return name in self._models

    # -- control plane (the admin API's verbs) ---------------------------------

    def reload(self, name: str | None = None, bundle: str | None = None) -> dict:
        """Hot-swap one model's bundle; see :meth:`ManagedModel.reload`."""
        return self.get(name).reload(bundle=bundle)

    def set_canary(self, name: str | None = None, bundle: str | None = None,
                   percent: float = 10.0, shadow: bool = False) -> dict:
        """Stage a candidate bundle on one model (split or shadow traffic)."""
        if bundle is None:
            raise ValueError("set_canary needs a candidate bundle path")
        return self.get(name).set_canary(bundle, percent=percent,
                                         shadow=shadow)

    def promote(self, name: str | None = None) -> dict:
        """Swap one model's staged canary in as its primary."""
        return self.get(name).promote()

    def clear_canary(self, name: str | None = None) -> dict:
        """Retire one model's staged canary without touching its primary."""
        return self.get(name).clear_canary()

    # -- introspection / lifecycle ---------------------------------------------

    def describe(self) -> dict:
        """The ``GET /v1/models`` payload: every model plus the default."""
        return {
            "models": [{"name": name, "default": name == self._default,
                        **model.describe()}
                       for name, model in self._models.items()],
            "default": self._default,
        }

    def stats(self) -> dict:
        """Per-model control-plane stats (the ``models`` half of /v1/stats)."""
        return {name: model.stats() for name, model in self._models.items()}

    def close(self) -> None:
        """Drain and close every mounted model; idempotent.

        Models are deduplicated first (the same :class:`ManagedModel` can be
        mounted under several names), and ``ManagedModel.close`` is itself
        idempotent, so double-``close()`` — or closing a router that shares
        mounts — is safe.
        """
        if self._closed:
            return
        self._closed = True
        seen: set[int] = set()
        for model in self._models.values():
            if id(model) not in seen:
                seen.add(id(model))
                model.close()
