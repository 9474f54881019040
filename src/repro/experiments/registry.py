"""Declarative experiment registry.

Every paper artifact (fig4–fig8, table1, table2, ablation) registers one
:class:`ExperimentSpec` describing how to run it — mirroring how
:mod:`repro.tensor.ops` made "add a new op" a single registration, this makes
"add a new experiment" a single :func:`register` call at the bottom of the
driver module.  The shared runner (:mod:`repro.experiments.runner`) and the
CLI (``python -m repro``) consume the registry; nothing else needs to change
when an experiment is added.

To add a new experiment::

    # src/repro/experiments/fig9.py
    def run(scale):
        ...
        return {"rows": [...], "report": "..."}

    from .registry import register
    register(name="fig9", artifact="Fig. 9", title="...", runner=run)

and import the module from :mod:`repro.experiments` so the registration runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["ExperimentSpec", "register", "unregister", "get_spec",
           "experiment_names", "all_specs", "ensure_loaded",
           "EXTRA_MODULES_ENV"]

#: Comma-separated module names imported (and thereby registered) alongside the
#: built-in drivers.  This is how out-of-tree specs become resolvable inside
#: sweep workers, which re-resolve every spec by name in a clean process: the
#: fleet ships the parent's environment to every worker, so
#: :func:`ensure_loaded` re-imports the same modules there.
EXTRA_MODULES_ENV = "REPRO_EXPERIMENT_MODULES"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the shared runner needs to execute one paper artifact.

    ``runner`` is called as ``runner(scale)`` (or ``runner()`` when
    ``uses_scale`` is false, e.g. the analytic Table I) and must return a
    JSON-sanitizable result dictionary.  ``version`` participates in the
    artifact content hash — bump it when the driver's semantics change so
    stale cached artifacts are invalidated.  ``report_keys`` names the result
    entries the CLI prints: each is either a report string or a sub-result
    dictionary containing one.
    """

    name: str
    artifact: str
    title: str
    runner: Callable[..., dict]
    uses_scale: bool = True
    version: int = 1
    report_keys: tuple[str, ...] = ("report",)


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(name: str, artifact: str, title: str, runner: Callable[..., dict],
             **options) -> ExperimentSpec:
    """Create and register an :class:`ExperimentSpec`.

    Re-registering the *same* definition is idempotent and returns the
    existing spec (running a driver as a script re-executes its module under
    ``__main__``, hitting the module-bottom ``register`` a second time);
    registering a *conflicting* definition under an existing name raises.
    """
    spec = ExperimentSpec(name=name, artifact=artifact, title=title, runner=runner,
                          **options)
    existing = _REGISTRY.get(name)
    if existing is not None:
        if _same_definition(existing, spec):
            return existing
        raise ValueError(f"experiment '{name}' is already registered "
                         f"with a different definition")
    _REGISTRY[name] = spec
    return spec


def _same_definition(a: ExperimentSpec, b: ExperimentSpec) -> bool:
    """Equality ignoring runner identity (re-executed modules rebuild functions)."""
    return (a.artifact == b.artifact and a.title == b.title
            and a.uses_scale == b.uses_scale and a.version == b.version
            and a.report_keys == b.report_keys
            and getattr(a.runner, "__name__", None) == getattr(b.runner, "__name__", None))


def unregister(name: str) -> None:
    """Remove a registration (used by tests to register throwaway specs)."""
    _REGISTRY.pop(name, None)


def ensure_loaded() -> None:
    """Import the drivers so their module-level registrations have run.

    Also imports any modules named in ``$REPRO_EXPERIMENT_MODULES``, letting
    tests and plugins make their specs resolvable in worker processes.
    """
    from importlib import import_module

    import_module("repro.experiments")
    extra = os.environ.get(EXTRA_MODULES_ENV, "")
    for module_name in filter(None, (name.strip() for name in extra.split(","))):
        import_module(module_name)


def get_spec(name: str) -> ExperimentSpec:
    ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown experiment '{name}'; "
                       f"available: {', '.join(experiment_names())}")
    return _REGISTRY[name]


def experiment_names() -> list[str]:
    """Registered experiment names in registration order."""
    ensure_loaded()
    return list(_REGISTRY)


def all_specs() -> list[ExperimentSpec]:
    ensure_loaded()
    return list(_REGISTRY.values())
