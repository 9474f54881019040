"""Serialization substrate: versioned checkpoints, model bundles, JSON conversion.

* :mod:`repro.io.checkpoint`     — ``.npz``-based training checkpoints covering
  model parameters/buffers, optimizer state, scheduler state, data-loader RNG
  state and training history.
* :mod:`repro.io.bundle`         — self-describing model bundles: a checkpoint
  plus an embedded model spec and serving metadata, so
  :func:`load_bundle` rebuilds architecture + weights + normalization without
  knowing which experiment produced the file.
* :mod:`repro.io.serialization`  — lossy-but-safe conversion of arbitrary
  experiment results into JSON-serializable structures (used by the artifact
  cache and by :class:`repro.training.History`).
* :mod:`repro.io.atomic`         — :func:`atomic_publish`, the one
  temp-write → fsync → rename path every published file goes through.
"""

from .atomic import atomic_publish
from .bundle import (
    BUNDLE_FORMAT_VERSION,
    Bundle,
    bundle_section,
    default_bundle_name,
    load_bundle,
    save_bundle,
)
from .checkpoint import CHECKPOINT_VERSION, Checkpoint, load_checkpoint, save_checkpoint
from .serialization import atomic_write_json, to_jsonable

__all__ = [
    "atomic_publish",
    "atomic_write_json",
    "BUNDLE_FORMAT_VERSION",
    "Bundle",
    "bundle_section",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "default_bundle_name",
    "load_bundle",
    "load_checkpoint",
    "save_bundle",
    "save_checkpoint",
    "to_jsonable",
]
