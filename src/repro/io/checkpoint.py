"""Versioned ``.npz`` training checkpoints.

A checkpoint is a single ``.npz`` file holding every piece of training state
needed to continue a run *bit-identically*:

* model parameters and buffers (``Module.state_dict``),
* optimizer per-parameter state and group hyperparameters
  (``Optimizer.state_dict`` — momentum buffers, Adam moments, step counts,
  scheduler-modified learning rates),
* learning-rate scheduler state (``LRScheduler.state_dict``),
* data-loader RNG state (``DataLoader.state_dict`` — shuffle order and
  augmentation draws resume exactly where they stopped),
* the training :class:`~repro.training.History` and arbitrary ``extra``
  scalars (epoch counter, divergence flags, best-model tracking).

Layout: every NumPy array in the state tree is stored as its own ``.npz``
entry (``array_<n>``, preserving dtype and shape exactly); the remaining
structure is JSON-encoded with ``{"__ndarray__": n}`` placeholders and stored
as a UTF-8 byte entry under ``__checkpoint__``.  No pickling is involved, so
checkpoints are portable and safe to load.

The format is versioned through :data:`CHECKPOINT_VERSION`; loading a file
written by a *newer* format raises so stale readers fail loudly instead of
mis-restoring state.

Checkpoint files are **byte-deterministic**: the ``.npz`` container is written
with pinned zip metadata (fixed timestamps, no compression), so saving the
same training state twice — or reaching it twice through different execution
paths, e.g. an N-worker data-parallel run versus its sequential twin, or a
killed-and-resumed run versus an uninterrupted one — produces files with
identical sha256.  CI compares checkpoints exactly this way.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

from .atomic import atomic_publish

__all__ = ["CHECKPOINT_VERSION", "Checkpoint", "save_checkpoint", "load_checkpoint"]

#: Current checkpoint format version.  Bump when the layout changes.
#: v1: epoch-boundary loader state only (shuffle/augment RNG streams).
#: v2: the loader section may carry a mid-epoch ``cursor`` (batch index +
#:     pre-epoch shuffle RNG) and ``extra`` carries the step-granular fields
#:     (``step``, ``batch_index``, ``epoch_in_progress``, ``partial``).  A v2
#:     reader loads v1 files unchanged (the new fields are simply absent).
CHECKPOINT_VERSION = 2

#: Pinned timestamp for every zip entry (the DOS-epoch floor): entry bytes
#: depend only on the stored state, never on the wall clock.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

_META_KEY = "__checkpoint__"
_ARRAY_MARKER = "__ndarray__"


def _flatten(value, arrays: list[np.ndarray]):
    """Replace every ndarray in a nested structure by an index placeholder."""
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {_ARRAY_MARKER: len(arrays) - 1}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _flatten(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_flatten(item, arrays) for item in value]
    return value


def _resolve(value, arrays: dict[int, np.ndarray]):
    """Inverse of :func:`_flatten`: substitute placeholders with real arrays."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_MARKER}:
            return arrays[int(value[_ARRAY_MARKER])]
        return {key: _resolve(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_resolve(item, arrays) for item in value]
    return value


def _write_npz(stream, payload: dict[str, np.ndarray]) -> None:
    """Write ``payload`` as a deterministic uncompressed ``.npz``.

    ``np.savez`` stamps every zip entry with the current time, which would
    make two byte-identical states hash differently.  This writer produces
    the same container format (``<key>.npy`` entries readable by
    ``np.load``) with the timestamp pinned to the DOS epoch, so checkpoint
    bytes are a pure function of the stored state.
    """
    with zipfile.ZipFile(stream, "w", zipfile.ZIP_STORED) as archive:
        for key, array in payload.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.asarray(array),
                                      allow_pickle=False)
            info = zipfile.ZipInfo(f"{key}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o600 << 16
            archive.writestr(info, buffer.getvalue())


def save_checkpoint(path, *, model=None, optimizer=None, scheduler=None,
                    loader=None, history=None, rng=None, extra: dict | None = None,
                    bundle: dict | None = None,
                    version: int = CHECKPOINT_VERSION) -> Path:
    """Write a checkpoint; every component is optional.

    ``model``/``optimizer``/``scheduler``/``loader`` must expose
    ``state_dict()``; ``history`` must expose ``to_list()``; ``rng`` is a
    :class:`numpy.random.Generator` whose bit-generator state is stored;
    ``extra`` is a JSON-serializable dictionary for caller bookkeeping;
    ``bundle`` is the self-describing model section written by
    :mod:`repro.io.bundle` (model spec + serving metadata), which makes the
    checkpoint loadable by :func:`repro.io.load_bundle` without knowing the
    architecture in advance.
    The write is atomic (unique temp file + fsync + rename) so an interrupted
    save never corrupts an existing checkpoint, and the bytes are
    deterministic (see :func:`_write_npz`) so identical states hash
    identically.
    """
    sections: dict = {}
    if model is not None:
        sections["model"] = model.state_dict()
    if optimizer is not None:
        sections["optimizer"] = optimizer.state_dict()
    if scheduler is not None:
        sections["scheduler"] = scheduler.state_dict()
    if loader is not None:
        sections["loader"] = loader.state_dict()
    if history is not None:
        sections["history"] = history.to_list()
    if rng is not None:
        sections["rng"] = rng.bit_generator.state
    if extra is not None:
        sections["extra"] = dict(extra)
    if bundle is not None:
        sections["bundle"] = dict(bundle)

    arrays: list[np.ndarray] = []
    meta = {"version": version, "sections": _flatten(sections, arrays)}
    payload = {f"array_{index}": array for index, array in enumerate(arrays)}
    payload[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)

    # Concurrent savers (e.g. two workers sharing a checkpoint_dir) never
    # interleave into one temp file, and a crash never publishes a torn .npz.
    path = Path(path)
    with atomic_publish(path) as stream:
        _write_npz(stream, payload)
    return path


class Checkpoint:
    """Loaded checkpoint: a version plus named state sections.

    ``sections`` maps section names (``"model"``, ``"optimizer"``, ...) to
    fully resolved state structures (NumPy arrays restored with their exact
    dtype and shape).  :meth:`restore` pushes the state back into live
    objects; individual sections remain accessible for inspection.
    """

    def __init__(self, version: int, sections: dict, path: Path | None = None):
        self.version = version
        self.sections = sections
        self.path = path

    def __contains__(self, section: str) -> bool:
        return section in self.sections

    def get(self, section: str, default=None):
        return self.sections.get(section, default)

    def restore(self, *, model=None, optimizer=None, scheduler=None,
                loader=None, rng=None) -> "Checkpoint":
        """Load the matching sections into the given live objects.

        Passing an object whose section is absent from the checkpoint raises
        ``KeyError`` — a silent partial restore would defeat the purpose of
        checkpointing.  Returns ``self`` for chaining.
        """
        targets = {"model": model, "optimizer": optimizer,
                   "scheduler": scheduler, "loader": loader}
        requested = {section: target for section, target in targets.items()
                     if target is not None}
        if rng is not None:
            requested["rng"] = rng
        # Validate every requested section up front so a missing one never
        # leaves the caller's objects partially restored.
        absent = [section for section in requested if section not in self.sections]
        if absent:
            raise KeyError(f"checkpoint {self.path or ''} has no {absent} section(s); "
                           f"available: {sorted(self.sections)}")
        for section, target in requested.items():
            if section == "rng":
                target.bit_generator.state = self.sections["rng"]
            else:
                target.load_state_dict(self.sections[section])
        return self

    def history(self):
        """Rebuild the stored :class:`~repro.training.History` (empty if absent)."""
        from ..training.history import History

        return History.from_records(self.sections.get("history", []))

    @property
    def extra(self) -> dict:
        return self.sections.get("extra", {})


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    with np.load(path) as data:
        if _META_KEY not in data:
            raise ValueError(f"{path} is not a repro checkpoint (missing {_META_KEY!r})")
        meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
        version = int(meta.get("version", -1))
        if version > CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {path} has format version {version}, but this build "
                f"only supports up to {CHECKPOINT_VERSION}; refusing to load")
        arrays = {int(key.split("_", 1)[1]): np.array(data[key])
                  for key in data.files if key.startswith("array_")}
    sections = _resolve(meta["sections"], arrays)
    return Checkpoint(version=version, sections=sections, path=path)
