"""Conversion of arbitrary result structures into JSON-serializable form.

Experiment drivers return nested dictionaries that freely mix Python scalars,
NumPy scalars and arrays, tuples (including tuple *keys* such as the
``(tokenization, cased)`` BLEU settings of Table II) and small helper objects.
:func:`to_jsonable` normalizes all of that so artifacts can be cached as JSON:

* NumPy scalars become Python scalars, arrays become nested lists;
* tuples/sets become lists, non-string dictionary keys become strings;
* dataclasses and objects exposing ``as_dict``/``to_list``/``__dict__`` are
  converted recursively;
* anything else falls back to ``repr`` (lossy by design — artifacts are for
  inspection and cache hits, not for reconstructing live objects).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .atomic import atomic_publish

__all__ = ["to_jsonable", "atomic_write_json"]

_ATOMIC = (bool, int, float, str, type(None))


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-serializable primitives."""
    if isinstance(value, _ATOMIC):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {_key(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    for attribute in ("as_dict", "to_list"):
        method = getattr(value, attribute, None)
        if callable(method):
            return to_jsonable(method())
    if hasattr(value, "__dict__"):
        return to_jsonable(vars(value))
    return repr(value)


def atomic_write_json(path: str | Path, payload, indent: int = 2) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically.

    The bytes land in a uniquely named temporary file in the destination
    directory (so concurrent writers can never collide on the temp name),
    are fsynced, and only then renamed over ``path`` with ``os.replace``.
    A reader — or a crash — can therefore observe the old artifact or the new
    one, but never a torn, half-written JSON document.
    """
    path = Path(path)
    with atomic_publish(path, "w") as handle:
        json.dump(payload, handle, indent=indent)
        handle.write("\n")
    return path


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (bool, int, float)):
        return str(key)
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)
