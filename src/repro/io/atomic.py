"""Atomic file publication: the one temp-write → fsync → rename path.

Every file the library publishes for others to read — checkpoints, the
numbered ``epoch_<k>.npz``/``step_<k>.npz`` byte copies, JSON artifacts —
goes through :func:`atomic_publish`, so a reader (or a crash, including
``kill -9`` mid-write) observes the old file or the new one, never a torn
one.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

__all__ = ["atomic_publish"]


@contextmanager
def atomic_publish(path: str | Path, mode: str = "wb"):
    """Yield a stream whose bytes replace ``path`` only if the block succeeds.

    The stream is a uniquely named temporary file in the destination
    directory (concurrent writers can never interleave into one temp file).
    When the block exits normally the bytes are flushed and fsynced, then
    renamed over ``path`` with ``os.replace``; when it raises, the temp file
    is removed and ``path`` keeps its previous contents.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent,
                                             prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(descriptor, mode) as stream:
            yield stream
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
