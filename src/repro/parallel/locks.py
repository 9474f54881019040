"""Inter-process file locks guarding the artifact cache.

The primary implementation uses ``fcntl.flock`` — advisory, automatically
released when the holding process dies (so a crashed worker never wedges the
sweep).  On platforms without ``fcntl`` a portable ``O_CREAT | O_EXCL``
spin-lock is used instead; it is good enough for tests but, unlike ``flock``,
leaves a stale lock file behind if the holder is killed, so the fallback
treats lock files older than ``stale_seconds`` as abandoned.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

try:  # pragma: no cover - exercised indirectly on POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None

__all__ = ["FileLock", "LockTimeout"]


class LockTimeout(TimeoutError):
    """Raised when a lock cannot be acquired within the caller's timeout."""


class FileLock:
    """Exclusive inter-process lock bound to a filesystem path.

    Usage::

        with FileLock(cache_dir / "fig4-smoke-abc.json.lock"):
            ...  # critical section: check cache, train, write artifact

    ``timeout=None`` blocks until acquired; a number bounds the wait and
    raises :class:`LockTimeout` on expiry.  The lock is not reentrant.
    """

    def __init__(self, path: str | Path, timeout: float | None = None,
                 poll_interval: float = 0.05, stale_seconds: float = 3600.0):
        self.path = Path(path)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.stale_seconds = stale_seconds
        self._fd: int | None = None

    @property
    def locked(self) -> bool:
        return self._fd is not None

    def acquire(self, timeout: float | None = None) -> "FileLock":
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} is already held (not reentrant)")
        timeout = self.timeout if timeout is None else timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = None if timeout is None else time.monotonic() + timeout
        if fcntl is not None:
            self._acquire_flock(deadline)
        else:  # pragma: no cover - non-POSIX fallback
            self._acquire_exclusive_create(deadline)
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def _acquire_flock(self, deadline: float | None) -> None:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._fd = fd
                    return
                except (BlockingIOError, PermissionError):
                    if deadline is not None and time.monotonic() >= deadline:
                        raise LockTimeout(f"timed out waiting for lock {self.path}")
                    time.sleep(self.poll_interval)
        except LockTimeout:
            os.close(fd)
            raise
        except BaseException:
            os.close(fd)
            raise

    def _acquire_exclusive_create(self, deadline: float | None) -> None:  # pragma: no cover
        while True:
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
                return
            except FileExistsError:
                try:
                    if time.time() - self.path.stat().st_mtime > self.stale_seconds:
                        self.path.unlink(missing_ok=True)
                        continue
                except OSError:
                    pass
                if deadline is not None and time.monotonic() >= deadline:
                    raise LockTimeout(f"timed out waiting for lock {self.path}")
                time.sleep(self.poll_interval)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):
        self.release()
