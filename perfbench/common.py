"""Paths, child-process environment, statistics and the environment record.

Everything the benchmark writes goes under ``.perfbench_work/`` in the
checkout it runs from, and is removed when the run ends.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: BLAS threads per process.  Every serving and training layout here runs up
#: to two compute processes on a two-core box; one BLAS thread each keeps them
#: from oversubscribing the cores, which is what makes runs repeat.  Set by
#: run.py before numpy is imported and inherited by every child.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def make_workdir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def child_env(**extra: str) -> dict:
    """Environment for a benchmark child: checkout sources first, no buffering."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra)
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def mean(values) -> float:
    return sum(values) / len(values) if len(values) else 0.0


def vm_hwm_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(threads: int, connections: int) -> dict:
    """The run's environment; asserts the generator fits on the cores."""
    import numpy as np

    nproc = os.cpu_count() or 1
    if threads > nproc or connections > nproc:
        raise RuntimeError(f"load generator uses {threads} threads and "
                           f"{connections} connections on {nproc} cores")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 — older numpy: record what is known
        blas = {"name": "unknown", "version": "unknown"}
    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 text=True, capture_output=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": nproc,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha or "not a git checkout",
        "source_sha256": _source_digest(),
        "generator_threads": threads,
        "generator_connections": connections,
    }


def log(message: str) -> None:
    print(message, flush=True)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)
