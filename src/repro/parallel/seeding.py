"""Deterministic per-task seed derivation.

Parallel sweeps must produce artifacts byte-identical to the sequential path
regardless of how tasks land on worker processes, so no task may depend on
inherited global RNG state.  Every task derives its own seed from a stable
root seed plus its identity components (experiment name, grid coordinates,
task key) by hashing the canonical JSON of those components — order-sensitive,
collision-resistant, and identical in every process.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

__all__ = ["derive_seed", "seed_task_globals"]


def derive_seed(root_seed: int, *components, bits: int = 32) -> int:
    """Derive a deterministic ``bits``-bit seed from a root seed and identity parts.

    Components may be any JSON-serializable primitives (strings, ints,
    floats, nested lists); distinct component tuples give independent seeds
    (``derive_seed(0, "fig4", 20)`` ≠ ``derive_seed(0, "fig4", 32)``), and the
    derivation never collides the way additive schemes (``seed + depth``) can.
    """
    canonical = json.dumps([int(root_seed), *components], sort_keys=True,
                           separators=(",", ":"), default=str)
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[: bits // 8], "big")


def seed_task_globals(seed: int) -> None:
    """Reset the *global* RNGs (``random``, legacy ``np.random``) for one task.

    Well-behaved task code threads explicit seeds everywhere, but this
    guarantees that any stray use of the global streams is reproducible and
    independent of whether the task runs inline, forked or spawned.
    """
    random.seed(seed)
    np.random.seed(seed % (2 ** 32))
