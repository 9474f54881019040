"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that every
experiment in the reproduction is fully deterministic given its seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kaiming_normal",
    "kaiming_uniform",
    "orthogonal",
    "zeros",
    "ones",
    "normal",
    "uniform",
]


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 1:
        return shape[0]
    return int(np.prod(shape[1:]))


def kaiming_normal(shape, rng: np.random.Generator, gain: float = np.sqrt(2.0),
                   dtype=np.float32) -> np.ndarray:
    """He-normal initialization (suited to ReLU networks)."""
    fan_in = _fan_in(tuple(shape))
    std = gain / np.sqrt(max(fan_in, 1))
    return (rng.standard_normal(shape) * std).astype(dtype)


def kaiming_uniform(shape, rng: np.random.Generator, gain: float = np.sqrt(2.0),
                    dtype=np.float32) -> np.ndarray:
    """He-uniform initialization."""
    fan_in = _fan_in(tuple(shape))
    bound = gain * np.sqrt(3.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def orthogonal(shape, rng: np.random.Generator, gain: float = 1.0,
               dtype=np.float32) -> np.ndarray:
    """Orthogonal initialization via QR decomposition of a Gaussian matrix.

    For non-square shapes the result has orthonormal rows or columns
    (whichever is smaller), which is the natural initialization for the
    eigenvector factor ``Qᵏ`` of the proposed quadratic neuron.
    """
    rows = shape[0]
    cols = int(np.prod(shape[1:])) if len(shape) > 1 else 1
    gaussian = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q_matrix, r_matrix = np.linalg.qr(gaussian)
    # Make the decomposition unique (and the distribution uniform) by fixing signs.
    q_matrix = q_matrix * np.sign(np.diag(r_matrix))
    if rows < cols:
        q_matrix = q_matrix.T
    return (gain * q_matrix[:rows, :cols].reshape(shape)).astype(dtype)


def zeros(shape, dtype=np.float32) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


def ones(shape, dtype=np.float32) -> np.ndarray:
    return np.ones(shape, dtype=dtype)


def normal(shape, rng: np.random.Generator, mean: float = 0.0, std: float = 0.02,
           dtype=np.float32) -> np.ndarray:
    return (rng.standard_normal(shape) * std + mean).astype(dtype)


def uniform(shape, rng: np.random.Generator, low: float = -0.1, high: float = 0.1,
            dtype=np.float32) -> np.ndarray:
    return rng.uniform(low, high, size=shape).astype(dtype)
