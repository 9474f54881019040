"""Quadratic-matrix decomposition utilities (Sec. III-A of the paper).

The paper's construction of the efficient quadratic neuron rests on three
linear-algebra facts, all implemented and tested here:

1. **Lemma 1 (symmetrization)** — for any real matrix ``M`` the quadratic form
   satisfies ``xᵀMx = xᵀM′x`` with ``M′ = (M + Mᵀ)/2`` symmetric, so the
   quadratic part of a neuron never needs an asymmetric matrix.
2. **Spectral decomposition** — a real symmetric matrix factors as
   ``M = QΛQᵀ`` with orthonormal ``Q`` and real diagonal ``Λ``.
3. **Eckart–Young–Mirsky** — keeping the ``k`` eigenpairs with the largest
   absolute eigenvalues gives the best rank-``k`` approximation of ``M`` in
   Frobenius norm, which is exactly the paper's top-``k`` selection (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "symmetrize",
    "eigendecompose",
    "top_k_truncation",
    "reconstruct",
    "frobenius_error",
    "QuadraticDecomposition",
]


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric matrix ``(M + Mᵀ)/2`` of Lemma 1."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return 0.5 * (matrix + matrix.T)


def eigendecompose(matrix: np.ndarray, sort_by_magnitude: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a (possibly asymmetric) quadratic-form matrix.

    The matrix is first symmetrized (Lemma 1), then decomposed with
    ``numpy.linalg.eigh``.  Eigenpairs are returned sorted by decreasing
    ``|λ|`` (the ordering used by the paper's top-``k`` selection) unless
    ``sort_by_magnitude`` is ``False``, in which case the natural ascending
    order of ``eigh`` is kept.

    Returns
    -------
    (eigenvalues, eigenvectors):
        ``eigenvalues`` has shape ``(n,)``; ``eigenvectors`` has shape
        ``(n, n)`` with eigenvector ``i`` in column ``i``.
    """
    symmetric = symmetrize(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
    if sort_by_magnitude:
        order = np.argsort(-np.abs(eigenvalues), kind="stable")
        eigenvalues = eigenvalues[order]
        eigenvectors = eigenvectors[:, order]
    return eigenvalues, eigenvectors


def top_k_truncation(eigenvalues: np.ndarray, eigenvectors: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``k`` leading eigenpairs (Fig. 2 of the paper).

    Returns ``(Λᵏ, Qᵏ)`` where ``Λᵏ`` has shape ``(k,)`` and ``Qᵏ`` has shape
    ``(n, k)``.
    """
    n = eigenvalues.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"rank k must be in [1, {n}], got {k}")
    return eigenvalues[:k].copy(), eigenvectors[:, :k].copy()


def reconstruct(lambda_k: np.ndarray, q_k: np.ndarray) -> np.ndarray:
    """Rebuild ``Mᵏ = QᵏΛᵏ(Qᵏ)ᵀ`` from a truncated decomposition."""
    return (q_k * lambda_k) @ q_k.T


def frobenius_error(matrix: np.ndarray, approximation: np.ndarray) -> float:
    """Frobenius-norm approximation error ``‖M − M̂‖_F``."""
    return float(np.linalg.norm(np.asarray(matrix) - np.asarray(approximation), ord="fro"))


@dataclass
class QuadraticDecomposition:
    """A rank-``k`` decomposition ``M ≈ QᵏΛᵏ(Qᵏ)ᵀ`` of a quadratic-form matrix.

    Attributes
    ----------
    q_k:
        Orthonormal factor of shape ``(n, k)`` (columns are eigenvectors).
    lambda_k:
        Retained eigenvalues of shape ``(k,)``.
    residual_error:
        Frobenius error of the approximation against the symmetrized original.
    """

    q_k: np.ndarray
    lambda_k: np.ndarray
    residual_error: float

    @property
    def rank(self) -> int:
        return int(self.lambda_k.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.q_k.shape[0])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, k: int) -> "QuadraticDecomposition":
        """Decompose ``matrix`` and keep the top-``k`` eigenpairs by magnitude."""
        symmetric = symmetrize(matrix)
        eigenvalues, eigenvectors = eigendecompose(symmetric)
        lambda_k, q_k = top_k_truncation(eigenvalues, eigenvectors, k)
        error = frobenius_error(symmetric, reconstruct(lambda_k, q_k))
        return cls(q_k=q_k, lambda_k=lambda_k, residual_error=error)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the approximated quadratic form ``xᵀQᵏΛᵏ(Qᵏ)ᵀx``.

        Accepts a single vector ``(n,)`` or a batch ``(batch, n)``; returns a
        scalar or a ``(batch,)`` vector of quadratic responses.
        """
        x = np.asarray(x, dtype=np.float64)
        projections = x @ self.q_k                       # (..., k)  == fᵏ
        return np.sum(self.lambda_k * projections ** 2, axis=-1)

    def intermediate_features(self, x: np.ndarray) -> np.ndarray:
        """The paper's ``fᵏ = (Qᵏ)ᵀx`` — reused as extra neuron outputs."""
        return np.asarray(x, dtype=np.float64) @ self.q_k
