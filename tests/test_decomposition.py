"""Tests for the quadratic-matrix decomposition utilities (Sec. III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quadratic import (
    QuadraticDecomposition,
    eigendecompose,
    frobenius_error,
    reconstruct,
    symmetrize,
    top_k_truncation,
)


def _random_matrix(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n))


class TestSymmetrize:
    def test_result_is_symmetric(self):
        sym = symmetrize(_random_matrix(6))
        np.testing.assert_allclose(sym, sym.T, atol=1e-10)

    def test_symmetric_input_unchanged(self):
        m = _random_matrix(5)
        sym = symmetrize(m)
        np.testing.assert_allclose(symmetrize(sym), sym)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((3, 4)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_lemma1_quadratic_form_preserved(self, n, seed):
        """Lemma 1: xᵀMx == xᵀ((M+Mᵀ)/2)x for every x."""
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        original = x @ matrix @ x
        symmetric = x @ symmetrize(matrix) @ x
        assert original == pytest.approx(symmetric, rel=1e-9, abs=1e-9)


class TestEigendecomposition:
    def test_reconstruction_full_rank(self):
        m = symmetrize(_random_matrix(7, seed=1))
        values, vectors = eigendecompose(m)
        np.testing.assert_allclose((vectors * values) @ vectors.T, m, atol=1e-8)

    def test_sorted_by_magnitude(self):
        values, _ = eigendecompose(_random_matrix(10, seed=2))
        magnitudes = np.abs(values)
        assert np.all(magnitudes[:-1] >= magnitudes[1:] - 1e-12)

    def test_eigenvectors_orthonormal(self):
        _, vectors = eigendecompose(_random_matrix(8, seed=3))
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(8), atol=1e-8)

    def test_asymmetric_input_handled_via_lemma1(self):
        m = _random_matrix(5, seed=4)
        values, vectors = eigendecompose(m)
        x = np.random.default_rng(0).standard_normal(5)
        full = (x @ vectors) ** 2 @ values
        assert full == pytest.approx(x @ m @ x, rel=1e-8)


class TestTopKTruncation:
    def test_shapes(self):
        values, vectors = eigendecompose(_random_matrix(9, seed=5))
        lam_k, q_k = top_k_truncation(values, vectors, 3)
        assert lam_k.shape == (3,)
        assert q_k.shape == (9, 3)

    def test_invalid_rank(self):
        values, vectors = eigendecompose(_random_matrix(4, seed=6))
        with pytest.raises(ValueError):
            top_k_truncation(values, vectors, 0)
        with pytest.raises(ValueError):
            top_k_truncation(values, vectors, 5)

    def test_full_rank_is_exact(self):
        m = symmetrize(_random_matrix(6, seed=7))
        decomposition = QuadraticDecomposition.from_matrix(m, 6)
        assert decomposition.residual_error == pytest.approx(0.0, abs=1e-7)

    def test_error_decreases_with_rank(self):
        m = symmetrize(_random_matrix(10, seed=8))
        errors = [QuadraticDecomposition.from_matrix(m, k).residual_error
                  for k in range(1, 11)]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_matches_eckart_young_bound(self):
        m = symmetrize(_random_matrix(8, seed=9))
        magnitudes = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        for k in (1, 3, 5):
            decomposition = QuadraticDecomposition.from_matrix(m, k)
            bound = np.sqrt(np.sum(magnitudes[k:] ** 2))
            assert decomposition.residual_error == pytest.approx(bound, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_truncation_beats_random_rank_k(self, n, seed):
        """Eckart–Young: the top-k eigen truncation is at least as good as a random rank-k."""
        rng = np.random.default_rng(seed)
        m = symmetrize(rng.standard_normal((n, n)))
        k = rng.integers(1, n)
        optimal = QuadraticDecomposition.from_matrix(m, int(k))
        random_basis, _ = np.linalg.qr(rng.standard_normal((n, int(k))))
        random_approx = random_basis @ random_basis.T @ m @ random_basis @ random_basis.T
        assert optimal.residual_error <= frobenius_error(m, random_approx) + 1e-8


class TestQuadraticDecompositionObject:
    def test_evaluate_matches_reconstructed_form(self):
        m = symmetrize(_random_matrix(7, seed=10))
        decomposition = QuadraticDecomposition.from_matrix(m, 4)
        x = np.random.default_rng(1).standard_normal(7)
        reconstructed = reconstruct(decomposition.lambda_k, decomposition.q_k)
        assert decomposition.evaluate(x) == pytest.approx(x @ reconstructed @ x, rel=1e-8)

    def test_evaluate_batched(self):
        m = symmetrize(_random_matrix(5, seed=11))
        decomposition = QuadraticDecomposition.from_matrix(m, 2)
        batch = np.random.default_rng(2).standard_normal((6, 5))
        values = decomposition.evaluate(batch)
        assert values.shape == (6,)

    def test_intermediate_features_shape(self):
        decomposition = QuadraticDecomposition.from_matrix(_random_matrix(6, seed=12), 3)
        features = decomposition.intermediate_features(np.ones(6))
        assert features.shape == (3,)
        assert decomposition.rank == 3
        assert decomposition.input_dim == 6

    def test_projection_identity_eq7(self):
        """xᵀQΛQᵀx must equal (Qᵀx)ᵀ Λ (Qᵀx) — the identity behind Eq. (7)/(8)."""
        m = symmetrize(_random_matrix(9, seed=13))
        decomposition = QuadraticDecomposition.from_matrix(m, 5)
        x = np.random.default_rng(3).standard_normal(9)
        f = decomposition.intermediate_features(x)
        direct = f @ np.diag(decomposition.lambda_k) @ f
        assert decomposition.evaluate(x) == pytest.approx(direct, rel=1e-10)
