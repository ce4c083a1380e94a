"""Spectral decomposition, diffusion coordinates, and the distance oracle."""

import numpy as np
import pytest

from sca.errors import ValidationError
from sca.markov import build_transition, stationary_distribution
from sca.spectral import (
    SpectralDecomposition,
    decompose,
    diffusion_distance,
    diffusion_distance_matrix,
    embed,
)

from _util import gaussian_dataset, pipeline


def _uniform_two_point():
    return build_transition(np.zeros((2, 2)), epsilon=1.0)


def _embedding_pair_distances(coords):
    n = coords.shape[0]
    out = np.zeros((n, n))
    for i in range(n - 1):
        out[i, i + 1:] = np.sqrt(np.sum((coords[i + 1:] - coords[i]) ** 2, axis=1))
    return out + out.T


# --- decompose --------------------------------------------------------------

def test_two_point_uniform_chain_spectrum():
    t = _uniform_two_point()
    s = decompose(t)
    # the trivial pair is not stored: A 1 = 1 holds for any chain
    np.testing.assert_array_equal(t.matrix @ np.ones(2), [1.0, 1.0])
    np.testing.assert_allclose(s.eigenvalues, [0.0], atol=1e-15)


def test_three_point_chain_matches_generic_eigensolver():
    # independent oracle: generic dense eigensolver applied directly to A
    dmat = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    t = build_transition(dmat, epsilon=2.0)
    s = decompose(t)
    oracle = np.sort(np.real(np.linalg.eigvals(np.array(t.matrix))))[::-1]
    np.testing.assert_allclose(
        np.concatenate([[1.0], s.eigenvalues]), oracle, atol=1e-9
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenpair_residuals(seed):
    data = gaussian_dataset(20, 3, seed)
    _, t, s = pipeline(data)
    residual = t.matrix @ s.eigenvectors - s.eigenvectors * s.eigenvalues[None, :]
    assert np.abs(residual).max() <= 1e-9


def test_eigenvalues_descending_and_bounded():
    data = gaussian_dataset(25, 4, 3)
    _, _, s = pipeline(data)
    assert (np.diff(s.eigenvalues) <= 1e-15).all()
    assert np.abs(s.eigenvalues).max() <= 1.0 + 1e-12


def test_phi0_weighted_orthonormality():
    data = gaussian_dataset(18, 2, 4)
    _, _, s = pipeline(data)
    gram = (s.eigenvectors * s.phi0[:, None]).T @ s.eigenvectors
    assert np.abs(gram - np.eye(data.n - 1)).max() <= 1e-9


def test_sign_convention_largest_entry_positive():
    data = gaussian_dataset(15, 3, 5)
    _, _, s = pipeline(data)
    for j in range(s.eigenvectors.shape[1]):
        col = s.eigenvectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_decompose_is_bitwise_deterministic():
    data = gaussian_dataset(16, 3, 6)
    _, t, _ = pipeline(data)
    a = decompose(t)
    b = decompose(t)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


# --- embed -------------------------------------------------------------------

def test_embed_t1_full_rank_columns():
    data = gaussian_dataset(10, 2, 7)
    _, _, s = pipeline(data)
    emb = embed(s, 1, 9)
    expected = s.eigenvectors * (s.eigenvalues ** 1)[None, :]
    assert np.array_equal(emb.coords, expected)


def test_embed_t2_is_t1_rescaled():
    data = gaussian_dataset(10, 2, 8)
    _, _, s = pipeline(data)
    one = embed(s, 1, 5).coords
    two = embed(s, 2, 5).coords
    np.testing.assert_allclose(two, one * s.eigenvalues[:5][None, :], rtol=1e-14)


def test_embed_r_out_of_range():
    data = gaussian_dataset(8, 2, 9)
    _, _, s = pipeline(data)
    with pytest.raises(ValidationError):
        embed(s, 1, 8)
    with pytest.raises(ValidationError):
        embed(s, 1, 0)


def test_embed_r_bounded_by_stored_pairs():
    data = gaussian_dataset(12, 2, 9)
    _, _, s = pipeline(data)
    short = SpectralDecomposition(
        eigenvalues=s.eigenvalues[:4], eigenvectors=s.eigenvectors[:, :4], phi0=s.phi0)
    np.testing.assert_array_equal(embed(short, 2, 4).coords, embed(s, 2, 4).coords)
    with pytest.raises(ValidationError, match="stores 4"):
        embed(short, 1, 5)


def test_embed_t_must_be_positive_integer():
    data = gaussian_dataset(8, 2, 9)
    _, _, s = pipeline(data)
    with pytest.raises(ValidationError):
        embed(s, 0, 2)


# --- diffusion distance -------------------------------------------------------

def test_distance_to_self_is_zero():
    data = gaussian_dataset(9, 2, 10)
    _, t, _ = pipeline(data)
    phi0 = stationary_distribution(t)
    assert diffusion_distance(t, phi0, 3, 4, 4) == 0.0


def test_two_point_uniform_chain_distance_zero():
    t = _uniform_two_point()
    phi0 = stationary_distribution(t)
    for steps in (1, 2, 7):
        assert diffusion_distance(t, phi0, steps, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_spectral_identity_cross_check():
    # summing over the full spectrum must reproduce the matrix-power route
    data = gaussian_dataset(10, 3, 11)
    _, t, s = pipeline(data)
    phi0 = stationary_distribution(t)
    lam2 = s.eigenvalues ** 2
    for i in range(10):
        for j in range(i + 1, 10):
            dpsi = s.eigenvectors[i] - s.eigenvectors[j]
            spectral_route = np.sqrt(np.sum(lam2 * dpsi ** 2))
            oracle = diffusion_distance(t, phi0, 1, i, j)
            assert spectral_route == pytest.approx(oracle, rel=1e-8)


def test_full_rank_embedding_matches_diffusion_distance():
    data = gaussian_dataset(10, 3, 12)
    _, t, s = pipeline(data)
    phi0 = stationary_distribution(t)
    emb = embed(s, 3, 9)
    dist = _embedding_pair_distances(emb.coords)
    oracle = diffusion_distance_matrix(t, phi0, 3)
    for i in range(10):
        for j in range(i + 1, 10):
            assert dist[i, j] == pytest.approx(oracle[i, j], rel=1e-8)


def test_distance_matrix_matches_pairwise_op():
    data = gaussian_dataset(8, 2, 13)
    _, t, _ = pipeline(data)
    phi0 = stationary_distribution(t)
    full = diffusion_distance_matrix(t, phi0, 2)
    for i in range(8):
        for j in range(8):
            assert full[i, j] == pytest.approx(
                diffusion_distance(t, phi0, 2, i, j), rel=1e-12, abs=1e-15
            )


def test_truncation_monotonicity():
    data = gaussian_dataset(12, 3, 14)
    _, t, s = pipeline(data)
    phi0 = stationary_distribution(t)
    full = diffusion_distance_matrix(t, phi0, 2)
    previous = np.zeros((12, 12))
    for r in range(1, 12):
        current = _embedding_pair_distances(embed(s, 2, r).coords)
        assert (current >= previous - 1e-12).all()
        assert (current <= full + 1e-10).all()
        previous = current


def test_eigenvalue_decay_bounds_truncation_error():
    data = gaussian_dataset(12, 3, 15)
    _, t, s = pipeline(data)
    phi0 = stationary_distribution(t)
    steps = 2
    full = diffusion_distance_matrix(t, phi0, steps)
    psi_pair = _embedding_pair_distances(s.eigenvectors)  # unscaled basis distances
    for r in (2, 5, 8):
        truncated = _embedding_pair_distances(embed(s, steps, r).coords)
        dropped_scale = np.abs(s.eigenvalues[r:]).max() ** steps
        bound = dropped_scale * psi_pair.max()
        assert (full - truncated <= bound + 1e-10).all()


def test_diffusion_distance_index_validation():
    data = gaussian_dataset(8, 2, 16)
    _, t, _ = pipeline(data)
    phi0 = stationary_distribution(t)
    with pytest.raises(ValidationError):
        diffusion_distance(t, phi0, 1, 0, 8)
