"""Spectral decomposition, diffusion coordinates, and the distance oracle."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sca import spectral
from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity
from sca.errors import NumericalError, ValidationError
from sca.markov import build_transition, default_epsilon, stationary_distribution
from sca.spectral import (
    DEFAULT_PAIRS,
    SpectralDecomposition,
    decompose,
    embed,
)
from sca.synthetic import GeneratorSpec, generate

from _oracles import diffusion_distance, diffusion_distance_matrix
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
    _, t, s = pipeline(data)
    phi0 = stationary_distribution(t)
    gram = (s.eigenvectors * phi0[:, None]).T @ s.eigenvectors
    assert np.abs(gram - np.eye(data.n - 1)).max() <= 1e-9


def test_sign_convention_lead_entry_positive():
    data = gaussian_dataset(15, 3, 5)
    _, _, s = pipeline(data)
    for j in range(s.eigenvectors.shape[1]):
        magnitude = np.abs(s.eigenvectors[:, j])
        lead = np.flatnonzero(magnitude >= (1.0 - 1e-9) * magnitude.max())[0]
        assert s.eigenvectors[lead, j] > 0


@pytest.mark.parametrize("column", [
    [0.1, -np.nextafter(0.5, 1.0), 0.5, 0.3],   # the lower index is larger by one ulp
    [0.1, -0.5, np.nextafter(0.5, 1.0), 0.3],   # the higher index is larger by one ulp
])
def test_sign_convention_is_not_decided_by_one_ulp(monkeypatch, column):
    # on the uniform 4-point chain psi = 2 x the solver's vector exactly;
    # the two largest |entries| tie to one ulp with opposite signs, and the
    # lead is the lower index whichever of them rounding made larger
    vectors = np.column_stack([np.full(4, 0.5), column])
    monkeypatch.setattr(spectral, "_eigh_pairs",
                        lambda sym, wanted: (np.array([1.0, 0.5]), vectors))
    psi = decompose(build_transition(np.zeros((4, 4)), 1.0), 1).eigenvectors[:, 0]
    assert np.array_equal(np.abs(psi), 2.0 * np.abs(column))
    assert psi[1] > 0 and psi[2] < 0


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
        eigenvalues=s.eigenvalues[:4], eigenvectors=s.eigenvectors[:, :4])
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


# --- partial spectrum against the full eigh oracle -----------------------------

def _full_eigh_oracle(transition):
    """Every nontrivial pair from one full eigh of the symmetric conjugate.

    This is the whole-spectrum decomposition, step for step: conjugate,
    eigh, descending order without the trivial top pair, phi0-orthonormal
    scaling, and positive lead entry (the first within 1e-9 relative of
    the largest magnitude).
    """
    s = transition.kernel_row_sums
    sqrt_s = np.sqrt(s)
    sym = np.outer(1.0 / sqrt_s, 1.0 / sqrt_s)
    sym *= transition.kernel
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals = eigvals[::-1][1:]
    eigvecs = eigvecs[:, ::-1][:, 1:]
    total = s.sum()
    psi = (eigvecs / sqrt_s[:, None]) * np.sqrt(total)
    for j in range(psi.shape[1]):
        magnitude = np.abs(psi[:, j])
        lead = np.flatnonzero(magnitude >= (1.0 - 1e-9) * magnitude.max())[0]
        if psi[lead, j] < 0:
            psi[:, j] = -psi[:, j]
    return eigvals, psi


def _transition_of(points, epsilon_scale=1.0):
    data = DataSet(points=points, ids=tuple(str(i) for i in range(len(points))))
    dmat = pairwise_dissimilarity(data, Dissimilarity())
    return build_transition(dmat, default_epsilon(dmat) * epsilon_scale)


def _swiss_roll(n, seed=1):
    return generate(GeneratorSpec(kind="swiss-roll", n=n, noise_sd=0.05, seed=seed)).points


def _two_blobs(n, seed=1):
    points = np.random.default_rng(seed).normal(size=(n, 3))
    points[n // 2:, 0] += 10.0
    return points


def _assert_matches_oracle(transition, dec):
    lam, psi = _full_eigh_oracle(transition)
    r = dec.eigenvalues.size
    assert np.abs(dec.eigenvalues - lam[:r]).max() <= 1e-13
    residual = transition.matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.abs(residual).max() <= 1e-10
    # |cos| in the phi0 inner product, for pairs separated from both neighbours
    phi0 = stationary_distribution(transition)
    cos = np.abs(np.sum(dec.eigenvectors * psi[:, :r] * phi0[:, None], axis=0))
    spectrum = np.concatenate([[1.0], lam, [-np.inf]])
    gaps = np.minimum(spectrum[:r] - spectrum[1:r + 1], spectrum[1:r + 1] - spectrum[2:r + 2])
    separated = gaps > 1e-6
    assert separated.any()
    assert (cos[separated] >= 1.0 - 1e-10).all()


def _forbid_full_eigh(monkeypatch):
    def fail(sym, wanted):
        raise AssertionError("full eigh fallback taken")
    monkeypatch.setattr(spectral, "_eigh_pairs", fail)


def _count_kernel_columns(monkeypatch):
    """Columns of each product with W that the Krylov solver takes."""
    columns = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul:
                columns.append(inputs[1].shape[1])
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) for o in out)
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    real = spectral._krylov_pairs
    monkeypatch.setattr(spectral, "_krylov_pairs",
                        lambda kernel, *rest: real(kernel.view(Counted), *rest))
    return columns


def _count_full_eigh(monkeypatch):
    calls = []
    real = spectral._eigh_pairs

    def spy(sym, wanted):
        calls.append(sym.shape[0])
        return real(sym, wanted)
    monkeypatch.setattr(spectral, "_eigh_pairs", spy)
    return calls


@pytest.mark.parametrize("n", [400, 1000])
@pytest.mark.parametrize("r", [5, 10, 50])
def test_krylov_pairs_match_full_eigh_on_swiss_roll(monkeypatch, n, r):
    transition = _transition_of(_swiss_roll(n))
    _forbid_full_eigh(monkeypatch)
    dec = decompose(transition, r)
    assert dec.eigenvalues.shape == (r,) and dec.eigenvectors.shape == (n, r)
    _assert_matches_oracle(transition, dec)


def test_krylov_basis_falls_back_to_householder_when_cholesky_fails(monkeypatch):
    transition = _transition_of(_swiss_roll(400))
    _forbid_full_eigh(monkeypatch)
    failed, householder = [], []
    qr = np.linalg.qr

    def no_cholesky(gram):
        failed.append(gram.shape)
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    def counted_qr(a, *args, **kwargs):
        householder.append(a.shape[1])
        return qr(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    dec = decompose(transition, 10)
    # the start block, then two passes per block after it
    assert len(failed) == len(householder) >= 3 and len(failed) % 2 == 1
    assert set(householder) == {19}
    _assert_matches_oracle(transition, dec)


def test_krylov_basis_at_the_median_bandwidth_stops_after_four_blocks(monkeypatch):
    # r = 50: blocks of 59 columns, each multiplied by W once
    transition = _transition_of(_swiss_roll(1000))
    _forbid_full_eigh(monkeypatch)
    columns = _count_kernel_columns(monkeypatch)
    dec = decompose(transition, 50)
    assert set(columns) == {59} and sum(columns) <= 4 * 59
    _assert_matches_oracle(transition, dec)


@pytest.mark.parametrize("points, scale, r, fallback", [
    (_swiss_roll(1000), 0.05, 50, False),   # slow decay: converges at 472 columns
    (_swiss_roll(1000), 0.02, 50, True),    # slower still: projected past the cap
    (_swiss_roll(400), 0.02, 10, True),
    (_swiss_roll(1000), 5.0, 50, False),    # near-degenerate tail, gaps down to 1e-10
    (_two_blobs(1000), 1.0, 50, False),
    (_two_blobs(400), 1.0, 10, False),
], ids=["roll-eps0.05-n1000", "roll-eps0.02-n1000", "roll-eps0.02-n400", "roll-eps5",
        "blobs-n1000", "blobs-n400"])
def test_hard_spectra_match_full_eigh(monkeypatch, points, scale, r, fallback):
    transition = _transition_of(points, scale)
    calls = _count_full_eigh(monkeypatch)
    dec = decompose(transition, r)
    assert bool(calls) == fallback
    _assert_matches_oracle(transition, dec)


def test_slow_krylov_convergence_falls_back_to_eigh_early(monkeypatch):
    # a 10-D Gaussian at a small bandwidth has a flat leading spectrum: after
    # 4 blocks the largest residual is still 0.09, which projects past the
    # 600-column cap, so the solver gives up rather than grow to the cap
    transition = _transition_of(np.random.default_rng(1).normal(size=(1000, 10)), 0.1)
    calls = _count_full_eigh(monkeypatch)
    columns = _count_kernel_columns(monkeypatch)
    dec = decompose(transition)
    assert calls == [1000]
    assert columns == [59] * 4
    lam, psi = _full_eigh_oracle(transition)
    assert np.array_equal(dec.eigenvalues, lam[:50])
    assert np.array_equal(dec.eigenvectors, psi[:, :50])


def test_small_n_default_is_leading_pairs_of_full_eigh_bitwise():
    # n = 120 is below the Krylov size, so the default 50 pairs are the
    # leading pairs of the full-spectrum decomposition bit for bit
    lib = generate(GeneratorSpec(kind="degenerate-components", n=120, seed=11,
                                 separation=0.01))
    transition = _transition_of(lib.spectra)
    dec = decompose(transition)
    lam, psi = _full_eigh_oracle(transition)
    assert np.array_equal(dec.eigenvalues, lam[:DEFAULT_PAIRS])
    assert np.array_equal(dec.eigenvectors, psi[:, :DEFAULT_PAIRS])


_HASH_DECOMPOSITION = """
import hashlib
import numpy as np
from sca.dataset import DataSet, Dissimilarity, pairwise_dissimilarity
from sca.markov import build_transition, default_epsilon
from sca.spectral import decompose
from sca.synthetic import GeneratorSpec, generate
points = generate(GeneratorSpec(kind="swiss-roll", n=1000, noise_sd=0.05, seed=1)).points
data = DataSet(points=points, ids=tuple(str(i) for i in range(len(points))))
dmat = pairwise_dissimilarity(data, Dissimilarity())
dec = decompose(build_transition(dmat, default_epsilon(dmat)))
print(hashlib.sha256(dec.eigenvalues.tobytes() + dec.eigenvectors.tobytes()).hexdigest())
"""


def test_krylov_decompose_bitwise_repeatable_in_process_and_subprocess(monkeypatch):
    transition = _transition_of(_swiss_roll(1000))
    _forbid_full_eigh(monkeypatch)
    first, second = decompose(transition), decompose(transition)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    digest = hashlib.sha256(first.eigenvalues.tobytes() +
                            first.eigenvectors.tobytes()).hexdigest()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(spectral.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _HASH_DECOMPOSITION], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == digest


def test_decompose_default_pair_count_and_r_validation():
    transition = _transition_of(_swiss_roll(200))
    assert decompose(transition).eigenvalues.shape == (DEFAULT_PAIRS,)
    assert decompose(transition, 80).eigenvalues.shape == (80,)
    assert decompose(transition, 199).eigenvalues.shape == (199,)
    for bad in (0, 200, -1, 2.0, "5"):
        with pytest.raises(ValidationError, match="eigenpairs r"):
            decompose(transition, bad)
    with pytest.raises(ValidationError, match=f"stores {DEFAULT_PAIRS}"):
        embed(decompose(transition), 1, 80)
    small = _uniform_two_point()
    assert decompose(small).eigenvalues.shape == (1,)


# --- connectivity -----------------------------------------------------------------

def test_numerically_disconnected_graph_raises():
    # two 40-point blobs 10 apart: at epsilon = 1 every cross-blob kernel
    # entry is below rounding, so eigenvalue 1 is double and psi_1 would
    # be a component indicator
    points = np.random.default_rng(0).normal(size=(80, 2))
    points[40:, 0] += 10.0
    dmat = pairwise_dissimilarity(
        DataSet(points=points, ids=tuple(map(str, range(80)))), Dissimilarity())
    with pytest.raises(NumericalError, match="numerically disconnected.*larger epsilon"):
        decompose(build_transition(dmat, 1.0))
    # the median bandwidth joins the blobs
    assert 1.0 - decompose(build_transition(dmat, default_epsilon(dmat))).eigenvalues[0] > 0.1


def test_top_vector_that_is_not_constant_raises(monkeypatch):
    transition = _transition_of(_swiss_roll(200))
    real = spectral._eigh_pairs

    def mixed(sym, wanted):
        # a top vector rotated 1e-3 rad towards the next one
        vals, vecs = real(sym, wanted)
        vecs = vecs.copy()
        c, s = np.cos(1e-3), np.sin(1e-3)
        vecs[:, 0], vecs[:, 1] = c * vecs[:, 0] + s * vecs[:, 1], c * vecs[:, 1] - s * vecs[:, 0]
        return vals, vecs

    monkeypatch.setattr(spectral, "_krylov_pairs", lambda *a: None)
    monkeypatch.setattr(spectral, "_eigh_pairs", mixed)
    with pytest.raises(NumericalError, match="numerically disconnected.*off the constant"):
        decompose(transition)
