"""Out-of-sample extension: training-set consistency, symmetry, locality."""

import math

import numpy as np
import pytest

from sca import kernels, nystrom
from sca.dataset import DataSet
from sca.errors import NumericalError, ValidationError
from sca.markov import build_transition
from sca.nystrom import (
    ExtensionModel,
    build_extension,
    extend_eigenfunctions,
    extend_embedding,
    kernel_weights,
)
from sca.spectral import SpectralDecomposition, decompose, embed
from sca.synthetic import GeneratorSpec, generate

from _util import full_pipeline, gaussian_dataset, healthy_rank


def _smoothing_loop_oracle(model, x, j):
    """Kernel-smoothed eigenfunction estimate via scalar loops only."""
    pts = model.points
    n, d = pts.shape
    weights = []
    for i in range(n):
        delta = sum((x[k] - pts[i, k]) ** 2 for k in range(d))
        if model.diss_kind == "euclidean":
            delta = math.sqrt(delta)
        weights.append(math.exp(-delta / model.epsilon))
    total = sum(weights)
    psi = model.decomposition.eigenvectors[:, j - 1]
    acc = sum(weights[i] / total * psi[i] for i in range(n))
    return acc / model.decomposition.eigenvalues[j - 1]


def test_training_point_reproduces_eigenvector():
    data = gaussian_dataset(12, 3, 0)
    _, dec, _, ext = full_pipeline(data)
    r = healthy_rank(dec)
    assert r >= 1
    for j in range(1, r + 1):
        value = extend_eigenfunctions(ext, data.points[5][None, :], j)[0, j - 1]
        assert value == pytest.approx(dec.eigenvectors[5, j - 1], abs=1e-9)


def test_zero_eigenvalue_extension_rejected():
    data = DataSet(points=[[0.0], [0.0]], ids=("0", "1"))
    dmat = np.zeros((2, 2))
    t = build_transition(dmat, epsilon=1.0)
    dec = decompose(t)
    ext = build_extension(data, t, dec)
    assert abs(dec.eigenvalues[0]) < 1e-12
    with pytest.raises(NumericalError, match="floor"):
        extend_eigenfunctions(ext, np.array([[0.5]]), 1)


def test_midpoint_of_symmetric_configuration_kills_antisymmetric_modes():
    # 4 points symmetric about 0.5; antisymmetric eigenvectors must
    # extend to 0 at the midpoint
    data = generate(GeneratorSpec(kind="line-chain", n=4, seed=0))
    _, dec, _, ext = full_pipeline(data)
    r = healthy_rank(dec)
    antisymmetric = [
        j for j in range(1, r + 1)
        if np.abs(dec.eigenvectors[:, j - 1] + dec.eigenvectors[::-1, j - 1]).max() < 1e-9
    ]
    assert antisymmetric, "expected at least one antisymmetric eigenvector"
    midpoint = np.array([0.5])
    for j in antisymmetric:
        value = extend_eigenfunctions(ext, midpoint[None, :], j)[0, j - 1]
        assert value == pytest.approx(0.0, abs=1e-9)
        assert _smoothing_loop_oracle(ext, midpoint, j) == pytest.approx(0.0, abs=1e-9)


def test_extension_matches_scalar_loop_oracle_far_point():
    data = gaussian_dataset(10, 2, 1)
    _, dec, _, ext = full_pipeline(data)
    r = healthy_rank(dec)
    far = data.points.max(axis=0) + 3.0
    coords = extend_embedding(ext, far.reshape(1, -1), 2, r)
    for j in range(1, r + 1):
        oracle = _smoothing_loop_oracle(ext, far, j) * dec.eigenvalues[j - 1] ** 2
        assert coords[0, j - 1] == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_training_set_extension_equals_embedding():
    data = gaussian_dataset(14, 3, 2)
    _, dec, _, ext = full_pipeline(data)
    r = healthy_rank(dec)
    emb = embed(dec, 2, r)
    coords = extend_embedding(ext, data.points, 2, r)
    assert np.abs(coords - emb.coords).max() <= 1e-9


def test_permuting_training_order_leaves_extension_unchanged():
    data = gaussian_dataset(12, 3, 3)
    _, dec, _, ext = full_pipeline(data)
    r = healthy_rank(dec)
    perm = np.random.default_rng(5).permutation(12)
    permuted = DataSet(points=data.points[perm],
                       ids=tuple(str(i) for i in range(12)))
    _, dec_p, _, ext_p = full_pipeline(permuted)
    queries = np.random.default_rng(6).normal(size=(3, 3))
    a = extend_embedding(ext, queries, 1, r)
    b = extend_embedding(ext_p, queries, 1, r)
    assert np.abs(a - b).max() <= 1e-12


def test_kernel_weights_are_convex():
    data = gaussian_dataset(11, 2, 4)
    _, _, _, ext = full_pipeline(data)
    queries = np.random.default_rng(7).normal(size=(5, 2)) * 2.0
    weights = kernel_weights(ext, queries)
    assert weights.min() >= 0
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12


def test_extension_is_continuous_along_a_path():
    data = gaussian_dataset(12, 2, 8)
    _, dec, _, ext = full_pipeline(data)
    r = healthy_rank(dec)
    start, stop = data.points[0], data.points[1]

    def max_jump(steps):
        alphas = np.linspace(0.0, 1.0, steps + 1)
        path = start[None, :] + alphas[:, None] * (stop - start)[None, :]
        coords = extend_embedding(ext, path, 1, r)
        return np.abs(np.diff(coords, axis=0)).max()

    coarse = max_jump(40)
    fine = max_jump(400)
    assert fine <= 0.5 * coarse  # jumps shrink with step size: no discontinuity


def test_far_query_underflow_raises():
    data = gaussian_dataset(10, 2, 9)
    _, _, _, ext = full_pipeline(data)
    # squared distance ~1e8 against a bandwidth of a few: every weight underflows
    with pytest.raises(NumericalError, match="query point 0"):
        kernel_weights(ext, data.points.max(axis=0).reshape(1, -1) + 1e4)


@pytest.mark.filterwarnings("error")  # the overflow is reported as an error, not a warning
@pytest.mark.parametrize("diss_kind", ["sqeuclidean", "euclidean"])
def test_overflowing_query_distances_raise(diss_kind):
    # a finite query whose squared distances overflow to inf
    data = gaussian_dataset(10, 2, 9)
    ext = full_pipeline(data, diss_kind=diss_kind)[3]
    with pytest.raises(NumericalError, match="query point 1"):
        kernel_weights(ext, np.array([[0.0, 0.0], [1e200, 0.0]]))


def test_table_dissimilarity_cannot_extend():
    data = gaussian_dataset(8, 2, 10)
    with pytest.raises(ValidationError, match="computable"):
        ExtensionModel(points=data.points,
                       decomposition=full_pipeline(data)[1],
                       epsilon=1.0, diss_kind="table")


def test_empty_query_block():
    data = gaussian_dataset(9, 2, 11)
    _, dec, _, ext = full_pipeline(data)
    coords = extend_embedding(ext, np.empty((0, 2)), 1, 3)
    assert coords.shape == (0, 3)


@pytest.mark.parametrize("diss_kind", ["sqeuclidean", "euclidean"])
def test_kernel_weights_bitwise_equal_to_out_of_place_expression(diss_kind):
    data = gaussian_dataset(40, 3, 21)
    _, _, _, ext = full_pipeline(data, diss_kind=diss_kind)
    q = np.random.default_rng(22).normal(size=(25, 3))
    dists = kernels.cross_sq_dists(q, ext.points)
    if diss_kind == "euclidean":
        dists = np.sqrt(dists)
    weights = np.exp(-dists / ext.epsilon)
    expected = weights / weights.sum(axis=1)[:, None]
    np.testing.assert_array_equal(kernel_weights(ext, q), expected)


def test_query_dimension_mismatch():
    data = gaussian_dataset(9, 2, 12)
    _, _, _, ext = full_pipeline(data)
    with pytest.raises(ValidationError, match="m x 2"):
        kernel_weights(ext, np.zeros((1, 3)))


def _truncated(ext, p):
    # what a regression model file stores: the leading p nontrivial pairs
    dec = ext.decomposition
    kept = SpectralDecomposition(
        eigenvalues=dec.eigenvalues[:p], eigenvectors=dec.eigenvectors[:, :p])
    return ExtensionModel(points=ext.points, decomposition=kept,
                          epsilon=ext.epsilon, diss_kind=ext.diss_kind)


def test_truncated_decomposition_bounds_r_and_j_by_stored_pairs():
    data = gaussian_dataset(20, 2, 4)
    _, _, _, ext = full_pipeline(data)
    short = _truncated(ext, 3)
    q = np.array([[0.1, -0.2], [0.3, 0.4]])
    np.testing.assert_array_equal(extend_embedding(short, q, 1, 3),
                                  extend_embedding(ext, q, 1, 3))
    with pytest.raises(ValidationError, match=r"\[1, 3\] \(the decomposition stores 3"):
        extend_embedding(short, q, 1, 5)
    with pytest.raises(ValidationError, match="stores 3"):
        extend_eigenfunctions(short, q[:1], 4)
    assert extend_eigenfunctions(short, q[:1], 3)[0, 2] == extend_eigenfunctions(ext, q[:1], 3)[0, 2]


def _whole_product(ext, q, r):
    """The extension from the whole m x n weight matrix in one product."""
    psi = np.ascontiguousarray(ext.decomposition.eigenvectors[:, :r])
    return (kernel_weights(ext, q) @ psi) / ext.decomposition.eigenvalues[:r]


def _blocked_case(diss_kind):
    """A 40-point model and queries filling 3 blocks and half of a 4th."""
    data = gaussian_dataset(40, 3, 23)
    _, dec, _, ext = full_pipeline(data, diss_kind=diss_kind)
    step = nystrom.QUERY_BLOCK_ENTRIES // ext.n
    q = np.random.default_rng(24).normal(size=(3 * step + step // 2, 3))
    return ext, healthy_rank(dec), step, q


@pytest.mark.parametrize("diss_kind", ["sqeuclidean", "euclidean"])
def test_blocked_extension_matches_whole_weight_matrix(diss_kind):
    ext, r, _, q = _blocked_case(diss_kind)
    expected = _whole_product(ext, q, r)
    got = extend_eigenfunctions(ext, q, r)
    # bitwise equal with OpenBLAS on x86-64; another BLAS may round a
    # block's rows unlike the whole product's, so 1e-12 is what is asserted
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_underflow_in_a_later_block_names_the_global_row():
    ext, r, step, q = _blocked_case("sqeuclidean")
    far = 2 * step + 5
    q[far] = 1e4
    with pytest.raises(NumericalError, match=f"query point {far} underflowed"):
        extend_eigenfunctions(ext, q, r)


@pytest.mark.parametrize("m", [0, 1])
def test_zero_or_one_query(m):
    _, _, _, ext = full_pipeline(gaussian_dataset(9, 2, 11))
    q = np.random.default_rng(25).normal(size=(m, 2))
    got = extend_eigenfunctions(ext, q, 3)
    assert got.shape == (m, 3)
    np.testing.assert_array_equal(got, _whole_product(ext, q, 3))


@pytest.mark.parametrize("query", [np.array([[np.nan]]), np.zeros((1, 2))],
                         ids=["non-finite", "wrong-dimension"])
def test_eigenvalue_floor_is_checked_before_the_queries(query):
    data = DataSet(points=[[0.0], [0.0]], ids=("0", "1"))
    t = build_transition(np.zeros((2, 2)), epsilon=1.0)
    ext = build_extension(data, t, decompose(t))
    with pytest.raises(NumericalError, match="floor"):
        extend_eigenfunctions(ext, query, 1)
