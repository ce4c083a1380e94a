"""Transition-matrix construction and the stationary distribution."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sca.dataset import Dissimilarity, pairwise_dissimilarity
from sca.errors import NumericalError, ValidationError
from sca.kernels import BLOCK_ENTRIES
from sca.markov import (
    build_transition,
    default_epsilon,
    stationary_distribution,
    transition_from_points,
)

from _oracles import power_stationary
from _util import gaussian_dataset, pipeline


def _dmat_from_points(points):
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    return np.array([[np.sum((pts[i] - pts[j]) ** 2) for j in range(n)]
                     for i in range(n)])


# --- build_transition ------------------------------------------------------

def test_zero_dissimilarity_gives_uniform_chain():
    t = build_transition(np.zeros((2, 2)), epsilon=3.7)
    np.testing.assert_array_equal(t.matrix, [[0.5, 0.5], [0.5, 0.5]])


def test_scalar_loop_oracle_three_points():
    # points {0, 1, 3}, squared euclidean, epsilon = 2
    dmat = _dmat_from_points([[0.0], [1.0], [3.0]])
    t = build_transition(dmat, epsilon=2.0)
    for i in range(3):
        weights = [math.exp(-dmat[i, j] / 2.0) for j in range(3)]
        total = sum(weights)
        for j in range(3):
            assert t.matrix[i, j] == pytest.approx(weights[j] / total, rel=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rows_sum_to_one(seed):
    data = gaussian_dataset(20, 3, seed)
    _, t, _ = pipeline(data)
    assert np.abs(t.matrix.sum(axis=1) - 1.0).max() <= 1e-12


def test_entries_in_unit_interval():
    data = gaussian_dataset(15, 2, 5)
    _, t, _ = pipeline(data)
    assert t.matrix.min() > 0
    assert t.matrix.max() <= 1


def test_nonpositive_epsilon_rejected():
    with pytest.raises(ValidationError, match="epsilon"):
        build_transition(np.zeros((2, 2)), epsilon=0.0)


@pytest.mark.parametrize("epsilon", [np.inf, np.nan])
def test_nonfinite_epsilon_rejected(epsilon):
    # at eps = inf every kernel entry would be exactly 1 and the spectrum degenerate
    with pytest.raises(ValidationError, match="epsilon must be a positive finite real"):
        build_transition(np.zeros((2, 2)), epsilon=epsilon)


def test_entry_underflow_raises_with_row():
    dmat = _dmat_from_points([[0.0], [1.0], [100.0]])
    with pytest.raises(NumericalError, match="row 0"):
        build_transition(dmat, epsilon=1e-3)


def _symmetric_dissimilarities(n, seed):
    upper = np.triu(np.random.default_rng(seed).uniform(0.5, 1.5, size=(n, n)), 1)
    return upper + upper.T


def test_underflow_in_a_later_row_block_names_the_first_zero_in_row_major_order():
    # 300 rows: blocks of 109, the last partial.  Only the pair (150, 200)
    # underflows, and its first zero in row-major order lies in block 2
    n, eps = 300, 1.0
    step = BLOCK_ENTRIES // n
    dmat = _symmetric_dissimilarities(n, 3)
    dmat[150, 200] = dmat[200, 150] = 1e4
    i, j = np.argwhere(np.exp(-dmat / eps) == 0)[0]
    assert step <= i < 2 * step
    with pytest.raises(NumericalError, match=rf"at row {i} \(pair {i},{j}\)"):
        build_transition(dmat, eps)


@pytest.mark.parametrize("n", [300, 1000])
def test_blocked_kernel_and_row_sums_are_bitwise_the_whole_matrix_ones(n):
    assert n % (BLOCK_ENTRIES // n) != 0
    dmat = _symmetric_dissimilarities(n, n)
    t = build_transition(dmat, 0.7)
    weights = np.exp(-dmat / 0.7)
    assert np.array_equal(t.kernel, weights)
    assert np.array_equal(t.kernel_row_sums, weights.sum(axis=1))


def test_asymmetric_matrix_rejected():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        build_transition(bad, epsilon=1.0)


def test_misspelt_diss_kind_rejected():
    # named here, not later as a kind with "no values for unseen points"
    with pytest.raises(ValidationError, match="unknown dissimilarity kind 'euclidian'"):
        build_transition(np.zeros((2, 2)), epsilon=1.0, diss_kind="euclidian")


@pytest.mark.parametrize("rule", [build_transition, default_epsilon])
def test_one_observation_rejected(rule):
    with pytest.raises(ValidationError, match="need at least 2 observations"):
        rule(np.zeros((1, 1)))


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_points_rejected(n):
    with pytest.raises(ValidationError, match=f"need at least 2 observations, got {n}"):
        transition_from_points(np.ones((n, 2)))


def test_a_fraction_bandwidth_builds_the_chain_of_its_float():
    data = gaussian_dataset(40, 3, 2)
    half = transition_from_points(data.points, epsilon=0.5)
    for chain in (transition_from_points(data.points, epsilon=Fraction(1, 2)),
                  build_transition(pairwise_dissimilarity(data, Dissimilarity()),
                                   Fraction(1, 2))):
        assert type(chain.epsilon) is float and chain.epsilon == 0.5
        assert chain.kernel.tobytes() == half.kernel.tobytes()
        assert chain.kernel_row_sums.tobytes() == half.kernel_row_sums.tobytes()


@pytest.mark.parametrize("n", [2, 3, 7, 60])
def test_kernel_is_bitwise_the_out_of_place_exponential(n):
    dmat, _, _ = pipeline(gaussian_dataset(n, 3, n))
    for eps in (default_epsilon(dmat), 0.37, 3):
        t = build_transition(dmat, eps)
        assert np.array_equal(t.kernel, np.exp(-dmat / eps))
        assert np.array_equal(t.kernel_row_sums, np.exp(-dmat / eps).sum(axis=1))


@pytest.mark.parametrize("n", [2, 3, 7, 60, 121])
def test_default_bandwidth_is_bitwise_the_median_rule(n):
    dmat, _, _ = pipeline(gaussian_dataset(n, 3, n))
    t = build_transition(dmat)
    given = build_transition(dmat, default_epsilon(dmat))
    assert t.epsilon == given.epsilon
    assert np.array_equal(t.kernel, given.kernel)
    assert np.array_equal(t.kernel_row_sums, given.kernel_row_sums)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_non_finite_matrix_named_before_the_bandwidth_rule(n):
    # default_epsilon alone would call this NaN "degenerate"
    dmat = _symmetric(np.arange(1.0, n * n + 1).reshape(n, n))
    dmat[0, n - 1] = dmat[n - 1, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        build_transition(dmat)


@pytest.mark.filterwarnings("error")  # the overflow is reported as an error, not a warning
@pytest.mark.parametrize("diss_kind", ["sqeuclidean", "euclidean"])
def test_overflowing_distances_of_finite_points_rejected(diss_kind):
    # every coordinate is finite, but (1e200 - (-1e200))^2 overflows
    points = np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 2.0], [5.0, 3.0]])
    assert np.isfinite(points).all()
    with pytest.raises(ValidationError, match="dissimilarity matrix has non-finite entries"):
        transition_from_points(points, diss_kind)
    # a NaN coordinate is named by the points' own check, before any distance
    points[0, 0] = np.nan
    with pytest.raises(ValidationError, match="^points has non-finite entries"):
        transition_from_points(points, diss_kind)


def test_uniform_limit_as_epsilon_grows():
    data = gaussian_dataset(14, 3, 8)
    dmat, _, _ = pipeline(data)
    t = build_transition(dmat, epsilon=1e12 * dmat.max())
    assert np.abs(t.matrix - 1.0 / 14).max() <= 1e-6


# --- default_epsilon -------------------------------------------------------

def test_default_epsilon_median_of_three():
    dmat = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    assert default_epsilon(dmat) == 4.0


def test_default_epsilon_identical_points_rejected():
    with pytest.raises(ValidationError, match="degenerate"):
        default_epsilon(np.zeros((3, 3)))


def test_default_epsilon_matches_sort_oracle():
    data = gaussian_dataset(20, 3, 9)
    dmat, _, _ = pipeline(data)
    upper = sorted(dmat[i, j] for i in range(20) for j in range(i + 1, 20))
    assert len(upper) == 190
    oracle = 0.5 * (upper[94] + upper[95])
    assert default_epsilon(dmat) == pytest.approx(oracle, rel=1e-15)


def _median_oracle(dmat):
    return np.median(dmat[np.triu_indices(dmat.shape[0], 1)])


def _symmetric(values):
    upper = np.triu(values, 1)
    return upper + upper.T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 41, 42])
def test_default_epsilon_is_bitwise_the_triangle_median(n):
    # n(n-1)/2 is odd for n = 2, 3, 6, 7, 42 and even for n = 4, 5, 41;
    # above 16 entries numpy's partition no longer sorts the whole triangle
    rng = np.random.default_rng(n)
    for _ in range(50):
        dmat = _symmetric(rng.uniform(0.0, 10.0, size=(n, n)))
        assert default_epsilon(dmat) == _median_oracle(dmat)
        # ties and zeros: a few distinct small integers
        ties = _symmetric(rng.integers(0, 3, size=(n, n)).astype(float))
        if _median_oracle(ties) > 0:
            assert default_epsilon(ties) == _median_oracle(ties)
        else:
            with pytest.raises(ValidationError, match="degenerate"):
                default_epsilon(ties)


@pytest.mark.parametrize("n", [60, 62, 121, 123, 400])
def test_default_epsilon_is_bitwise_the_triangle_median_on_data(n):
    # n(n-1)/2 is even for n = 60, 121, 400 and odd for n = 62, 123
    dmat, _, _ = pipeline(gaussian_dataset(n, 3, 1))
    assert default_epsilon(dmat) == _median_oracle(dmat)
    # does not write to its argument
    assert np.array_equal(dmat, pipeline(gaussian_dataset(n, 3, 1))[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_default_epsilon_nan_entry_rejected(n):
    for i, j in [(0, 1), (0, n - 1), (n - 2, n - 1)]:
        dmat = _symmetric(np.arange(1.0, n * n + 1).reshape(n, n))
        dmat[i, j] = dmat[j, i] = np.nan
        with pytest.raises(ValidationError, match="degenerate"):
            default_epsilon(dmat)


# --- stationary distribution -----------------------------------------------

def test_stationary_uniform_chain():
    t = build_transition(np.zeros((2, 2)), epsilon=1.0)
    phi0 = stationary_distribution(t)
    np.testing.assert_array_equal(phi0, [0.5, 0.5])
    assert not phi0.flags.writeable


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stationary_left_eigenvector_residual(seed):
    data = gaussian_dataset(18, 3, seed)
    _, t, _ = pipeline(data)
    phi0 = stationary_distribution(t)
    assert phi0.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(phi0 @ t.matrix - phi0).max() <= 1e-10


def test_stationary_matches_matrix_power_oracle():
    data = gaussian_dataset(10, 2, 4)
    _, t, _ = pipeline(data)
    phi0 = stationary_distribution(t)
    row = np.linalg.matrix_power(t.matrix, 512)[0]
    oracle = row / row.sum()
    assert np.abs(phi0 - oracle).max() <= 1e-8


def test_power_iteration_matches_closed_form():
    data = gaussian_dataset(16, 3, 6)
    _, t, _ = pipeline(data)
    closed = stationary_distribution(t)
    power = power_stationary(t)
    assert np.abs(power / closed - 1.0).max() <= 1e-10


def test_stationary_strictly_positive():
    data = gaussian_dataset(12, 2, 10)
    _, t, _ = pipeline(data)
    assert stationary_distribution(t).min() > 0


def test_power_iteration_budget_error():
    data = gaussian_dataset(12, 2, 11)
    _, t, _ = pipeline(data)
    with pytest.raises(NumericalError, match="converge"):
        power_stationary(t, max_iter=1, tol=1e-16)
