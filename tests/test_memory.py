"""Memory budget of the dense training stages and of answering queries.

tracemalloc sees numpy's data buffers, so the peak a stage reaches above
its starting point, in units of one n x n float64 matrix (m x n for
queries), counts the dense buffers it holds at once (its result included).
"""

import tracemalloc

import numpy as np
import pytest

from sca import cli, spectral
from sca.dataset import (
    DataSet,
    Dissimilarity,
    load_dataset,
    pairwise_dissimilarity,
    read_dissimilarity_table,
)
from sca.markov import build_transition, default_epsilon, transition_from_points
from sca.regression import fit, predict
from sca.synthetic import GeneratorSpec, generate

from _util import full_pipeline

N = 2000
# size of the --diss table: runs
N_TABLE = 1000


@pytest.fixture(scope="module")
def data():
    points = generate(GeneratorSpec(kind="swiss-roll", n=N, noise_sd=0.05, seed=1)).points
    return DataSet(points=points, ids=tuple(map(str, range(N))))


@pytest.fixture(scope="module")
def dmat(data):
    return pairwise_dissimilarity(data, Dissimilarity())


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """A swiss-roll CSV of N_TABLE points and its squared-euclidean table."""
    base = tmp_path_factory.mktemp("table")
    data, table = base / "d.csv", base / "t.csv"
    assert cli.main(["gen", "--kind", "swiss-roll", "--n", str(N_TABLE), "--seed", "1",
                     "--noise-sd", "0.05", "--out", str(data)]) == 0
    points = load_dataset(data, response_column="response")
    np.savetxt(table, pairwise_dissimilarity(points, Dissimilarity()), delimiter=",")
    return base, data, table


def _peak_in_matrices(fn, *args, n=N, m=None):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - start) / ((n if m is None else m) * n * 8)


def test_default_epsilon_holds_half_a_matrix(dmat):
    # the n(n-1)/2 triangle, partitioned in place
    _, peak = _peak_in_matrices(default_epsilon, dmat)
    assert peak <= 0.6, peak


def test_build_transition_holds_one_matrix(dmat):
    # one buffer, exponentiated in place and kept as it is
    transition, peak = _peak_in_matrices(build_transition, dmat, default_epsilon(dmat))
    assert transition.n == N
    assert peak <= 1.1, peak


@pytest.mark.parametrize("diss_kind", ["sqeuclidean", "euclidean"])
def test_transition_from_points_builds_the_kernel_in_the_distances(data, diss_kind):
    # D computed into one buffer and exponentiated there, with the
    # default_epsilon triangle beside it
    transition, peak = _peak_in_matrices(transition_from_points, data.points, diss_kind)
    assert peak <= 1.6, peak
    held = build_transition(pairwise_dissimilarity(data, Dissimilarity(kind=diss_kind)),
                            diss_kind=diss_kind)
    np.testing.assert_array_equal(transition.kernel, held.kernel)
    np.testing.assert_array_equal(transition.kernel_row_sums, held.kernel_row_sums)
    assert transition.epsilon == held.epsilon and transition.diss_kind == diss_kind


def test_predict_answers_queries_in_blocks():
    # one block of kernel weights at a time, never the m x n matrix
    n, m = 1000, 20000
    rng = np.random.default_rng(5)
    train = DataSet(points=rng.normal(size=(n, 3)), ids=tuple(map(str, range(n))),
                    response=rng.normal(size=n))
    _, _, embedding, extension = full_pipeline(train, r=10)
    model = fit(train, embedding, extension)
    queries = rng.normal(size=(m, 3))
    preds, peak = _peak_in_matrices(predict, model, queries, n=n, m=m)
    assert preds.shape == (m,)
    assert peak <= 0.15, peak


def test_krylov_decompose_never_forms_the_conjugate(dmat, monkeypatch):
    # the Krylov path applies W with diagonal scalings; what it holds
    # beside W is the n x 3(r + 9) basis [X, MX, M^2X] and its image
    transition = build_transition(dmat, default_epsilon(dmat))

    def no_eigh(sym, wanted):
        raise AssertionError("full eigh fallback taken")
    monkeypatch.setattr(spectral, "_eigh_pairs", no_eigh)
    decomposition, peak = _peak_in_matrices(spectral.decompose, transition)
    assert decomposition.eigenvalues.size == spectral.DEFAULT_PAIRS
    assert peak <= 0.75, peak


def test_table_is_held_once(table_files):
    # the array np.loadtxt returns is validated and returned, not copied
    _, _, table = table_files
    dmat, peak = _peak_in_matrices(read_dissimilarity_table, table, N_TABLE, n=N_TABLE)
    assert peak <= 1.3, peak
    assert dmat.shape == (N_TABLE, N_TABLE) and dmat.flags.writeable


def test_table_embed_costs_what_computed_distances_cost(table_files):
    base, data, table = table_files
    embed = ["embed", "--input", str(data), "--response", "response", "--r", "10"]
    _, computed = _peak_in_matrices(cli.main, embed + ["--out", str(base / "c.csv")],
                                    n=N_TABLE)
    code, peak = _peak_in_matrices(
        cli.main, embed + ["--diss", f"table:{table}", "--out", str(base / "t.coords.csv")],
        n=N_TABLE)
    assert code == 0
    assert peak <= 2.5, peak
    assert peak <= computed + 0.05, (peak, computed)
