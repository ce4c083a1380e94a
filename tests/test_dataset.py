"""Dataset ingest, validation, and pairwise dissimilarities."""

import io
import math

import numpy as np
import pytest

from sca import dataset
from sca.dataset import (
    DataSet,
    Dissimilarity,
    frozen_array,
    load_dataset,
    pairwise_dissimilarity,
    read_dissimilarity_table,
    validate_dissimilarity,
)
from sca.errors import ValidationError

from _util import gaussian_dataset


def _stream(text):
    return io.StringIO(text)


# --- load_dataset ----------------------------------------------------------

def test_load_three_by_two_no_response():
    data = load_dataset(_stream("a,b\n1,2\n3,4\n5,6\n"))
    assert data.n == 3 and data.d == 2
    assert data.response is None
    np.testing.assert_array_equal(data.points, [[1, 2], [3, 4], [5, 6]])
    assert data.ids == ("0", "1", "2")


def test_load_response_from_named_column():
    data = load_dataset(_stream("a,z\n1,0.5\n2,0.7\n"), response_column="z")
    assert data.d == 1
    np.testing.assert_array_equal(data.response, [0.5, 0.7])


def test_load_nan_cell_is_malformed_row():
    with pytest.raises(ValidationError, match="malformed row 2"):
        load_dataset(_stream("a,b\n1,2\nNaN,4\n5,6\n"))


def test_load_text_cell_is_malformed_row():
    with pytest.raises(ValidationError, match="malformed row 1"):
        load_dataset(_stream("a,b\nfoo,2\n3,4\n"))


def test_load_inf_cell_is_malformed_row():
    with pytest.raises(ValidationError, match="malformed row 1"):
        load_dataset(_stream("a,b\ninf,2\n3,4\n"))


def test_load_duplicate_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset(_stream("id,a\nx,1\nx,2\n"), id_column="id")


def test_load_single_row_rejected():
    with pytest.raises(ValidationError, match="at least 2"):
        load_dataset(_stream("a,b\n1,2\n"))


def test_load_missing_response_column():
    with pytest.raises(ValidationError, match="response column 'z'"):
        load_dataset(_stream("a,b\n1,2\n3,4\n"), response_column="z")


def test_load_tab_delimiter_detected():
    data = load_dataset(_stream("a\tb\n1\t2\n3\t4\n"))
    assert data.d == 2
    np.testing.assert_array_equal(data.points, [[1, 2], [3, 4]])


def test_load_id_column_used():
    data = load_dataset(_stream("id,a\nfirst,1\nsecond,2\n"), id_column="id")
    assert data.ids == ("first", "second")
    assert data.d == 1


def test_load_ragged_row_rejected():
    with pytest.raises(ValidationError, match="malformed row 2"):
        load_dataset(_stream("a,b\n1,2\n3\n"))


# --- DataSet invariants ----------------------------------------------------

def test_dataset_rejects_nonfinite_points():
    with pytest.raises(ValidationError, match="non-finite"):
        DataSet(points=[[1.0], [np.nan]], ids=("0", "1"))


def test_dataset_rejects_bad_response_length():
    with pytest.raises(ValidationError, match="response"):
        DataSet(points=[[1.0], [2.0]], ids=("0", "1"), response=[1.0])


def test_dataset_points_are_read_only():
    data = gaussian_dataset(4, 2, 0)
    with pytest.raises(ValueError):
        data.points[0, 0] = 99.0


# --- frozen_array ------------------------------------------------------------

def test_frozen_array_copies_a_writable_array():
    source = np.arange(6.0).reshape(2, 3)
    frozen = frozen_array(source)
    source[0, 0] = 99.0
    assert frozen[0, 0] == 0.0 and not frozen.flags.writeable


def test_frozen_array_copies_a_read_only_view():
    source = np.arange(12.0).reshape(3, 4)
    view = source[:, :2]
    view.setflags(write=False)
    frozen = frozen_array(view)
    assert not np.shares_memory(frozen, source)
    source[0, 0] = 99.0
    assert frozen[0, 0] == 0.0 and frozen.flags.c_contiguous
    # a read-only contiguous view is copied too
    row = source[1]
    row.setflags(write=False)
    assert not np.shares_memory(frozen_array(row), source)


def test_frozen_array_keeps_a_frozen_owner_without_copying():
    owner = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    owner.setflags(write=False)
    assert frozen_array(owner) is owner
    # other dtypes and layouts still get their own copy
    assert frozen_array(owner, dtype=np.int64) is not owner
    fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    fortran.setflags(write=False)
    assert frozen_array(fortran).flags.c_contiguous


# --- pairwise dissimilarities ----------------------------------------------

def test_sqeuclidean_hand_values():
    data = DataSet(points=[[0.0], [1.0], [3.0]], ids=("0", "1", "2"))
    d2 = pairwise_dissimilarity(data, Dissimilarity())
    np.testing.assert_array_equal(d2, [[0, 1, 9], [1, 0, 4], [9, 4, 0]])


def test_zero_diagonal_any_data():
    data = gaussian_dataset(9, 4, 1)
    for kind in ("sqeuclidean", "euclidean"):
        d = pairwise_dissimilarity(data, Dissimilarity(kind=kind))
        assert (np.diag(d) == 0).all()


def test_euclidean_matches_double_loop_oracle():
    data = gaussian_dataset(5, 3, 2)
    d = pairwise_dissimilarity(data, Dissimilarity(kind="euclidean"))
    pts = data.points
    for i in range(5):
        for j in range(5):
            expected = math.sqrt(sum((pts[i, k] - pts[j, k]) ** 2 for k in range(3)))
            assert d[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["sqeuclidean", "euclidean"])
def test_symmetry_nonnegativity_properties(seed, kind):
    data = gaussian_dataset(15, 3, seed)
    d = pairwise_dissimilarity(data, Dissimilarity(kind=kind))
    assert np.array_equal(d, d.T)
    assert (np.diag(d) == 0).all()
    assert d.min() >= 0


def test_squared_euclidean_is_square_of_euclidean():
    data = gaussian_dataset(12, 4, 3)
    sq = pairwise_dissimilarity(data, Dissimilarity(kind="sqeuclidean"))
    eu = pairwise_dissimilarity(data, Dissimilarity(kind="euclidean"))
    np.testing.assert_allclose(eu ** 2, sq, rtol=1e-12)


def _table_file(tmp_path, rows):
    path = tmp_path / "t.csv"
    np.savetxt(path, np.asarray(rows, dtype=float), delimiter=",")
    return path


def test_user_table_roundtrip(tmp_path):
    table = np.array([[0.0, 2.0], [2.0, 0.0]])
    d = read_dissimilarity_table(_table_file(tmp_path, table), 2)
    np.testing.assert_array_equal(d, table)
    # the caller owns the buffer: the CLI builds the kernel in it
    assert d.flags.writeable and d.flags.owndata


def test_user_table_dimension_mismatch(tmp_path):
    with pytest.raises(ValidationError, match="does not match"):
        read_dissimilarity_table(_table_file(tmp_path, np.zeros((3, 3))), 2)


def test_user_table_asymmetric_rejected(tmp_path):
    with pytest.raises(ValidationError, match="^dissimilarity table must be symmetric$"):
        read_dissimilarity_table(_table_file(tmp_path, [[0.0, 1.0], [2.0, 0.0]]), 2)


def test_user_table_negative_rejected(tmp_path):
    with pytest.raises(ValidationError, match="negative"):
        read_dissimilarity_table(_table_file(tmp_path, [[0.0, -1.0], [-1.0, 0.0]]), 2)


def test_user_table_nonzero_diagonal_rejected(tmp_path):
    with pytest.raises(ValidationError, match="diagonal"):
        read_dissimilarity_table(_table_file(tmp_path, [[1.0, 2.0], [2.0, 1.0]]), 2)


@pytest.mark.filterwarnings("error")  # numpy's "no data" warning is not let through
@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n"])
def test_user_table_without_rows_rejected(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^dissimilarity table {path} has no rows$"):
        read_dissimilarity_table(path, 2)


def test_table_is_not_a_kind():
    assert dataset.DISS_KINDS == ("sqeuclidean", "euclidean")
    with pytest.raises(ValidationError, match="unknown dissimilarity kind 'table'"):
        Dissimilarity(kind="table")
    with pytest.raises(TypeError):
        Dissimilarity(kind="table", table=np.zeros((2, 2)))
    assert Dissimilarity().kind == "sqeuclidean"
    assert Dissimilarity(kind="euclidean").kind == "euclidean"


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown dissimilarity kind"):
        Dissimilarity(kind="cosine")


# --- tiled symmetry check ------------------------------------------------------

def _symmetric_table(n):
    d = pairwise_dissimilarity(gaussian_dataset(n, 2, n), Dissimilarity())
    return d.copy()


_TILE = dataset._SYMMETRY_TILE


@pytest.mark.parametrize("n, i, j", [
    (2 * _TILE + 88, 10, 20),                        # inside a diagonal tile
    (2 * _TILE + 88, 3, _TILE + 7),                  # off-diagonal tile, upper
    (2 * _TILE + 88, _TILE + 7, 3),                  # off-diagonal tile, lower
    (2 * _TILE + 88, _TILE - 1, _TILE),              # across a tile boundary
    (2 * _TILE + 88, 2 * _TILE + 80, 2 * _TILE + 87),  # partial last diagonal tile
    (2 * _TILE + 88, 5, 2 * _TILE + 87),             # partial last column of tiles
    (2 * _TILE + 88, 2 * _TILE + 87, _TILE + 1),     # partial last row of tiles
    (37, 36, 0),                                     # n smaller than one tile
    (37, 0, 36),
])
def test_tiled_symmetry_check_finds_one_asymmetric_entry(n, i, j):
    d = _symmetric_table(n)
    validate_dissimilarity(d)
    d[i, j] = np.nextafter(d[i, j], np.inf)
    with pytest.raises(ValidationError, match="dissimilarity matrix must be symmetric"):
        validate_dissimilarity(d)
    # the name read_dissimilarity_table passes
    with pytest.raises(ValidationError, match="^dissimilarity table must be symmetric$"):
        validate_dissimilarity(d, "dissimilarity table")
