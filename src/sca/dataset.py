"""Observed-data containers, tabular ingest, and pairwise dissimilarities."""

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .errors import ValidationError, check_array, real_array

DISS_KINDS = ("sqeuclidean", "euclidean")

# Side of the square tiles ``validate_dissimilarity`` checks for symmetry.
_SYMMETRY_TILE = 256


def frozen_array(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only C-contiguous array of ``dtype``.

    An ndarray that is already of ``dtype``, C-contiguous, read-only and
    the owner of its data is returned as it is, without a copy; anything
    writable, or a view, is copied, so later writes to the source do not
    reach the result.
    """
    if (type(values) is np.ndarray and values.dtype == dtype and values.flags.owndata
            and values.flags.c_contiguous and not values.flags.writeable):
        return values
    out = np.ascontiguousarray(np.array(values, dtype=dtype))
    out.setflags(write=False)
    return out


def frozen_field(obj, name: str, shape: tuple) -> np.ndarray:
    """Set field ``name`` of ``obj`` to frozen_array(check_array(value)), and return it."""
    value = frozen_array(check_array(getattr(obj, name), shape, name))
    object.__setattr__(obj, name, value)
    return value


@dataclass(frozen=True)
class DataSet:
    """n observed objects as d-dimensional vectors, with optional responses.

    Invariants enforced at construction: n >= 2, d >= 1, all entries
    finite, ids unique, response (if given) of length n and finite.
    """

    points: np.ndarray
    ids: tuple
    response: Optional[np.ndarray] = None

    def __post_init__(self):
        n, d = frozen_field(self, "points", (None, None)).shape
        if n < 2:
            raise ValidationError(f"need at least 2 observations, got {n}")
        if d < 1:
            raise ValidationError("need at least 1 feature column")
        try:
            ids = tuple(str(i) for i in self.ids)
        except TypeError:
            raise ValidationError(f"ids must be a sequence, got {self.ids!r}") from None
        if len(ids) != n:
            raise ValidationError(f"expected {n} ids, got {len(ids)}")
        if len(set(ids)) != n:
            raise ValidationError("duplicate row identifiers")
        object.__setattr__(self, "ids", ids)
        if self.response is not None:
            frozen_field(self, "response", (n,))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Dissimilarity:
    """Pairwise dissimilarity of points, by kind: one of ``DISS_KINDS``."""

    kind: str = "sqeuclidean"

    def __post_init__(self):
        _check_kind(self.kind)


def _check_kind(kind: str) -> None:
    if kind not in DISS_KINDS:
        raise ValidationError(
            f"unknown dissimilarity kind {kind!r}; expected one of {DISS_KINDS}"
        )


def validate_dissimilarity(values, what: str = "dissimilarity matrix") -> np.ndarray:
    """``values`` as a float64 matrix that is square, finite, non-negative,
    symmetric and zero on the diagonal; each fault names ``what``."""
    dmat = real_array(values, what)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValidationError(f"{what} must be square")
    # NaN carries through both reductions, -inf shows in the least entry
    # and +inf in the largest, with no n x n temporary; the initial 0.0
    # keeps an empty matrix valid
    least, largest = dmat.min(initial=0.0), dmat.max(initial=0.0)
    if not np.isfinite(least) or not np.isfinite(largest):
        raise ValidationError(f"{what} has non-finite entries")
    if least < 0:
        raise ValidationError(f"{what} has negative entries")
    if (np.diag(dmat) != 0).any():
        raise ValidationError(f"{what} diagonal must be zero")
    n = dmat.shape[0]
    # tile by tile against the mirrored tile: a whole transposed read
    # strides through memory
    for i in range(0, n, _SYMMETRY_TILE):
        for j in range(i, n, _SYMMETRY_TILE):
            if not np.array_equal(dmat[i:i + _SYMMETRY_TILE, j:j + _SYMMETRY_TILE],
                                  dmat[j:j + _SYMMETRY_TILE, i:i + _SYMMETRY_TILE].T):
                raise ValidationError(f"{what} must be symmetric")
    return dmat


def pairwise_dissimilarity(data: DataSet, diss: Dissimilarity) -> np.ndarray:
    """Symmetric nonnegative dissimilarity matrix with a zero diagonal.

    Squared-euclidean entry (i, j) is sum_k (x_ik - x_jk)^2 with a fixed
    per-entry summation order; the euclidean kind is its entrywise square
    root.
    """
    return _point_dissimilarity(data.points, diss.kind)


def _point_dissimilarity(points, kind: str = "sqeuclidean",
                         reference: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``kind`` dissimilarities from the rows of ``points`` to those of
    ``reference`` (of ``points`` when None), in a fresh buffer the caller
    owns: the one path from points to D, for training and for queries.
    Finite coordinates far apart overflow to inf, for the caller to report,
    and not as a floating-point warning."""
    _check_kind(kind)
    pts = check_array(points, (None, None), "points")
    with np.errstate(over="ignore"):
        if reference is None:
            dmat = kernels.pairwise_sq_dists(pts)
        else:
            dmat = kernels.cross_sq_dists(pts, reference)
        if kind == "euclidean":
            np.sqrt(dmat, out=dmat)
    return dmat


def read_dissimilarity_table(path, n: int) -> np.ndarray:
    """The n x n dissimilarity matrix in the headerless CSV file ``path``,
    validated, in the buffer it was read into, which the caller owns (the
    CLI builds the kernel in it)."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            dmat = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except ValueError as exc:
        raise ValidationError(f"malformed dissimilarity table {path}: {exc}") from exc
    if dmat.size == 0:
        raise ValidationError(f"dissimilarity table {path} has no rows")
    validate_dissimilarity(dmat, "dissimilarity table")
    if dmat.shape != (n, n):
        raise ValidationError(
            f"dissimilarity table {path} has shape {dmat.shape}, which does not match n={n}"
        )
    return dmat


@dataclass(frozen=True)
class Table:
    """Header names and row cell strings of a table that passed
    ``parse_table``'s structural checks; ``split`` converts it to numbers."""

    header: tuple
    rows: tuple

    def default_id(self, given: Optional[str] = None) -> Optional[str]:
        """``given``, else the conventional 'id' column when the header has one."""
        return given if given is not None else ("id" if "id" in self.header else None)

    def _index(self, name, role) -> int:
        if name not in self.header:
            raise ValidationError(f"{role} column {name!r} not found in header")
        return self.header.index(name)

    def split(self, id_column: Optional[str] = None, labels=(), role: str = "label"):
        """Features, ids and label columns of the table.

        Every column but the id column must hold finite numbers; a
        non-numeric or non-finite cell is rejected with its 1-based data
        row and its column.  The named ``labels`` come back as 1-D arrays
        in the order given, and the remaining columns are the features.
        ``id_column`` None means ``default_id()``; with no id, rows are numbered.
        """
        id_column = self.default_id(id_column)
        id_idx = None if id_column is None else self._index(id_column, "id")
        label_idx = [self._index(name, role) for name in labels]
        if id_idx in label_idx:
            raise ValidationError(f"column {id_column!r} cannot be both the id and a {role}")
        numeric = [k for k in range(len(self.header)) if k != id_idx]
        feature_idx = [k for k in numeric if k not in label_idx]
        if not feature_idx:
            raise ValidationError(f"no feature columns remain after id/{role}")
        cells = [row[k] for row in self.rows for k in numeric]
        try:
            flat = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            # a non-numeric cell: convert cell by cell, so that the first
            # bad cell in row-major order is named, numeric or not
            flat = np.fromiter(map(_number, cells), np.float64, len(cells))
        values = flat.reshape(len(self.rows), len(numeric))
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            k = numeric[j]
            raise ValidationError(
                f"malformed row {i + 1}: non-numeric cell {self.rows[i][k]!r} "
                f"in column {self.header[k]!r}"
            )
        if id_idx is None:
            ids = tuple(str(i) for i in range(len(self.rows)))
        else:
            ids = tuple(row[id_idx] for row in self.rows)
            if len(set(ids)) != len(ids):
                raise ValidationError("duplicate row identifiers in id column")
        features = np.ascontiguousarray(values[:, [numeric.index(k) for k in feature_idx]])
        return features, ids, [values[:, numeric.index(k)].copy() for k in label_idx]


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def parse_table(source) -> Table:
    """Read a delimited text table from a path or a text stream.

    The delimiter is a tab when the header line has one, else a comma.
    Empty lines are skipped and do not count as data rows.
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{source} is not UTF-8 text: {exc}") from exc
    else:
        text = source.read()
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValidationError("empty input: header row required")
    delimiter = "\t" if "\t" in lines[0] else ","
    try:
        rows = list(csv.reader(io.StringIO(text), delimiter=delimiter))
    except csv.Error as exc:
        raise ValidationError(f"malformed table: {exc}") from exc
    header = tuple(name.strip() for name in rows[0])
    if len(set(header)) != len(header):
        raise ValidationError("duplicate column names in header")
    rows = tuple(row for row in rows[1:] if row)
    for ridx, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(
                f"malformed row {ridx + 1}: expected {len(header)} cells, got {len(row)}"
            )
    return Table(header=header, rows=rows)


def read_table(source, response_column: Optional[str] = None,
               id_column: Optional[str] = None):
    """Parse a delimited numeric table into (points, ids, response).

    ``source`` is a path, a text stream, or a ``Table`` from
    ``parse_table``.  Feature columns are every column not named as id
    or response.  Row count is not constrained here; query tables may
    have any m >= 0.
    """
    table = source if isinstance(source, Table) else parse_table(source)
    labels = () if response_column is None else (response_column,)
    points, ids, found = table.split(id_column, labels, role="response")
    return points, ids, (found[0] if found else None)


def load_dataset(source, response_column: Optional[str] = None,
                 id_column: Optional[str] = None) -> DataSet:
    """Parse a delimited text table into a validated DataSet (n >= 2)."""
    points, ids, response = read_table(source, response_column, id_column)
    return DataSet(points=points, ids=ids, response=response)
