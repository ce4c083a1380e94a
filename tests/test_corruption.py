"""Byte-level corruption of a model archive, a prototypes CSV, an input data
CSV or a `--diss table:` file never ends in a traceback: the CLI exits 0,
or 1 / 2 with an `error:` / `numerical failure:` line and no output file."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sca.cli import main  # noqa: E402
from sca.dataset import Dissimilarity, load_dataset, pairwise_dissimilarity  # noqa: E402

# (position, byte) overwrites, then an optional cut; positions wrap modulo the size
CORRUPTIONS = st.tuples(
    st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(0, 1 << 20)),
)
FUZZ = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("corruption")
    data, lib = base / "d.csv", base / "lib.csv"
    steps = [
        ["gen", "--kind", "swiss-roll", "--n", "30", "--seed", "3", "--noise-sd", "0.05",
         "--out", str(data)],
        ["regress", "--input", str(data), "--response", "response", "--folds", "3",
         "--r", "4", "--seed", "1", "--out-model", str(base / "reg.npz")],
        ["gen", "--kind", "degenerate-components", "--n", "24", "--seed", "5",
         "--out", str(lib)],
        ["prototype", "--input", str(lib), "--k", "3", "--seed", "2", "--r", "2",
         "--out-prefix", str(base / "proto")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    cells = (base / "proto.prototypes.csv").read_text().splitlines()[1].split(",")
    (base / "obs.csv").write_text("id," + ",".join(f"b{k}" for k in range(len(cells) - 3)) +
                                  "\nq0," + ",".join(cells[3:]) + "\n")
    points = load_dataset(data, response_column="response")
    np.savetxt(base / "table.csv", pairwise_dissimilarity(points, Dissimilarity()),
               delimiter=",")
    assert main(["embed", "--input", str(data), "--diss", f"table:{base / 'table.csv'}",
                 "--r", "3", "--out", str(base / "table.coords.csv")]) == 0
    return base


def _run_corrupted(good: Path, corruption, argv_for):
    edits, cut = corruption
    raw = bytearray(good.read_bytes())
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    if cut is not None:
        raw = raw[:cut % len(raw)]
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / "bad", Path(tmp) / "out"
        bad.write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv_for(bad) + ["--out", str(out)])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith(("error:", "numerical failure:")), err.getvalue()
            assert not out.exists()


@FUZZ
@given(corruption=CORRUPTIONS)
def test_corrupted_model_archive(files, corruption):
    _run_corrupted(files / "reg.npz", corruption, lambda bad: [
        "predict", "--model", str(bad), "--input", str(files / "d.csv")])


@FUZZ
@given(corruption=CORRUPTIONS)
def test_corrupted_prototypes_csv(files, corruption):
    _run_corrupted(files / "proto.prototypes.csv", corruption, lambda bad: [
        "fit-mixture", "--prototypes", str(bad), "--input", str(files / "obs.csv")])


@FUZZ
@given(corruption=CORRUPTIONS)
def test_corrupted_input_data_csv(files, corruption):
    _run_corrupted(files / "d.csv", corruption, lambda bad: [
        "embed", "--input", str(bad), "--response", "response", "--r", "3"])


@FUZZ
@given(corruption=CORRUPTIONS)
def test_corrupted_dissimilarity_table(files, corruption):
    _run_corrupted(files / "table.csv", corruption, lambda bad: [
        "embed", "--input", str(files / "d.csv"), "--diss", f"table:{bad}", "--r", "3"])
