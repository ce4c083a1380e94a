"""CLI behavior: files, exit codes, determinism, sidecar round-trips."""

import csv
import io
import json
import os
import stat
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import sca
from sca import cli, synthetic
from sca.cli import main
from sca.dataset import (
    Dissimilarity, load_dataset, pairwise_dissimilarity, parse_table, read_table,
)
from sca.errors import NumericalError
from sca.markov import build_transition, default_epsilon
from sca.nystrom import build_extension, extend_embedding
from sca.prototypes import diffusion_kmeans, load_component_library
from sca.regression import fit, fitted_values, predict
from sca.spectral import decompose, embed

from _util import full_pipeline


def _gen(tmp_path, name="d.csv", kind="swiss-roll", n=30, seed=3, noise="0.05"):
    out = tmp_path / name
    code = main(["gen", "--kind", kind, "--n", str(n), "--seed", str(seed),
                 "--noise-sd", noise, "--out", str(out)])
    assert code == 0
    return out


def test_embed_happy_path(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "coords.csv"
    code = main(["embed", "--input", str(data), "--t", "1", "--r", "3",
                 "--response", "response", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,psi_1,psi_2,psi_3"
    assert len(lines) == 31
    sidecar = json.loads((tmp_path / "coords.csv.meta.json").read_text())
    assert sidecar["config"]["subcommand"] == "embed"
    assert isinstance(sidecar["config"]["epsilon"], float)  # resolved, not "auto"
    assert len(sidecar["info"]["eigenvalues"]) == 3


def test_unknown_flag_exits_1_and_writes_nothing(tmp_path, capsys):
    code = main(["embed", "--input", "x.csv", "--frobnicate", "1"])
    assert code == 1
    assert "usage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exits_1(capsys):
    assert main(["transmogrify"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = main(["embed", "--input", str(tmp_path / "absent.csv")])
    assert code == 1


def test_malformed_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,oops\n2,3\n")
    code = main(["embed", "--input", str(bad)])
    assert code == 1
    assert "malformed row 1" in capsys.readouterr().err


def test_output_path_that_is_a_directory_exits_1_and_leaves_no_temporary(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.mkdir()
    assert main(["gen", "--kind", "swiss-roll", "--n", "10", "--seed", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


_EMBED = ["embed", "--input", "d.csv", "--response", "response", "--r", "3"]
_REGRESS = ["regress", "--input", "d.csv", "--response", "response", "--seed", "1"]


@pytest.mark.parametrize("argv, blocked", [
    (_EMBED + ["--out", "c.csv", "--save-model", "m.npz"], "m.npz"),
    (_REGRESS + ["--out-predictions", "f.csv"], "f.csv"),
    (["prototype", "--input", "lib.csv", "--k", "3", "--seed", "1", "--out-prefix", "lib"],
     "lib.centroids.csv"),
], ids=["embed", "regress", "prototype"])
def test_failing_multi_file_run_writes_no_file(tmp_path, capsys, monkeypatch, argv, blocked):
    # one output is an existing directory, so none of the run's files may appear
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    assert main(["gen", "--kind", "degenerate-components", "--n", "20", "--seed", "7",
                 "--out", "lib.csv"]) == 0
    (tmp_path / blocked).mkdir()
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: output {blocked} is a directory\n"
    assert sorted(tmp_path.iterdir()) == before
    assert list((tmp_path / blocked).iterdir()) == []


def test_write_error_names_the_output_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the model's folder is a file: the paths pass the checks, and the model's
    # temporary file cannot be made after the coordinates' one was written
    # into folders the run created
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(_EMBED + ["--out", "new2/sub/c.csv", "--save-model", "d.csv/m.npz"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(": 'd.csv/m.npz'\n")
    assert ".tmp" not in err
    assert not (tmp_path / "new2").exists()
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("umask, mode", [(0o022, "-rw-r--r--"), (0o077, "-rw-------")],
                         ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_the_umask_allows(tmp_path, monkeypatch, umask, mode):
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    old = os.umask(umask)
    try:
        assert main(_EMBED + ["--out", "c.csv", "--save-model", "m.npz"]) == 0
    finally:
        os.umask(old)
    for name in ("c.csv", "c.csv.meta.json", "m.npz"):
        assert stat.filemode((tmp_path / name).stat().st_mode) == mode


def test_failing_run_keeps_the_earlier_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    assert main(_EMBED + ["--out", "c.csv"]) == 0
    earlier = {path: path.read_bytes() for path in tmp_path.iterdir()}
    (tmp_path / "m.npz").mkdir()
    # a different r, so an overwritten c.csv could not read the same
    assert main(["embed", "--input", "d.csv", "--response", "response", "--r", "4",
                 "--out", "c.csv", "--save-model", "m.npz"]) == 1
    assert "error: output m.npz is a directory" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == earlier


@pytest.mark.parametrize("argv, first, second", [
    (_REGRESS + ["--out-model", "x", "--out-predictions", "x"], "x", "x"),
    (_EMBED + ["--out", "./z.npz", "--save-model", "z.npz"], "./z.npz", "z.npz"),
    # the predictions take the model's sidecar path
    (_REGRESS + ["--out-model", "q.csv", "--out-predictions", "q.csv.meta.json"],
     "q.csv.meta.json", "q.csv.meta.json"),
], ids=["regress-same-path", "embed-same-file", "regress-sidecar"])
def test_two_outputs_in_one_file_exit_1(tmp_path, capsys, monkeypatch, argv, first, second):
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: outputs {first} and {second} are the same file\n"
    assert sorted(tmp_path.iterdir()) == before


def test_response_that_is_the_id_column_exits_1(tmp_path, capsys):
    data = _gen(tmp_path)
    code = main(["regress", "--input", str(data), "--response", "id", "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: column 'id' cannot be both the id and a response\n")


def test_table_without_feature_columns_exits_1(tmp_path, capsys):
    data = tmp_path / "labels.csv"
    data.write_text("id,response\na,1\nb,2\nc,3\n")
    code = main(["regress", "--input", str(data), "--response", "response", "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == "error: no feature columns remain after id/response\n"


def test_cell_beyond_the_csv_field_limit_exits_1(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("x0,x1\n1,2\n3," + "4" * (csv.field_size_limit() + 1) + "\n")
    assert main(["embed", "--input", str(data)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed table: field larger than")


def test_kernel_underflow_exits_2_naming_row(tmp_path, capsys):
    data = tmp_path / "far.csv"
    data.write_text("a\n0\n1\n1000000\n")
    code = main(["embed", "--input", str(data), "--epsilon", "1e-4", "--r", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "row 0" in err


def test_gen_and_embed_rerun_byte_identical(tmp_path):
    first = _gen(tmp_path, "a.csv")
    second = _gen(tmp_path / "again", "a.csv")
    assert first.read_bytes() == (tmp_path / "again" / "a.csv").read_bytes()

    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    for out in (out1, out2):
        assert main(["embed", "--input", str(first), "--r", "4",
                     "--response", "response", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _config_argv(config: dict):
    """Rebuild the argv that reproduces a recorded config's run."""
    config = dict(config)
    argv = [config.pop("subcommand")]
    for key, value in config.items():
        if value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


def _rerun_recorded_config(argv, paths):
    """Run argv, then the argv rebuilt from the config recorded in the last
    of ``paths`` (a sidecar, or a JSON output that embeds its config); every
    path must come back byte-identical.  Returns that config."""
    assert main(argv) == 0
    original = [path.read_bytes() for path in paths]
    config = json.loads(paths[-1].read_text())["config"]
    for path in paths:
        path.unlink()
    assert main(_config_argv(config)) == 0
    assert [path.read_bytes() for path in paths] == original
    return config


def test_sidecar_round_trip_reproduces_output(tmp_path):
    def files(*names):
        return [tmp_path / name for name in names]

    data, lib, obs = files("d.csv", "lib.csv", "obs.csv")
    _rerun_recorded_config(
        ["gen", "--kind", "swiss-roll", "--n", "30", "--seed", "3", "--noise-sd", "0.05",
         "--out", str(data)], files("d.csv", "d.csv.meta.json"))
    _rerun_recorded_config(
        ["embed", "--input", str(data), "--r", "3", "--response", "response",
         "--out", str(tmp_path / "coords.csv"), "--save-model", str(tmp_path / "e.npz")],
        files("coords.csv", "coords.csv.meta.json", "e.npz", "e.npz.meta.json"))
    _rerun_recorded_config(
        ["regress", "--input", str(data), "--r", "8", "--response", "response",
         "--folds", "5", "--seed", "2", "--out-model", str(tmp_path / "m.npz"),
         "--out-predictions", str(tmp_path / "fitted.csv")],
        files("m.npz", "fitted.csv", "m.npz.meta.json", "fitted.csv.meta.json"))
    _rerun_recorded_config(
        ["extend", "--model", str(tmp_path / "e.npz"), "--input", str(data),
         "--response", "response", "--out", str(tmp_path / "x.csv")],
        files("x.csv", "x.csv.meta.json"))
    _rerun_recorded_config(
        ["predict", "--model", str(tmp_path / "m.npz"), "--input", str(data),
         "--out", str(tmp_path / "p.csv")], files("p.csv", "p.csv.meta.json"))
    _rerun_recorded_config(
        ["gen", "--kind", "degenerate-components", "--n", "24", "--seed", "5",
         "--out", str(lib)], files("lib.csv", "lib.csv.meta.json"))
    config = _rerun_recorded_config(
        ["prototype", "--input", str(lib), "--k", "4", "--seed", "2", "--epsilon", "5",
         "--out-prefix", str(tmp_path / "proto")],
        files("proto.prototypes.csv", "proto.assignments.csv", "proto.centroids.csv",
              "proto.meta.json"))
    assert config["epsilon"] == 5.0 and "epsilon_value" not in config
    assert "--epsilon" in _config_argv(config)
    # observations: the prototype spectra without their two label columns
    rows = [row.split(",") for row in (tmp_path / "proto.prototypes.csv").read_text().splitlines()]
    obs.write_text("".join(",".join([row[0], *row[3:]]) + "\n" for row in rows))
    _rerun_recorded_config(
        ["fit-mixture", "--prototypes", str(tmp_path / "proto.prototypes.csv"),
         "--input", str(obs), "--out", str(tmp_path / "fit.json")], files("fit.json"))
    _rerun_recorded_config(
        ["bench-quantization", "--input", str(lib), "--k", "4", "--trials", "5",
         "--seed", "1", "--out", str(tmp_path / "bench.json")], files("bench.json"))


def _csv_block(path, keys=1):
    """The key cells and the float block of a CSV the CLI wrote."""
    rows = parse_table(path).rows
    return ([row[:keys] for row in rows],
            np.array([[float(cell) for cell in row[keys:]] for row in rows]))


def test_csv_floats_read_back_bitwise(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    data, query, lib = tmp_path / "d.csv", tmp_path / "q.csv", tmp_path / "lib.csv"
    run("gen", "--kind", "swiss-roll", "--n", 40, "--noise-sd", "0.05", "--seed", 3,
        "--out", data)
    run("gen", "--kind", "swiss-roll", "--n", 12, "--noise-sd", "0.05", "--seed", 4,
        "--out", query)
    run("gen", "--kind", "degenerate-components", "--n", 24, "--seed", 5, "--out", lib)
    run("embed", "--input", data, "--response", "response", "--t", 2,
        "--out", tmp_path / "e.csv", "--save-model", tmp_path / "e.npz")
    run("extend", "--model", tmp_path / "e.npz", "--input", query, "--response", "response",
        "--t", 3, "--out", tmp_path / "x.csv")
    run("regress", "--input", data, "--response", "response", "--folds", 4, "--seed", 2,
        "--out-model", tmp_path / "m.npz", "--out-predictions", tmp_path / "fit.csv")
    run("prototype", "--input", lib, "--k", 4, "--seed", 2, "--out-prefix", tmp_path / "p")

    roll = synthetic.generate(synthetic.GeneratorSpec(
        kind="swiss-roll", n=40, noise_sd=0.05, seed=3))
    np.testing.assert_array_equal(
        _csv_block(data)[1], np.column_stack([roll.points, roll.response]))
    library = synthetic.generate(synthetic.GeneratorSpec(
        kind="degenerate-components", n=24, seed=5))
    np.testing.assert_array_equal(_csv_block(lib)[1], np.column_stack(
        [library.ages, library.metallicities, library.spectra]))

    train = load_dataset(data, response_column="response", id_column="id")
    _, decomposition, _, extension = full_pipeline(train)
    r = decomposition.eigenvalues.size
    np.testing.assert_array_equal(_csv_block(tmp_path / "e.csv")[1],
                                  embed(decomposition, 2, r).coords)
    points, _, _ = read_table(query, response_column="response", id_column="id")
    np.testing.assert_array_equal(_csv_block(tmp_path / "x.csv")[1],
                                  extend_embedding(extension, points, 3, r))
    model = fit(train, embed(decomposition, 1, r), extension, folds=4, seed=2)
    np.testing.assert_array_equal(_csv_block(tmp_path / "fit.csv")[1][:, 0],
                                  fitted_values(model))

    proto = diffusion_kmeans(load_component_library(lib), 4, seed=2)
    np.testing.assert_array_equal(_csv_block(tmp_path / "p.prototypes.csv")[1], np.column_stack(
        [proto.log_ages, proto.log_metallicities, proto.prototypes]))
    keys, coords = _csv_block(tmp_path / "p.assignments.csv", keys=2)
    assert [int(label) for _, label in keys] == proto.member_assignments.tolist()
    np.testing.assert_array_equal(coords, proto.member_coords_diffusion)
    np.testing.assert_array_equal(_csv_block(tmp_path / "p.centroids.csv")[1],
                                  proto.centroids_diffusion)
    sidecar = json.loads((tmp_path / "p.meta.json").read_text())
    assert sidecar["config"]["epsilon"] == proto.epsilon  # the number, not "auto"


def test_csv_bytes_are_the_csv_writer_output():
    # ids that csv quotes and ids it leaves bare, and floats with unusual reprs
    ids = ("plain", "a,b", 'say "hi"', "two\nlines", "", " leading space", "car\rriage",
           "naïve ✓", "tab\there", "'single'", "trailing,")
    floats = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1e-320, 5e-324, 0.1, -2.5e-310]
    values = np.resize(np.array(floats), (len(ids), 3)) * np.arange(1, 4)
    for keys in ([ids], [ids, list(range(len(ids)))]):
        header = ["id", "label"][:len(keys)] + ["x", "y", "z"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([*key, *row] for key, row in zip(zip(*keys), values.tolist()))
        assert cli._csv_bytes(header, keys, values) == buf.getvalue().encode("utf-8")


def test_ids_with_commas_and_quotes_survive_embed(tmp_path):
    ids = [f'star {i}, "field" {i}' for i in range(8)]
    points = np.random.default_rng(1).normal(size=(8, 2))
    data = tmp_path / "d.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "x0", "x1"])
        writer.writerows([name, *row] for name, row in zip(ids, points.tolist()))
    out = tmp_path / "coords.csv"
    assert main(["embed", "--input", str(data), "--r", "2", "--out", str(out)]) == 0
    assert [key for key, in _csv_block(out)[0]] == ids


@pytest.mark.parametrize("argv,message", [
    (["regress", "--input", "{d}", "--response", "response", "--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
    (["prototype", "--input", "{lib}", "--k", "3", "--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
    (["bench-quantization", "--input", "{lib}", "--k", "3", "--trials", "1", "--seed", "-2"],
     "seed must be an integer >= 0, got -2"),
    (["embed", "--input", "{d}", "--response", "response", "--epsilon", "inf"],
     "epsilon must be a positive finite real"),
    (["embed", "--input", "{d}", "--response", "response", "--epsilon", "foo"],
     "epsilon must be a positive real or 'auto', got 'foo'"),
], ids=["regress-seed", "prototype-seed", "bench-quantization-seed", "embed-epsilon-inf",
        "embed-epsilon-text"])
def test_negative_seed_or_infinite_epsilon_exits_1(tmp_path, capsys, argv, message):
    paths = {"d": _gen(tmp_path), "lib": tmp_path / "lib.csv"}
    assert main(["gen", "--kind", "degenerate-components", "--n", "20", "--seed", "7",
                 "--out", str(paths["lib"])]) == 0
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["embed", "--epsilon", "0"],
    ["embed", "--epsilon", "1e400"],
    ["regress", "--response", "response", "--seed", "1", "--epsilon", "nan"],
    ["prototype", "--k", "2", "--seed", "1", "--epsilon", "-1"],
], ids=["embed-zero", "embed-overflow", "regress-nan", "prototype-negative"])
def test_bad_epsilon_exits_1_before_the_input_is_read(tmp_path, capsys, argv):
    # the input does not exist: reading it first would report that instead
    missing = str(tmp_path / "missing.csv")
    assert main(argv[:1] + ["--input", missing] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: epsilon must be a positive finite real, got {float(argv[-1])}")
    assert list(tmp_path.iterdir()) == []


def test_removed_flags_are_unknown(tmp_path, capsys):
    data = _gen(tmp_path)
    regress = ["regress", "--input", str(data), "--response", "response", "--seed", "1"]
    # argument parsing fails before any input is read, so the paths need not exist
    for argv in (regress + ["--t", "3"], regress + ["--kernel-cutoff", "30"],
                 ["embed", "--input", str(data), "--kernel-cutoff", "30"],
                 ["prototype", "--input", "lib.csv", "--k", "2", "--seed", "1",
                  "--epsilon-value", "5"],
                 ["fit-mixture", "--prototypes", "p.csv", "--input", "o.csv",
                  "--noise-sd", "1"],
                 ["gen", "--kind", "swiss-roll", "--n", "10", "--seed", "1",
                  "--out", "g.csv", "--height", "4"],
                 ["gen", "--kind", "line-chain", "--n", "10", "--seed", "1",
                  "--out", "g.csv", "--length", "2"]):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kind, flag", [("swiss-roll", "--noise-sd"),
                                        ("degenerate-components", "--noise-sd"),
                                        ("degenerate-components", "--separation")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_non_finite_shape_parameter_exits_1(tmp_path, capsys, kind, flag, value):
    out = tmp_path / "g.csv"
    assert main(["gen", "--kind", kind, "--n", "10", "--seed", "1", "--out", str(out),
                 flag, value]) == 1
    err = capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    assert err.startswith(f"error: {field} must be finite and nonnegative, got {value}")
    assert not out.exists()


def test_gen_n_past_a_32_bit_index_exits_1(tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["gen", "--kind", "swiss-roll", "--n", "4294967297", "--seed", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: n must lie in [2, 4294967296], got 4294967297")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 21.8 TiB"), "error: Unable to allocate 21.8 TiB\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["message", "bare"])
def test_allocation_failure_exits_1_without_traceback(tmp_path, capsys, monkeypatch,
                                                      exc, line):
    def no_memory(spec):
        raise exc
    monkeypatch.setattr(synthetic, "generate", no_memory)
    out = tmp_path / "g.csv"
    assert main(["gen", "--kind", "swiss-roll", "--n", "10", "--seed", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("diss", ["sqeuclidean", "euclidean"])
def test_embed_overflowing_distances_exit_1(tmp_path, capsys, diss):
    # finite coordinates, so the table loads; their distances overflow
    data = tmp_path / "far.csv"
    data.write_text("x0,x1\n1e200,0\n-1e200,1\n0,2\n5,3\n")
    out = tmp_path / "e.csv"
    assert main(["embed", "--input", str(data), "--diss", diss, "--r", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dissimilarity matrix has non-finite entries")
    assert not out.exists()


def test_disconnected_graph_exits_2(tmp_path, capsys):
    points = np.random.default_rng(0).normal(size=(80, 2))
    points[40:, 0] += 10.0
    data = tmp_path / "blobs.csv"
    data.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist()))
    assert main(["embed", "--input", str(data), "--epsilon", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: graph is numerically disconnected")
    assert "larger epsilon" in err and "Traceback" not in err


def test_prototype_with_more_clusters_than_distinct_components_exits_2(tmp_path, capsys):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "component-families", "--n", "6", "--seed", "1",
                 "--n-families", "2", "--bins", "10", "--out", str(lib)]) == 0
    header, *rows = lib.read_text().splitlines()
    copies = [f"{i + len(rows)}{row[row.index(','):]}" for i, row in enumerate(rows)]
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("\n".join([header, *rows, *copies]) + "\n")
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    assert main(["prototype", "--input", str(doubled), "--k", "12", "--r", "5", "--seed", "0",
                 "--out-prefix", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: k-means left 1 empty clusters; "
        "k exceeds the number of distinguishable components\n")
    assert sorted(tmp_path.iterdir()) == before


def test_extend_reproduces_training_coordinates(tmp_path):
    data = _gen(tmp_path)
    coords = tmp_path / "coords.csv"
    model = tmp_path / "model.npz"
    assert main(["embed", "--input", str(data), "--r", "3", "--response", "response",
                 "--out", str(coords), "--save-model", str(model)]) == 0
    extended = tmp_path / "ext.csv"
    assert main(["extend", "--model", str(model), "--input", str(data),
                 "--response", "response", "--out", str(extended)]) == 0
    ref = [line.split(",") for line in coords.read_text().splitlines()[1:]]
    got = [line.split(",") for line in extended.read_text().splitlines()[1:]]
    for row_ref, row_got in zip(ref, got):
        assert row_ref[0] == row_got[0]
        for a, b in zip(row_ref[1:], row_got[1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-9)


def test_regress_then_predict_pipeline(tmp_path):
    data = _gen(tmp_path, n=40)
    model = tmp_path / "model.npz"
    fitted = tmp_path / "fitted.csv"
    assert main(["regress", "--input", str(data), "--response", "response",
                 "--folds", "5", "--r", "8", "--seed", "1",
                 "--out-model", str(model), "--out-predictions", str(fitted)]) == 0
    with np.load(model) as archive:
        assert archive["coefficients"].shape[0] >= 1
        assert archive["cv_risk_curve"].shape == (8,)
    sidecar = json.loads((tmp_path / "model.npz.meta.json").read_text())
    assert len(sidecar["info"]["risk_curve"]) == 8

    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model), "--input", str(data),
                 "--out", str(preds)]) == 0
    fitted_rows = fitted.read_text().splitlines()[1:]
    pred_rows = preds.read_text().splitlines()[1:]
    for fr, pr in zip(fitted_rows, pred_rows):
        assert float(fr.split(",")[1]) == pytest.approx(float(pr.split(",")[1]),
                                                        abs=1e-9)


def test_predict_empty_query_file(tmp_path):
    data = _gen(tmp_path, n=20)
    model = tmp_path / "model.npz"
    assert main(["regress", "--input", str(data), "--response", "response",
                 "--folds", "4", "--r", "5", "--seed", "2",
                 "--out-model", str(model)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("id,x0,x1,x2\n")
    out = tmp_path / "none.csv"
    assert main(["predict", "--model", str(model), "--input", str(empty),
                 "--out", str(out)]) == 0
    assert out.read_text() == "id,prediction\n"


def test_prototype_and_fit_mixture_outputs(tmp_path):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "degenerate-components", "--n", "24",
                 "--seed", "5", "--out", str(lib)]) == 0
    assert main(["prototype", "--input", str(lib), "--k", "4", "--seed", "2",
                 "--r", "3", "--out-prefix", str(tmp_path / "proto")]) == 0
    protos = tmp_path / "proto.prototypes.csv"
    assigns = tmp_path / "proto.assignments.csv"
    cents = tmp_path / "proto.centroids.csv"
    assert protos.exists() and assigns.exists() and cents.exists()
    assert assigns.read_text().splitlines()[0] == "id,cluster,c_1,c_2,c_3"
    assert cents.read_text().splitlines()[0] == "cluster,c_1,c_2,c_3"
    sidecar = json.loads((tmp_path / "proto.meta.json").read_text())
    wcss = sidecar["info"]["wcss_history"]
    assert all(a >= b - 1e-12 for a, b in zip(wcss, wcss[1:]))

    # mix the first two prototypes and fit the mixture back
    rows = protos.read_text().splitlines()
    cells = [r.split(",") for r in rows[1:3]]
    mixed = [0.5 * float(a) + 0.5 * float(b) for a, b in zip(cells[0][3:], cells[1][3:])]
    obs = tmp_path / "obs.csv"
    obs.write_text("id," + ",".join(f"b{k}" for k in range(len(mixed))) + "\n" +
                   "q0," + ",".join(repr(v) for v in mixed) + "\n")
    out = tmp_path / "fit.json"
    assert main(["fit-mixture", "--prototypes", str(protos), "--input", str(obs),
                 "--out", str(out)]) == 0
    fit = json.loads(out.read_text())["fits"][0]
    assert fit["residual"] <= 1e-9
    assert sum(fit["gamma"]) == pytest.approx(1.0, abs=1e-9)


def _two_prototype_rows(tmp_path, second_id, scale):
    """A prototypes file and an observation file of its first two vectors,
    the second scaled by ``scale`` and given the id ``second_id``."""
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "degenerate-components", "--n", "24",
                 "--seed", "5", "--out", str(lib)]) == 0
    assert main(["prototype", "--input", str(lib), "--k", "4", "--seed", "2",
                 "--out-prefix", str(tmp_path / "proto")]) == 0
    rows = [r.split(",")[3:] for r in
            (tmp_path / "proto.prototypes.csv").read_text().splitlines()[1:3]]
    obs = tmp_path / "obs.csv"
    obs.write_text("id," + ",".join(f"b{k}" for k in range(len(rows[0]))) + "\n" +
                   "q0," + ",".join(rows[0]) + "\n" + second_id + "," +
                   ",".join(repr(scale * float(v)) for v in rows[1]) + "\n")
    return tmp_path / "proto.prototypes.csv", obs


@pytest.mark.filterwarnings("error")  # the overflow is reported as an error, not a warning
def test_fit_mixture_names_the_row_it_refuses(tmp_path, capsys):
    protos, obs = _two_prototype_rows(tmp_path, "huge", 1e200)
    out = tmp_path / "fit.json"
    capsys.readouterr()
    assert main(["fit-mixture", "--prototypes", str(protos), "--input", str(obs),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: input {obs} row 2 (id 'huge'): observation is too large: "
        "its squared residual can overflow\n")
    assert not out.exists()


def test_fit_mixture_numerical_failure_names_the_row_and_exits_2(tmp_path, capsys,
                                                                  monkeypatch):
    protos, obs = _two_prototype_rows(tmp_path, "q1", 1.0)
    capsys.readouterr()

    def failing_fit(proto, y):
        raise NumericalError("simplex solver reached KKT residual 1.00e-03, above 1e-08")
    monkeypatch.setattr(cli, "fit_mixture", failing_fit)
    assert main(["fit-mixture", "--prototypes", str(protos), "--input", str(obs),
                 "--out", str(tmp_path / "fit.json")]) == 2
    assert capsys.readouterr().err == (
        f"numerical failure: input {obs} row 1 (id 'q0'): simplex solver reached "
        "KKT residual 1.00e-03, above 1e-08\n")
    assert not (tmp_path / "fit.json").exists()


def test_bench_quantization_report(tmp_path):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "degenerate-components", "--n", "20",
                 "--seed", "7", "--out", str(lib)]) == 0
    out = tmp_path / "bench.json"
    assert main(["bench-quantization", "--input", str(lib), "--k", "3",
                 "--trials", "2", "--noise", "0.01", "--seed", "9",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert set(report["methods"]) == {"diffusion", "grid"}
    assert len(report["methods"]["grid"]["trials"]) == 2
    assert report["kmeans_wcss"]


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_bench_quantization_non_finite_noise_exits_1(tmp_path, capsys, monkeypatch, noise):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "degenerate-components", "--n", "20",
                 "--seed", "7", "--out", str(lib)]) == 0
    capsys.readouterr()

    def no_kmeans(*args, **kwargs):
        raise AssertionError("diffusion K-means ran before noise_sd was checked")
    monkeypatch.setattr(sca.prototypes, "diffusion_kmeans", no_kmeans)
    assert main(["bench-quantization", "--input", str(lib), "--k", "3", "--trials", "1",
                 "--noise", noise, "--seed", "1", "--out", str(tmp_path / "b.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"noise_sd must be finite and nonnegative, got {noise}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("subcommand", ["prototype", "bench-quantization"])
def test_library_ref_index_out_of_range_exits_1(tmp_path, capsys, subcommand):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "degenerate-components", "--n", "20", "--bins", "40",
                 "--seed", "7", "--out", str(lib)]) == 0
    capsys.readouterr()
    argv = [subcommand, "--input", str(lib), "--k", "3", "--seed", "1", "--ref-index", "99"]
    if subcommand == "bench-quantization":
        argv += ["--trials", "1", "--noise", "0.01", "--out", str(tmp_path / "b.json")]
    else:
        argv += ["--out-prefix", str(tmp_path / "proto")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "ref_index must lie in [0, 39], got 99" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lib.csv", "lib.csv.meta.json"]


def test_embed_r_beyond_default_pair_count(tmp_path, capsys):
    data = _gen(tmp_path, n=120)
    out = tmp_path / "coords.csv"
    assert main(["embed", "--input", str(data), "--response", "response", "--r", "80",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].split(",")[-1] == "psi_80"
    capsys.readouterr()
    assert main(["embed", "--input", str(data), "--response", "response", "--r", "120",
                 "--out", str(out)]) == 1
    assert "eigenpairs r must lie in [1, 119]" in capsys.readouterr().err


_RUN_WITHOUT_SCIPY = """
import sys
from pathlib import Path
from sca.cli import main
work = Path(sys.argv[1])
data = str(work / "d.csv")
assert main(["gen", "--kind", "swiss-roll", "--n", "400", "--noise-sd", "0.1",
             "--seed", "1", "--out", data]) == 0
assert main(["regress", "--input", data, "--response", "response", "--seed", "1",
             "--out-model", str(work / "m.npz")]) == 0
assert main(["embed", "--input", data, "--response", "response",
             "--out", str(work / "c.csv")]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_regress_and_embed_never_import_scipy(tmp_path):
    # n = 400 takes the block Krylov eigensolver, which is numpy only
    src = str(Path(sca.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_training_agrees_across_blas_thread_counts(tmp_path):
    """Byte-identical reruns hold at one BLAS thread count; across counts
    the Krylov path (n = 1000, r = 50) must choose the same p and agree to
    rtol 1e-7.  A coordinate is compared relative to its column's largest
    magnitude, as entries near zero carry the column's rounding."""
    data = str(_gen(tmp_path, "kr.csv", n=1000, seed=1, noise="0.3"))
    src = str(Path(sca.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = []
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        for argv in (["regress", "--r", "50", "--seed", "1", "--out-model", "m.npz",
                      "--out-predictions", "f.csv"], ["embed", "--r", "50", "--out", "c.csv"]):
            subprocess.run([sys.executable, "-m", "sca.cli", *argv, "--input", data,
                            "--response", "response"], cwd=work, check=True,
                           env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True)
        runs.append(work)
    info = [{name: json.loads((work / f"{name}.meta.json").read_text())["info"]
             for name in ("m.npz", "c.csv")} for work in runs]
    assert info[0]["m.npz"]["p"] == info[1]["m.npz"]["p"]
    np.testing.assert_allclose(*(np.array(i["m.npz"]["risk_curve"]) for i in info), rtol=1e-7)
    np.testing.assert_allclose(*(i["c.csv"]["eigenvalues"] for i in info), rtol=1e-7)
    fitted = [_csv_block(work / "f.csv")[1] for work in runs]
    np.testing.assert_allclose(*fitted, rtol=1e-7)
    one, two = (_csv_block(work / "c.csv")[1] for work in runs)
    assert (np.abs(one - two) <= 1e-7 * np.abs(one).max(axis=0)).all()


def test_embed_with_user_dissimilarity_table(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a\n0\n1\n2\n")
    table = tmp_path / "t.csv"
    table.write_text("0.0,1.0,4.0\n1.0,0.0,1.0\n4.0,1.0,0.0\n")
    out = tmp_path / "coords.csv"
    code = main(["embed", "--input", str(data), "--diss", f"table:{table}",
                 "--r", "2", "--out", str(out)])
    assert code == 0
    sidecar = json.loads((tmp_path / "coords.csv.meta.json").read_text())
    assert sidecar["config"]["diss"] == f"table:{table}"
    assert sidecar["config"]["epsilon"] == 1.0  # median of {1, 4, 1}


def test_embed_rejects_asymmetric_table(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a\n0\n1\n")
    table = tmp_path / "t.csv"
    table.write_text("0.0,1.0\n2.0,0.0\n")
    assert main(["embed", "--input", str(data), "--diss", f"table:{table}"]) == 1
    assert "symmetric" in capsys.readouterr().err


def test_embed_malformed_table_exits_1(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a\n0\n1\n")
    table = tmp_path / "t.csv"
    table.write_text("0.0,1.0\nabc,0.0\n")
    out = tmp_path / "coords.csv"
    assert main(["embed", "--input", str(data), "--diss", f"table:{table}",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed dissimilarity table")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # numpy's "no data" warning is not let through
def test_embed_empty_table_exits_1_with_one_line(tmp_path, capsys):
    data = _gen(tmp_path)
    table = tmp_path / "empty.csv"
    table.write_text("")
    out = tmp_path / "coords.csv"
    capsys.readouterr()
    assert main(["embed", "--input", str(data), "--response", "response",
                 "--diss", f"table:{table}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dissimilarity table {table} has no rows\n"
    assert not out.exists()


def test_byte_order_marked_inputs_read_as_the_plain_files(tmp_path):
    # spreadsheet tools save "CSV UTF-8" with a leading EF BB BF
    data = _gen(tmp_path)
    x = np.loadtxt(data, delimiter=",", skiprows=1, usecols=(1, 2, 3))
    table = tmp_path / "t.csv"
    np.savetxt(table, ((x[:, None] - x[None]) ** 2).sum(axis=2), delimiter=",")

    def embedded(run, mark):
        run.mkdir()
        for src in (data, table):
            (run / src.name).write_bytes(mark + src.read_bytes())
        coords = []
        for k, diss in enumerate(["sqeuclidean", f"table:{run / table.name}"]):
            out = run / f"c{k}.csv"
            assert main(["embed", "--input", str(run / data.name), "--response", "response",
                         "--diss", diss, "--r", "2", "--out", str(out)]) == 0
            coords.append(out.read_bytes())
        return coords

    assert embedded(tmp_path / "bom", b"\xef\xbb\xbf") == embedded(tmp_path / "plain", b"")


@pytest.mark.parametrize("argv", [
    ["embed", "--save-model", "m.npz"],
    ["regress", "--seed", "1"],
])
def test_table_runs_that_cannot_predict_exit_before_reading(tmp_path, capsys, monkeypatch,
                                                            argv):
    # a model built on a table has no values for unseen points
    data = _gen(tmp_path)
    table = tmp_path / "t.csv"
    table.write_text("0.0\n")
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("ran before the table run was rejected")
    monkeypatch.setattr(sca.cli, "read_dissimilarity_table", never)
    monkeypatch.setattr(sca.cli, "decompose", never)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--input", str(data), "--response", "response",
                        "--diss", f"table:{table}"]) == 1
    err = capsys.readouterr().err
    assert f"table:{table}" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.meta.json", "t.csv"]


@pytest.mark.filterwarnings("error")  # an overflow warning would escape as an exception
@pytest.mark.parametrize("diss", ["sqeuclidean", "euclidean"])
def test_far_query_exits_2_with_only_the_numerical_failure(tmp_path, capsys, diss):
    # (1e200 - x)^2 overflows: the query's kernel row is zero
    data = _gen(tmp_path)
    assert main(["regress", "--input", str(data), "--response", "response", "--diss", diss,
                 "--folds", "3", "--r", "4", "--seed", "1",
                 "--out-model", str(tmp_path / "reg.npz")]) == 0
    assert main(["embed", "--input", str(data), "--response", "response", "--diss", diss,
                 "--r", "3", "--save-model", str(tmp_path / "emb.npz")]) == 0
    query = tmp_path / "far.csv"
    query.write_text("id,x0,x1,x2\nfar,1e200,0,0\n")
    capsys.readouterr()
    for argv in (["predict", "--model", str(tmp_path / "reg.npz")],
                 ["extend", "--model", str(tmp_path / "emb.npz")]):
        out = tmp_path / "out.csv"
        assert main(argv + ["--input", str(query), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("numerical failure: kernel row for query point 0 underflowed to zero; "
                       "the point is too far from the training data at this epsilon\n")
        assert not out.exists()


def test_gen_library_sidecar_records_ref_index(tmp_path):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "component-families", "--n", "12",
                 "--seed", "1", "--out", str(lib)]) == 0
    sidecar = json.loads((tmp_path / "lib.csv.meta.json").read_text())
    assert sidecar["info"]["ref_index"] == 0
    header = lib.read_text().splitlines()[0].split(",")
    assert header[:3] == ["id", "age", "met"]


# --- model archives and malformed inputs ------------------------------------

@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A swiss-roll CSV with a regress model (r=4) and an embed model (r=3)."""
    base = tmp_path_factory.mktemp("models")
    data = _gen(base, n=30)
    assert main(["regress", "--input", str(data), "--response", "response",
                 "--folds", "3", "--r", "4", "--seed", "1",
                 "--out-model", str(base / "reg.npz")]) == 0
    assert main(["embed", "--input", str(data), "--r", "3", "--response", "response",
                 "--out", str(base / "coords.csv"), "--save-model", str(base / "emb.npz")]) == 0
    return base


def _rewrite(src, dst, **changes):
    """Copy a model archive, replacing entries (None deletes one)."""
    with np.load(src) as archive:
        entries = {key: archive[key] for key in archive.files}
    for key, value in changes.items():
        if value is None:
            del entries[key]
        else:
            entries[key] = value(entries[key]) if callable(value) else value
    with open(dst, "wb") as fh:
        np.savez(fh, **entries)


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _patched(src, offset, value):
    """Archive bytes with one byte set; ``offset`` may depend on the bytes."""
    raw = bytearray(src.read_bytes())
    raw[offset(raw) if callable(offset) else offset] = value
    return bytes(raw)


def _corrupt_entry_data(src, dst, name):
    """Flip the last byte of one archive entry's array data."""
    raw = bytearray(src.read_bytes())
    with zipfile.ZipFile(src) as zf:
        info = zf.getinfo(name)
    header_len = 30 + len(info.filename.encode()) + len(info.extra)
    raw[info.header_offset + header_len + info.compress_size - 1] ^= 0xFF
    dst.write_bytes(bytes(raw))


def _write(path, text):
    path.write_text(text)
    return path


OBS = "id,b0,b1\nq,1.0,0.5\n"
PROTO_HEADER = "id,mean_log_age,mean_log_met,b0,b1\n"

# (case id, subcommand, function writing the bad file at `bad` from the good models)
MALFORMED = [
    ("model-truncated", "predict",
     lambda m, bad: bad.write_bytes((m / "reg.npz").read_bytes()[:2000])),
    ("model-not-an-archive", "predict", lambda m, bad: bad.write_bytes(b"garbage" * 9)),
    ("model-empty-file", "predict", lambda m, bad: bad.write_bytes(b"")),
    ("model-is-npy", "predict", lambda m, bad: bad.write_bytes(_npy_bytes(np.ones(3)))),
    ("model-json", "predict", lambda m, bad: bad.write_text('{"model": {"p": 1}')),
    ("model-directory", "predict", lambda m, bad: bad.mkdir()),
    ("missing-eigenvalues", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, eigenvalues=None)),
    ("missing-intercept", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, intercept=None)),
    ("eigenvalues-int-dtype", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, eigenvalues=lambda a: a.astype(np.int64))),
    ("epsilon-string-dtype", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, epsilon=np.str_("0.5"))),
    ("points-1d", "predict", lambda m, bad: _rewrite(m / "reg.npz", bad, points=np.ravel)),
    ("points-rows", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, points=lambda a: a[:-1])),
    ("eigenvectors-columns", "extend",
     lambda m, bad: _rewrite(m / "emb.npz", bad, eigenvectors=lambda a: a[:, :-1])),
    ("eigenvalues-length", "extend",
     lambda m, bad: _rewrite(m / "emb.npz", bad, eigenvalues=lambda a: a[:-1])),
    ("coefficients-beyond-pairs", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, coefficients=np.ones(9))),
    ("coefficients-empty", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, coefficients=np.ones(0))),
    ("eigenvectors-nan", "extend",
     lambda m, bad: _rewrite(m / "emb.npz", bad, eigenvectors=lambda a: a * np.nan)),
    ("epsilon-negative", "extend",
     lambda m, bad: _rewrite(m / "emb.npz", bad, epsilon=np.float64(-1.0))),
    ("diss-kind-table", "extend",
     lambda m, bad: _rewrite(m / "emb.npz", bad, diss_kind=np.str_("table"))),
    ("epsilon-nan", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, epsilon=np.float64(np.nan))),
    ("points-nan", "extend",
     lambda m, bad: _rewrite(m / "emb.npz", bad, points=lambda a: a * np.nan)),
    ("t-zero", "extend", lambda m, bad: _rewrite(m / "emb.npz", bad, t=np.int64(0))),
    ("intercept-inf", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, intercept=np.float64(np.inf))),
    ("coefficients-nan", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, coefficients=lambda a: a * np.nan)),
    ("cv-risk-curve-nan", "predict",
     lambda m, bad: _rewrite(m / "reg.npz", bad, cv_risk_curve=lambda a: a * np.nan)),
    ("no-eigenpairs", "extend", lambda m, bad: _rewrite(
        m / "emb.npz", bad, eigenvalues=lambda a: a[:0], eigenvectors=lambda a: a[:, :0])),
    ("no-points", "predict", lambda m, bad: _rewrite(
        m / "reg.npz", bad, points=lambda a: a[:0], eigenvectors=lambda a: a[:0])),
    # zip header fields: compression method 99 in the first central-directory
    # record, and a first local-header extra-field length running past the end
    ("zip-unsupported-compression", "predict", lambda m, bad: bad.write_bytes(
        _patched(m / "reg.npz", lambda raw: raw.find(b"PK\x01\x02") + 10, 99))),
    ("zip-extra-field-past-end", "predict",
     lambda m, bad: bad.write_bytes(_patched(m / "reg.npz", 29, 0x80))),
    ("eigenvectors-data-corrupt", "extend",
     lambda m, bad: _corrupt_entry_data(m / "emb.npz", bad, "eigenvectors.npy")),
    ("predict-on-embed-model", "predict",
     lambda m, bad: bad.write_bytes((m / "emb.npz").read_bytes())),
    ("prototypes-non-numeric", "fit-mixture",
     lambda m, bad: bad.write_text(PROTO_HEADER + "0,1.0,0.1,oops,0.5\n")),
    ("prototypes-empty-file", "fit-mixture", lambda m, bad: bad.write_text("")),
    ("prototypes-ragged-row", "fit-mixture",
     lambda m, bad: bad.write_text(PROTO_HEADER + "0,1.0,0.1,2.0\n")),
    ("prototypes-no-rows", "fit-mixture", lambda m, bad: bad.write_text(PROTO_HEADER)),
    ("prototypes-missing-column", "fit-mixture",
     lambda m, bad: bad.write_text("id,mean_log_age,b0,b1\n0,1.0,2.0,0.5\n")),
]


@pytest.mark.parametrize("case,subcommand,build", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_model_or_prototypes_exits_1(models, tmp_path, capsys, case, subcommand,
                                               build):
    bad = tmp_path / "bad"
    build(models, bad)
    out = tmp_path / "out"
    data = str(models / "d.csv")
    argv = {
        "predict": ["predict", "--model", str(bad), "--input", data],
        "extend": ["extend", "--model", str(bad), "--input", data, "--response", "response"],
        "fit-mixture": ["fit-mixture", "--prototypes", str(bad), "--input",
                        str(_write(tmp_path / "obs.csv", OBS))],
    }[subcommand]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
    assert "Traceback" not in err
    assert str(bad) in err
    assert not out.exists()


def test_predict_and_extend_round_trip_through_archives(models, tmp_path, capsys):
    train = models / "d.csv"
    query = _gen(tmp_path, "q.csv", n=15, seed=8)
    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(models / "reg.npz"), "--input", str(query),
                 "--out", str(preds)]) == 0

    data = load_dataset(train, response_column="response", id_column="id")
    dmat = pairwise_dissimilarity(data, Dissimilarity())
    transition = build_transition(dmat, default_epsilon(dmat))
    decomposition = decompose(transition)
    extension = build_extension(data, transition, decomposition)
    model = fit(data, embed(decomposition, 1, 4), extension, folds=3, seed=1)
    points, _, _ = read_table(query, response_column="response", id_column="id")
    got = np.array([float(row.split(",")[1]) for row in preds.read_text().splitlines()[1:]])
    np.testing.assert_array_equal(got, predict(model, points))

    # only the pairs the model uses are stored: p for regress, r for embed
    with np.load(models / "reg.npz") as archive:
        assert archive["eigenvalues"].shape == (model.p,)
    with np.load(models / "emb.npz") as archive:
        assert archive["eigenvectors"].shape == (data.n, 3)

    # extend takes either kind of model; its default r is the stored pair count
    ext = tmp_path / "ext.csv"
    assert main(["extend", "--model", str(models / "reg.npz"), "--input", str(query),
                 "--response", "response", "--out", str(ext)]) == 0
    assert ext.read_text().splitlines()[0] == ",".join(
        ["id"] + [f"psi_{j}" for j in range(1, model.p + 1)])
    capsys.readouterr()
    assert main(["extend", "--model", str(models / "emb.npz"), "--input", str(query),
                 "--response", "response", "--r", "4", "--out", str(ext)]) == 1
    assert "stores 3 nontrivial eigenpairs" in capsys.readouterr().err


def test_library_readers_take_the_id_column_by_default(tmp_path):
    """A generated file reads in the library as in the CLI: its 'id' column
    names the rows and is not a feature."""
    path = _gen(tmp_path, n=12)
    data = load_dataset(path, response_column="response")
    points, ids, _ = read_table(path, response_column="response")
    assert data.d == points.shape[1] == 3
    assert data.ids == ids == tuple(row.split(",")[0] for row in
                                    path.read_text().splitlines()[1:])
    # the CLI resolves the same column and records it
    out = tmp_path / "coords.csv"
    assert main(["embed", "--input", str(path), "--response", "response", "--r", "2",
                 "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "coords.csv.meta.json").read_text())
    assert sidecar["config"]["id_column"] == "id" and sidecar["info"]["d"] == 3
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "degenerate-components", "--n", "12", "--seed", "1",
                 "--bins", "9", "--out", str(lib)]) == 0
    assert load_component_library(lib).n_bins == 9


def test_archive_with_a_phi0_entry_still_loads(models, tmp_path):
    """Archives written before phi0 left the format carry it; it is not read."""
    for name, argv in (("reg.npz", ["predict"]), ("emb.npz", ["extend", "--response", "response"])):
        with np.load(models / name) as archive:
            assert "phi0" not in archive.files
            n = archive["points"].shape[0]
        legacy = tmp_path / f"legacy-{name}"
        _rewrite(models / name, legacy, phi0=np.full(n, 1.0 / n))
        outputs = []
        for model in (models / name, legacy):
            out = tmp_path / f"{model.name}.csv"
            assert main(argv + ["--model", str(model), "--input", str(models / "d.csv"),
                                "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
