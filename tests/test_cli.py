"""CLI behavior: files, exit codes, determinism, sidecar round-trips."""

import json

import pytest

from sca.cli import config_argv, main


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


def test_sidecar_round_trip_reproduces_output(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "coords.csv"
    assert main(["embed", "--input", str(data), "--r", "3",
                 "--response", "response", "--out", str(out)]) == 0
    original = out.read_bytes()
    sidecar = json.loads((tmp_path / "coords.csv.meta.json").read_text())
    out.unlink()
    assert main(config_argv(sidecar["config"])) == 0
    assert out.read_bytes() == original


def test_extend_reproduces_training_coordinates(tmp_path):
    data = _gen(tmp_path)
    coords = tmp_path / "coords.csv"
    model_dir = tmp_path / "model"
    assert main(["embed", "--input", str(data), "--r", "3", "--response", "response",
                 "--out", str(coords), "--save-model", str(model_dir)]) == 0
    extended = tmp_path / "ext.csv"
    assert main(["extend", "--model", str(model_dir), "--input", str(data),
                 "--response", "response", "--out", str(extended)]) == 0
    ref = [line.split(",") for line in coords.read_text().splitlines()[1:]]
    got = [line.split(",") for line in extended.read_text().splitlines()[1:]]
    for row_ref, row_got in zip(ref, got):
        assert row_ref[0] == row_got[0]
        for a, b in zip(row_ref[1:], row_got[1:]):
            assert float(a) == pytest.approx(float(b), abs=1e-9)


def test_regress_then_predict_pipeline(tmp_path):
    data = _gen(tmp_path, n=40)
    model = tmp_path / "model.json"
    fitted = tmp_path / "fitted.csv"
    assert main(["regress", "--input", str(data), "--response", "response",
                 "--folds", "5", "--r", "8", "--seed", "1",
                 "--out-model", str(model), "--out-predictions", str(fitted)]) == 0
    payload = json.loads(model.read_text())
    assert payload["model"]["p"] >= 1
    assert len(payload["model"]["risk_curve"]) == 8

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
    model = tmp_path / "model.json"
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


def test_gen_library_sidecar_records_ref_index(tmp_path):
    lib = tmp_path / "lib.csv"
    assert main(["gen", "--kind", "component-families", "--n", "12",
                 "--seed", "1", "--out", str(lib)]) == 0
    sidecar = json.loads((tmp_path / "lib.csv.meta.json").read_text())
    assert sidecar["info"]["ref_index"] == 0
    header = lib.read_text().splitlines()[0].split(",")
    assert header[:3] == ["id", "age", "met"]
