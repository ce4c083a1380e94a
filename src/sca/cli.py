"""Command-line front end: gen | embed | extend | regress | predict |
prototype | fit-mixture | bench-quantization.

Every run resolves its flags (including defaults) into a config dict,
writes data as CSV and metadata as JSON sidecars carrying that config,
and writes all files atomically.  Exit status: 0 success, 1 validation
error, 2 numerical failure.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import synthetic
from .dataset import Dissimilarity, load_dataset, pairwise_dissimilarity, read_table
from .errors import NumericalError, ValidationError
from .markov import build_transition, default_epsilon
from .nystrom import ExtensionModel, build_extension, extend_embedding
from .prototypes import (
    PrototypeSet,
    diffusion_kmeans,
    fit_mixture,
    load_component_library,
    quantization_benchmark,
)
from .regression import EigenbasisRegression, fit, fitted_values, predict
from .spectral import SpectralDecomposition, decompose, embed


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_bytes_atomic(path, data: bytes) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _write_sidecar(out_path, config: dict, info: dict) -> None:
    _write_bytes_atomic(str(out_path) + ".meta.json", _json_bytes(
        {"config": config, "info": info}
    ))


def _npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(arr))
    return buf.getvalue()


def config_argv(config: dict):
    """Rebuild the argv that reproduces a sidecar's run."""
    config = dict(config)
    argv = [config.pop("subcommand")]
    for key, value in config.items():
        if value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


def _derived_out(input_path, suffix: str) -> str:
    return str(Path(input_path).with_suffix(suffix))


def _header_columns(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
    delim = "\t" if "\t" in header else ","
    return [c.strip() for c in header.split(delim)]


def _resolve_id_column(path, given):
    """Default to the conventional 'id' column when the header carries one."""
    if given is not None:
        return given
    return "id" if "id" in _header_columns(path) else None


# ---------------------------------------------------------------------------
# shared pipeline steps
# ---------------------------------------------------------------------------

def _parse_diss(text: str):
    """'sqeuclidean' | 'euclidean' | 'table:<path>' -> Dissimilarity."""
    if text in ("sqeuclidean", "euclidean"):
        return Dissimilarity(kind=text)
    if text.startswith("table:"):
        path = text[len("table:"):]
        try:
            table = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"malformed dissimilarity table {path}: {exc}") from exc
        return Dissimilarity(kind="table", table=table)
    raise ValidationError(
        f"unknown dissimilarity {text!r}; expected sqeuclidean, euclidean, or table:<path>"
    )


def _resolve_epsilon(eps_text: str, dmat: np.ndarray) -> float:
    if eps_text == "auto":
        return default_epsilon(dmat)
    try:
        value = float(eps_text)
    except ValueError:
        raise ValidationError(f"epsilon must be a positive real or 'auto', got {eps_text!r}")
    return value


def _embedding_pipeline(args, data):
    diss = _parse_diss(args.diss)
    dmat = pairwise_dissimilarity(data, diss)
    epsilon = _resolve_epsilon(args.epsilon, dmat)
    transition = build_transition(dmat, epsilon, diss_kind=diss.kind,
                                  cutoff=args.kernel_cutoff)
    decomposition = decompose(transition)
    r = args.r if args.r is not None else min(50, data.n - 1)
    return transition, decomposition, embed(decomposition, args.t, r), epsilon, r


def _coords_rows(ids, coords):
    return [[ids[i], *coords[i]] for i in range(len(ids))]


def _psi_header(r: int):
    return ["id"] + [f"psi_{j}" for j in range(1, r + 1)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    spec = synthetic.GeneratorSpec(
        kind=args.kind, n=args.n, noise_sd=args.noise_sd, seed=args.seed,
        n_families=args.n_families, n_bins=args.bins,
        separation=args.separation, height=args.height, length=args.length,
    )
    config = {
        "subcommand": "gen", "kind": args.kind, "n": args.n, "seed": args.seed,
        "noise_sd": args.noise_sd, "n_families": args.n_families,
        "bins": args.bins, "separation": args.separation,
        "height": args.height, "length": args.length, "out": args.out,
    }
    result = synthetic.generate(spec)
    if args.kind in synthetic.DATASET_KINDS:
        d = result.d
        header = ["id"] + [f"x{k}" for k in range(d)] + ["response"]
        rows = [[result.ids[i], *result.points[i], result.response[i]]
                for i in range(result.n)]
        info = {"n": result.n, "d": d, "response_column": "response"}
    else:
        header = ["id", "age", "met"] + [f"b{k}" for k in range(result.n_bins)]
        rows = [[str(i), result.ages[i], result.metallicities[i], *result.spectra[i]]
                for i in range(result.n_components)]
        info = {"n": result.n_components, "bins": result.n_bins,
                "ref_index": result.ref_index}
    _write_bytes_atomic(args.out, _csv_bytes(header, rows))
    _write_sidecar(args.out, config, info)
    return 0


def _save_model_dir(model_dir, data, transition, decomposition, t, r) -> None:
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    _write_bytes_atomic(model_dir / "points.npy", _npy_bytes(data.points))
    _write_bytes_atomic(model_dir / "eigenvalues.npy",
                        _npy_bytes(decomposition.eigenvalues))
    _write_bytes_atomic(model_dir / "eigenvectors.npy",
                        _npy_bytes(decomposition.eigenvectors))
    _write_bytes_atomic(model_dir / "phi0.npy", _npy_bytes(decomposition.phi0))
    _write_bytes_atomic(model_dir / "meta.json", _json_bytes({
        "epsilon": transition.epsilon,
        "diss_kind": transition.diss_kind,
        "t": t, "r": r, "n": data.n, "d": data.d,
        "ids": list(data.ids),
    }))


def _load_model_dir(model_dir) -> tuple:
    model_dir = Path(model_dir)
    meta = json.loads((model_dir / "meta.json").read_text(encoding="utf-8"))
    points = np.load(model_dir / "points.npy", allow_pickle=False)
    decomposition = SpectralDecomposition(
        eigenvalues=np.load(model_dir / "eigenvalues.npy", allow_pickle=False),
        eigenvectors=np.load(model_dir / "eigenvectors.npy", allow_pickle=False),
        trivial_eigenvalue=1.0,
        trivial_eigenvector=np.ones(points.shape[0]),
        phi0=np.load(model_dir / "phi0.npy", allow_pickle=False),
    )
    model = ExtensionModel(points=points, decomposition=decomposition,
                           epsilon=meta["epsilon"], diss_kind=meta["diss_kind"])
    return model, meta


def _cmd_embed(args) -> int:
    id_column = _resolve_id_column(args.input, args.id_column)
    data = load_dataset(args.input, response_column=args.response,
                        id_column=id_column)
    transition, decomposition, embedding, epsilon, r = _embedding_pipeline(args, data)
    out = args.out or _derived_out(args.input, ".coords.csv")
    config = {
        "subcommand": "embed", "input": args.input, "t": args.t, "r": r,
        "epsilon": epsilon, "diss": args.diss, "response": args.response,
        "id_column": id_column, "kernel_cutoff": args.kernel_cutoff,
        "out": out, "save_model": args.save_model,
    }
    info = {
        "n": data.n, "d": data.d,
        "eigenvalues": [float(v) for v in decomposition.eigenvalues[:r]],
    }
    _write_bytes_atomic(out, _csv_bytes(_psi_header(r),
                                        _coords_rows(data.ids, embedding.coords)))
    _write_sidecar(out, config, info)
    if args.save_model:
        _save_model_dir(args.save_model, data, transition, decomposition, args.t, r)
    return 0


def _cmd_extend(args) -> int:
    model, meta = _load_model_dir(args.model)
    id_column = _resolve_id_column(args.input, args.id_column)
    points, ids, _ = read_table(args.input, response_column=args.response,
                                id_column=id_column)
    t = args.t if args.t is not None else int(meta["t"])
    r = args.r if args.r is not None else int(meta["r"])
    coords = extend_embedding(model, points, t, r)
    out = args.out or _derived_out(args.input, ".extended.csv")
    config = {
        "subcommand": "extend", "model": args.model, "input": args.input,
        "t": t, "r": r, "response": args.response,
        "id_column": id_column, "out": out,
    }
    info = {"n": len(ids), "d": points.shape[1], "epsilon": model.epsilon,
            "diss_kind": model.diss_kind}
    _write_bytes_atomic(out, _csv_bytes(_psi_header(r), _coords_rows(ids, coords)))
    _write_sidecar(out, config, info)
    return 0


def _model_to_json(model: EigenbasisRegression, config: dict, response_column: str) -> dict:
    ext = model.extension
    dec = ext.decomposition
    return {
        "config": config,
        "model": {
            "intercept": model.intercept,
            "coefficients": [float(b) for b in model.coefficients],
            "p": model.p,
            "t": model.t,
            "folds": model.folds,
            "seed": model.seed,
            "risk_curve": [[p + 1, float(rk)] for p, rk in enumerate(model.cv_risk_curve)],
            "response_column": response_column,
        },
        "extension": {
            "points": [[float(v) for v in row] for row in ext.points],
            "eigenvalues": [float(v) for v in dec.eigenvalues[:model.p]],
            "eigenvectors": [[float(v) for v in row] for row in dec.eigenvectors[:, :model.p]],
            "phi0": [float(v) for v in dec.phi0],
            "epsilon": ext.epsilon,
            "diss_kind": ext.diss_kind,
        },
    }


def _model_from_json(payload: dict) -> EigenbasisRegression:
    ext_blob = payload["extension"]
    blob = payload["model"]
    points = np.array(ext_blob["points"], dtype=np.float64)
    decomposition = SpectralDecomposition(
        eigenvalues=np.array(ext_blob["eigenvalues"], dtype=np.float64),
        eigenvectors=np.array(ext_blob["eigenvectors"], dtype=np.float64),
        trivial_eigenvalue=1.0,
        trivial_eigenvector=np.ones(points.shape[0]),
        phi0=np.array(ext_blob["phi0"], dtype=np.float64),
    )
    extension = ExtensionModel(points=points, decomposition=decomposition,
                               epsilon=ext_blob["epsilon"],
                               diss_kind=ext_blob["diss_kind"])
    return EigenbasisRegression(
        intercept=blob["intercept"],
        coefficients=np.array(blob["coefficients"], dtype=np.float64),
        p=int(blob["p"]),
        t=int(blob["t"]),
        cv_risk_curve=np.array([rk for _, rk in blob["risk_curve"]], dtype=np.float64),
        extension=extension,
        folds=int(blob["folds"]),
        seed=int(blob["seed"]),
    )


def _cmd_regress(args) -> int:
    id_column = _resolve_id_column(args.input, args.id_column)
    data = load_dataset(args.input, response_column=args.response,
                        id_column=id_column)
    transition, decomposition, embedding, epsilon, r = _embedding_pipeline(args, data)
    extension = build_extension(data, transition, decomposition)
    model = fit(data, embedding, extension, folds=args.folds, seed=args.seed)
    out_model = args.out_model or _derived_out(args.input, ".model.json")
    out_preds = args.out_predictions or _derived_out(args.input, ".fitted.csv")
    config = {
        "subcommand": "regress", "input": args.input, "response": args.response,
        "folds": args.folds, "t": args.t, "r": r, "epsilon": epsilon,
        "diss": args.diss, "seed": args.seed, "id_column": id_column,
        "kernel_cutoff": args.kernel_cutoff,
        "out_model": out_model, "out_predictions": out_preds,
    }
    _write_bytes_atomic(out_model, _json_bytes(
        _model_to_json(model, config, args.response)))
    yhat = fitted_values(model, embedding)
    rows = [[data.ids[i], yhat[i]] for i in range(data.n)]
    _write_bytes_atomic(out_preds, _csv_bytes(["id", "prediction"], rows))
    _write_sidecar(out_preds, config, {"p": model.p, "n": data.n})
    return 0


def _cmd_predict(args) -> int:
    payload = json.loads(Path(args.model).read_text(encoding="utf-8"))
    model = _model_from_json(payload)
    # the training response column, if it also appears in the query file,
    # must not be treated as a feature
    drop = payload["model"].get("response_column")
    response_col = drop if drop and drop in _header_columns(args.input) else None
    id_column = _resolve_id_column(args.input, args.id_column)
    points, ids, _ = read_table(args.input, response_column=response_col,
                                id_column=id_column)
    preds = predict(model, points)
    out = args.out or _derived_out(args.input, ".predictions.csv")
    config = {
        "subcommand": "predict", "model": args.model, "input": args.input,
        "id_column": id_column, "out": out,
    }
    rows = [[ids[i], preds[i]] for i in range(len(ids))]
    _write_bytes_atomic(out, _csv_bytes(["id", "prediction"], rows))
    _write_sidecar(out, config, {"n": len(ids), "p": model.p})
    return 0


def _cmd_prototype(args) -> int:
    lib = load_component_library(args.input, ref_index=args.ref_index)
    r = args.r if args.r is not None else min(50, lib.n_components - 1)
    proto = diffusion_kmeans(lib, args.k, t=args.t, r=r, seed=args.seed,
                             epsilon=args.epsilon_value)
    prefix = args.out_prefix or str(Path(args.input).with_suffix(""))
    out_protos = f"{prefix}.prototypes.csv"
    out_assign = f"{prefix}.assignments.csv"
    out_centroids = f"{prefix}.centroids.csv"
    config = {
        "subcommand": "prototype", "input": args.input, "k": args.k,
        "t": args.t, "r": r, "seed": args.seed, "ref_index": args.ref_index,
        "epsilon": args.epsilon_value, "out_prefix": prefix,
    }
    proto_header = ["id", "mean_log_age", "mean_log_met"] + \
        [f"b{k}" for k in range(lib.n_bins)]
    proto_rows = [[c, proto.log_ages[c], proto.log_metallicities[c], *proto.prototypes[c]]
                  for c in range(proto.k)]
    _write_bytes_atomic(out_protos, _csv_bytes(proto_header, proto_rows))
    coord_cols = [f"c_{j}" for j in range(1, r + 1)]
    assign_rows = [[str(i), int(proto.member_assignments[i]),
                    *proto.member_coords_diffusion[i]]
                   for i in range(lib.n_components)]
    _write_bytes_atomic(out_assign, _csv_bytes(["id", "cluster"] + coord_cols, assign_rows))
    centroid_rows = [[c, *proto.centroids_diffusion[c]] for c in range(proto.k)]
    _write_bytes_atomic(out_centroids, _csv_bytes(["cluster"] + coord_cols, centroid_rows))
    _write_sidecar(prefix, config, {
        "n_components": lib.n_components,
        "wcss_history": list(proto.wcss_history),
        "outputs": [out_protos, out_assign, out_centroids],
    })
    return 0


def _load_prototypes_csv(path) -> PrototypeSet:
    text = Path(path).read_text(encoding="utf-8")
    rows = list(csv.reader(text.splitlines()))
    header = rows[0]
    for required in ("mean_log_age", "mean_log_met"):
        if required not in header:
            raise ValidationError(f"prototypes file is missing column {required!r}")
    la_idx = header.index("mean_log_age")
    lz_idx = header.index("mean_log_met")
    skip = {la_idx, lz_idx}
    if "id" in header:
        skip.add(header.index("id"))
    feat_idx = [i for i in range(len(header)) if i not in skip]
    protos, las, lzs = [], [], []
    for row in rows[1:]:
        if not row:
            continue
        protos.append([float(row[i]) for i in feat_idx])
        las.append(float(row[la_idx]))
        lzs.append(float(row[lz_idx]))
    k = len(protos)
    return PrototypeSet(
        prototypes=np.array(protos), member_assignments=np.arange(k),
        centroids_diffusion=np.empty((k, 0)),
        member_coords_diffusion=np.empty((k, 0)),
        log_ages=np.array(las), log_metallicities=np.array(lzs),
        wcss_history=(), method="loaded",
    )


def _cmd_fit_mixture(args) -> int:
    proto = _load_prototypes_csv(args.prototypes)
    id_column = _resolve_id_column(args.input, args.id_column)
    points, ids, _ = read_table(args.input, id_column=id_column)
    out = args.out or _derived_out(args.input, ".mixture.json")
    config = {
        "subcommand": "fit-mixture", "prototypes": args.prototypes,
        "input": args.input, "noise_sd": args.noise_sd,
        "id_column": id_column, "out": out,
    }
    fits = []
    for i in range(len(ids)):
        result = fit_mixture(proto, points[i], noise_sd=args.noise_sd)
        fits.append({
            "id": ids[i],
            "gamma": [float(g) for g in result.gamma],
            "residual": result.residual,
            "mean_log_age": result.mean_log_age,
            "mean_log_met": result.mean_log_met,
        })
    _write_bytes_atomic(out, _json_bytes({"config": config, "fits": fits}))
    return 0


def _cmd_bench_quantization(args) -> int:
    lib = load_component_library(args.input, ref_index=args.ref_index)
    report = quantization_benchmark(lib, args.k, args.trials, args.noise,
                                    args.seed, t=args.t, r=args.r)
    out = args.out or _derived_out(args.input, ".bench.json")
    config = {
        "subcommand": "bench-quantization", "input": args.input, "k": args.k,
        "trials": args.trials, "noise": args.noise, "seed": args.seed,
        "t": args.t, "r": args.r, "ref_index": args.ref_index, "out": out,
    }
    _write_bytes_atomic(out, _json_bytes({"config": config,
                                          "report": report.to_dict()}))
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_embedding_flags(sub, with_seed: bool, response_required: bool = False):
    sub.add_argument("--input", required=True)
    sub.add_argument("--t", type=int, default=1)
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--epsilon", default="auto",
                     help="kernel bandwidth, a positive real or 'auto' (median heuristic)")
    sub.add_argument("--diss", default="sqeuclidean",
                     help="sqeuclidean | euclidean | table:<path>")
    sub.add_argument("--kernel-cutoff", type=float, default=None,
                     help="zero kernel entries below exp(-cutoff); off by default")
    sub.add_argument("--response", default=None, required=response_required,
                     help="name of a response column to keep out of the features")
    sub.add_argument("--id-column", default=None)
    if with_seed:
        sub.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sca", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)

    gen = subs.add_parser("gen", help="generate a synthetic dataset or library")
    gen.add_argument("--kind", required=True, choices=list(synthetic.KINDS))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--noise-sd", type=float, default=0.0)
    gen.add_argument("--n-families", type=int, default=3)
    gen.add_argument("--bins", type=int, default=40)
    gen.add_argument("--separation", type=float, default=0.05)
    gen.add_argument("--height", type=float, default=10.0)
    gen.add_argument("--length", type=float, default=1.0)
    gen.set_defaults(func=_cmd_gen)

    emb = subs.add_parser("embed", help="diffusion-map a dataset")
    _add_embedding_flags(emb, with_seed=False)
    emb.add_argument("--out", default=None)
    emb.add_argument("--save-model", default=None,
                     help="directory to store the extension model")
    emb.set_defaults(func=_cmd_embed)

    ext = subs.add_parser("extend", help="extend an embedding to new points")
    ext.add_argument("--model", required=True)
    ext.add_argument("--input", required=True)
    ext.add_argument("--t", type=int, default=None)
    ext.add_argument("--r", type=int, default=None)
    ext.add_argument("--response", default=None)
    ext.add_argument("--id-column", default=None)
    ext.add_argument("--out", default=None)
    ext.set_defaults(func=_cmd_extend)

    reg = subs.add_parser("regress", help="fit the eigenbasis regression")
    _add_embedding_flags(reg, with_seed=True, response_required=True)
    reg.add_argument("--folds", type=int, default=10)
    reg.add_argument("--out-model", default=None)
    reg.add_argument("--out-predictions", default=None)
    reg.set_defaults(func=_cmd_regress)

    pred = subs.add_parser("predict", help="predict new points from a model JSON")
    pred.add_argument("--model", required=True)
    pred.add_argument("--input", required=True)
    pred.add_argument("--id-column", default=None)
    pred.add_argument("--out", default=None)
    pred.set_defaults(func=_cmd_predict)

    proto = subs.add_parser("prototype", help="diffusion K-means prototypes")
    proto.add_argument("--input", required=True)
    proto.add_argument("--k", type=int, required=True)
    proto.add_argument("--t", type=int, default=1)
    proto.add_argument("--r", type=int, default=None)
    proto.add_argument("--seed", type=int, required=True)
    proto.add_argument("--ref-index", type=int, default=0)
    proto.add_argument("--epsilon-value", type=float, default=None,
                       help="kernel bandwidth override (default: median heuristic)")
    proto.add_argument("--out-prefix", default=None)
    proto.set_defaults(func=_cmd_prototype)

    mix = subs.add_parser("fit-mixture", help="simplex mixture fit against prototypes")
    mix.add_argument("--prototypes", required=True)
    mix.add_argument("--input", required=True)
    mix.add_argument("--noise-sd", type=float, default=1.0)
    mix.add_argument("--id-column", default=None)
    mix.add_argument("--out", default=None)
    mix.set_defaults(func=_cmd_fit_mixture)

    bench = subs.add_parser("bench-quantization",
                            help="compare diffusion K-means and grid prototypes")
    bench.add_argument("--input", required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--trials", type=int, default=100)
    bench.add_argument("--noise", type=float, default=0.0)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--t", type=int, default=1)
    bench.add_argument("--r", type=int, default=None)
    bench.add_argument("--ref-index", type=int, default=0)
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=_cmd_bench_quantization)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
