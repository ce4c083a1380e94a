"""Command-line front end: gen | embed | extend | regress | predict |
prototype | fit-mixture | bench-quantization.

Every run resolves its flags (including defaults) into a config dict,
returns data as CSV with a JSON sidecar carrying that config (or, for
fit-mixture and bench-quantization, one JSON file with it inline), and
``main`` writes a run's files all or none.  Exit status: 0 success, 1
validation error, 2 numerical failure.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import zipfile
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import synthetic
from .dataset import DISS_KINDS, load_dataset, parse_table, read_dissimilarity_table, read_table
from .errors import NumericalError, ValidationError, check_int, check_real
from .markov import _gaussian_chain, transition_from_points
from .nystrom import ExtensionModel, build_extension, extend_embedding
from .prototypes import (
    PrototypeSet,
    diffusion_kmeans,
    fit_mixture,
    load_component_library,
    quantization_benchmark,
)
from .regression import EigenbasisRegression, fit, fitted_values, predict, risk_curve
from .spectral import SpectralDecomposition, decompose, embed


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_files(files) -> None:
    """Put a run's (path, bytes) pairs on disk, all or none.

    Every path is checked first: an existing directory, or two outputs
    that resolve to one file, is a ValidationError.  Each file is written
    to a temporary file beside its path, given the mode the umask allows
    a new file, and all are renamed into place only once every one is
    written.  On any failure every temporary file, and every folder the
    run created, is deleted, and an OSError names the output path, never
    a temporary one.
    """
    seen = {}
    for path, _ in files:
        if os.path.isdir(path):
            raise ValidationError(f"output {path} is a directory")
        if (key := os.path.realpath(path)) in seen:
            raise ValidationError(f"outputs {seen[key]} and {path} are the same file")
        seen[key] = path
    umask = os.umask(0)   # the umask is read by setting it
    os.umask(umask)
    temps, made = [], []
    try:
        for path, data in files:
            folder = parent = os.path.dirname(path) or "."
            while parent and not os.path.exists(parent):
                made.append(parent)
                parent = os.path.dirname(parent)
            if parent != folder:
                os.makedirs(folder)
            fd, tmp = tempfile.mkstemp(".tmp", f".{os.path.basename(path)}.", folder)
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.chmod(tmp, 0o666 & ~umask)
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for folder in sorted(made, key=len, reverse=True):   # children first
            with contextlib.suppress(OSError):
                os.rmdir(folder)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _csv_bytes(header, keys, values: np.ndarray) -> bytes:
    """CSV of key columns (ids, int labels) beside an (n, m) float block, m >= 1.

    Each float is written as its repr, the shortest text that reads back
    to the same double, which is what ``csv`` writes for a float.  The
    keys go through ``csv``, which quotes the ids that need it: each key
    row ends in an empty cell, written as a bare trailing comma, and the
    row's floats replace the newline after it.
    """
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*keys, repeat("")))
    for i, floats in enumerate(values.tolist(), 1):
        lines[i] = f"{lines[i][:-1]}{','.join(map(repr, floats))}\n"
    return "".join(lines).encode("utf-8")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sidecar(out_path, config: dict, info: dict):
    return str(out_path) + ".meta.json", _json_bytes({"config": config, "info": info})


def _config(args, **resolved) -> dict:
    """A run's config: every parsed flag, with the values the run resolved
    (defaults it derived, such as r, epsilon or an output path) laid over."""
    config = {key: value for key, value in vars(args).items() if key != "func"}
    config.update(resolved)
    return config


def _derived_out(input_path, suffix: str) -> str:
    return str(Path(input_path).with_suffix(suffix))


# ---------------------------------------------------------------------------
# shared pipeline steps
# ---------------------------------------------------------------------------

def _resolve_epsilon(eps_text: str):
    """'auto' -> None (the chain is built at ``default_epsilon``), else a positive finite float."""
    if eps_text == "auto":
        return None
    try:
        epsilon = float(eps_text)
    except ValueError:
        raise ValidationError(f"epsilon must be a positive real or 'auto', got {eps_text!r}")
    return check_real(epsilon, True, "epsilon")


def _embedding_pipeline(args, t: int):
    """``--input`` and its chain, spectrum and embedding, ``--epsilon`` checked first."""
    epsilon = _resolve_epsilon(args.epsilon)
    table, id_column = _read_input(args)
    data = load_dataset(table, response_column=args.response, id_column=id_column)
    if args.diss.startswith("table:"):
        # the table is read into a buffer this run owns, and W is built in
        # it, as transition_from_points builds W in the D it computes
        dmat = read_dissimilarity_table(args.diss.removeprefix("table:"), data.n)
        transition = _gaussian_chain(dmat, epsilon, "table", out=dmat)
    else:
        transition = transition_from_points(data.points, args.diss, epsilon)
    decomposition = decompose(transition, args.r)
    embedding = embed(decomposition, t, decomposition.eigenvalues.size)
    return id_column, data, transition, decomposition, embedding


def _psi_header(r: int):
    return ["id"] + [f"psi_{j}" for j in range(1, r + 1)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args):
    spec = synthetic.GeneratorSpec(
        kind=args.kind, n=args.n, noise_sd=args.noise_sd, seed=args.seed,
        n_families=args.n_families, n_bins=args.bins,
        separation=args.separation,
    )
    result = synthetic.generate(spec)
    if args.kind in synthetic.DATASET_KINDS:
        d = result.d
        header = ["id"] + [f"x{k}" for k in range(d)] + ["response"]
        ids = result.ids
        values = np.column_stack([result.points, result.response])
        info = {"n": result.n, "d": d, "response_column": "response"}
    else:
        header = ["id", "age", "met"] + [f"b{k}" for k in range(result.n_bins)]
        ids = range(result.n_components)
        values = np.column_stack([result.ages, result.metallicities, result.spectra])
        info = {"n": result.n_components, "bins": result.n_bins,
                "ref_index": result.ref_index}
    return [(args.out, _csv_bytes(header, [ids], values)), _sidecar(args.out, _config(args), info)]


# Model archive entries, name -> (dtype kind, ndim), each named for the field it
# fills but t and response_column; the regression ones are only in ``regress``
# models.  Unlisted entries (such as the ``phi0`` of older archives) are not read.
_MODEL_ENTRIES = {
    "points": ("f", 2), "eigenvalues": ("f", 1), "eigenvectors": ("f", 2),
    "epsilon": ("f", 0), "diss_kind": ("U", 0), "t": ("i", 0),
}
_REGRESSION_ENTRIES = {
    "intercept": ("f", 0), "coefficients": ("f", 1), "cv_risk_curve": ("f", 1),
    "folds": ("i", 0), "seed": ("i", 0), "response_column": ("U", 0),
}


def _model_bytes(extension: ExtensionModel, t: int, pairs: int,
                 regression: EigenbasisRegression = None, response_column=None) -> bytes:
    """A model archive: one .npz of every array and scalar a loader reads.

    Only the leading ``pairs`` nontrivial eigenpairs are stored.
    """
    dec = extension.decomposition
    entries = dict(points=extension.points, eigenvalues=dec.eigenvalues[:pairs],
                   eigenvectors=dec.eigenvectors[:, :pairs],
                   epsilon=extension.epsilon, diss_kind=extension.diss_kind, t=t)
    if regression is not None:
        entries.update(intercept=regression.intercept, coefficients=regression.coefficients,
                       cv_risk_curve=regression.cv_risk_curve, folds=regression.folds,
                       seed=regression.seed, response_column=response_column)
    buf = io.BytesIO()
    np.savez(buf, **entries)
    return buf.getvalue()


@contextlib.contextmanager
def _named(source: str):
    """Prefix every ValidationError or NumericalError raised in the block with ``source``."""
    try:
        yield
    except (ValidationError, NumericalError) as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _load_model(path):
    """Read a model archive as (extension, t, regression, response_column).

    The last two are None for a model written by ``embed``.  The loader
    checks each entry's presence, dtype kind and ndim, and the types check
    their own invariants; every fault is a ValidationError naming the file.
    """
    entries = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name in archive.namelist():
                with archive.open(name) as member:
                    entries[name.removesuffix(".npy")] = np.lib.format.read_array(
                        member, allow_pickle=False)
    # RuntimeError covers zipfile's NotImplementedError for unsupported
    # compression or version fields and its error for encrypted entries
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"cannot read model {path}: {exc}") from exc

    def entry(key, kind, ndim):
        if key not in entries:
            raise ValidationError(f"missing entry {key!r}")
        arr = entries[key]
        if arr.dtype.kind != kind or arr.ndim != ndim:
            raise ValidationError(f"entry {key!r} is a {arr.ndim}-D {arr.dtype} array, "
                                  f"expected {ndim}-D of kind {kind!r}")
        return arr.item() if ndim == 0 else arr

    with _named(f"model {path}"):
        e = {key: entry(key, *spec) for key, spec in _MODEL_ENTRIES.items()}
        t = check_int(e.pop("t"), 1, None, "diffusion time t")
        decomposition = SpectralDecomposition(e.pop("eigenvalues"), e.pop("eigenvectors"))
        extension = ExtensionModel(decomposition=decomposition, **e)
        if not any(key in entries for key in _REGRESSION_ENTRIES):
            return extension, t, None, None
        r = {key: entry(key, *spec) for key, spec in _REGRESSION_ENTRIES.items()}
        column = r.pop("response_column")
        return extension, t, EigenbasisRegression(extension=extension, **r), column


def _read_input(args):
    """Parse ``--input`` once: the table and its resolved id column."""
    table = parse_table(args.input)
    return table, table.default_id(args.id_column)


def _cmd_embed(args):
    if args.save_model and args.diss.startswith("table:"):
        raise ValidationError(f"--save-model needs a dissimilarity computable at new points; "
                              f"--diss {args.diss} has no values for unseen points")
    id_column, data, transition, decomposition, embedding = _embedding_pipeline(args, args.t)
    r = embedding.r
    if args.save_model:
        extension = build_extension(data, transition, decomposition)
    out = args.out or _derived_out(args.input, ".coords.csv")
    config = _config(args, r=r, epsilon=transition.epsilon, id_column=id_column, out=out)
    info = {
        "n": data.n, "d": data.d,
        "eigenvalues": decomposition.eigenvalues[:r].tolist(),
    }
    files = [(out, _csv_bytes(_psi_header(r), [data.ids], embedding.coords)),
             _sidecar(out, config, info)]
    if args.save_model:
        files += [(args.save_model, _model_bytes(extension, args.t, r)),
                  _sidecar(args.save_model, config, {"n": data.n, "d": data.d, "pairs": r})]
    return files


def _cmd_extend(args):
    model, stored_t, _, _ = _load_model(args.model)
    table, id_column = _read_input(args)
    points, ids, _ = read_table(table, response_column=args.response,
                                id_column=id_column)
    t = args.t if args.t is not None else stored_t
    r = args.r if args.r is not None else model.decomposition.eigenvalues.shape[0]
    coords = extend_embedding(model, points, t, r)
    out = args.out or _derived_out(args.input, ".extended.csv")
    info = {"n": len(ids), "d": points.shape[1], "epsilon": model.epsilon,
            "diss_kind": model.diss_kind}
    return [(out, _csv_bytes(_psi_header(r), [ids], coords)),
            _sidecar(out, _config(args, t=t, r=r, id_column=id_column, out=out), info)]


def _cmd_regress(args):
    id_column, data, transition, decomposition, embedding = _embedding_pipeline(args, 1)
    extension = build_extension(data, transition, decomposition)
    model = fit(data, embedding, extension, folds=args.folds, seed=args.seed)
    out_model = args.out_model or _derived_out(args.input, ".model.npz")
    out_preds = args.out_predictions or _derived_out(args.input, ".fitted.csv")
    config = _config(args, r=embedding.r, epsilon=transition.epsilon, id_column=id_column,
                     out_model=out_model, out_predictions=out_preds)
    # t is stored only as the default ``extend`` uses on this model
    return [(out_model, _model_bytes(extension, 1, model.p, model, args.response)),
            _sidecar(out_model, config, {"n": data.n, "p": model.p,
                                         "risk_curve": risk_curve(model)}),
            (out_preds, _csv_bytes(["id", "prediction"], [data.ids],
                                   fitted_values(model)[:, None])),
            _sidecar(out_preds, config, {"p": model.p, "n": data.n})]


def _cmd_predict(args):
    _, _, model, response_column = _load_model(args.model)
    if model is None:
        raise ValidationError(f"model {args.model} has no regression entries; "
                              "predict needs a model written by regress")
    table, id_column = _read_input(args)
    # the training response column, if it also appears in the query file,
    # must not be treated as a feature
    drop = response_column if response_column in table.header else None
    points, ids, _ = read_table(table, response_column=drop, id_column=id_column)
    preds = predict(model, points)
    out = args.out or _derived_out(args.input, ".predictions.csv")
    return [(out, _csv_bytes(["id", "prediction"], [ids], preds[:, None])),
            _sidecar(out, _config(args, id_column=id_column, out=out),
                     {"n": len(ids), "p": model.p})]


def _cmd_prototype(args):
    epsilon = _resolve_epsilon(args.epsilon)
    lib = load_component_library(args.input, ref_index=args.ref_index)
    proto = diffusion_kmeans(lib, args.k, t=args.t, r=args.r, seed=args.seed, epsilon=epsilon)
    r = proto.centroids_diffusion.shape[1]
    prefix = args.out_prefix or str(Path(args.input).with_suffix(""))
    out_protos = f"{prefix}.prototypes.csv"
    out_assign = f"{prefix}.assignments.csv"
    out_centroids = f"{prefix}.centroids.csv"
    proto_header = ["id", "mean_log_age", "mean_log_met"] + \
        [f"b{k}" for k in range(lib.n_bins)]
    clusters = range(proto.k)
    coord_cols = [f"c_{j}" for j in range(1, r + 1)]
    return [
        (out_protos, _csv_bytes(proto_header, [clusters], np.column_stack(
            [proto.log_ages, proto.log_metallicities, proto.prototypes]))),
        (out_assign, _csv_bytes(["id", "cluster"] + coord_cols,
                                [range(lib.n_components), proto.member_assignments.tolist()],
                                proto.member_coords_diffusion)),
        (out_centroids, _csv_bytes(["cluster"] + coord_cols, [clusters],
                                   proto.centroids_diffusion)),
        _sidecar(prefix, _config(args, r=r, epsilon=proto.epsilon, out_prefix=prefix), {
            "n_components": lib.n_components,
            "wcss_history": list(proto.wcss_history),
            "outputs": [out_protos, out_assign, out_centroids],
        }),
    ]


def _load_prototypes_csv(path) -> PrototypeSet:
    with _named(f"prototypes file {path}"):
        protos, _, (log_ages, log_mets) = parse_table(path).split(
            labels=("mean_log_age", "mean_log_met"), role="prototypes")
        return PrototypeSet(prototypes=protos, log_ages=log_ages, log_metallicities=log_mets)


def _cmd_fit_mixture(args):
    proto = _load_prototypes_csv(args.prototypes)
    table, id_column = _read_input(args)
    points, ids, _ = read_table(table, id_column=id_column)
    out = args.out or _derived_out(args.input, ".mixture.json")
    fits = []
    for i in range(len(ids)):
        with _named(f"input {args.input} row {i + 1} (id {ids[i]!r})"):
            result = fit_mixture(proto, points[i])
        fits.append({
            "id": ids[i],
            "gamma": result.gamma.tolist(),
            "residual": result.residual,
            "mean_log_age": result.mean_log_age,
            "mean_log_met": result.mean_log_met,
        })
    return [(out, _json_bytes({"config": _config(args, id_column=id_column, out=out),
                               "fits": fits}))]


def _cmd_bench_quantization(args):
    lib = load_component_library(args.input, ref_index=args.ref_index)
    report = quantization_benchmark(lib, args.k, args.trials, args.noise,
                                    args.seed, t=args.t, r=args.r)
    out = args.out or _derived_out(args.input, ".bench.json")
    return [(out, _json_bytes({"config": _config(args, out=out), "report": report.to_dict()}))]


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


_EPSILON_HELP = "kernel bandwidth, a positive real or 'auto' (median heuristic)"


def _add_embedding_flags(sub, with_seed: bool, response_required: bool = False):
    sub.add_argument("--input", required=True)
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--epsilon", default="auto", help=_EPSILON_HELP)
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
    gen.set_defaults(func=_cmd_gen)

    emb = subs.add_parser("embed", help="diffusion-map a dataset")
    _add_embedding_flags(emb, with_seed=False)
    emb.add_argument("--diss", default="sqeuclidean",
                     help="sqeuclidean | euclidean | table:<path>")
    emb.add_argument("--t", type=int, default=1)
    emb.add_argument("--out", default=None)
    emb.add_argument("--save-model", default=None,
                     help="path of the model archive (.npz) to write")
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
    # no table: a model built on one has no values for unseen points
    reg.add_argument("--diss", default="sqeuclidean", choices=DISS_KINDS)
    reg.add_argument("--folds", type=int, default=10)
    reg.add_argument("--out-model", default=None)
    reg.add_argument("--out-predictions", default=None)
    reg.set_defaults(func=_cmd_regress)

    pred = subs.add_parser("predict", help="predict new points from a regress model archive")
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
    proto.add_argument("--epsilon", default="auto", help=_EPSILON_HELP)
    proto.add_argument("--out-prefix", default=None)
    proto.set_defaults(func=_cmd_prototype)

    mix = subs.add_parser("fit-mixture", help="simplex mixture fit against prototypes")
    mix.add_argument("--prototypes", required=True)
    mix.add_argument("--input", required=True)
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
        _write_files(args.func(args))
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
