"""Span tracing of the ``sca`` layers from outside the package.

The tracer replaces public functions of ``sca`` modules with wrappers that
record one span per call: name, start, end, the span that caused it, and
the operation it belongs to.  A wrapper is installed on every loaded
``sca`` module attribute that holds the original function under its own
name, because callers look functions up where they imported them
(``sca.cli.fit``, ``sca.regression.extend_embedding``).  Nothing under
``src/`` changes.

Spans stay in memory until the run ends; ``write_jsonl`` writes them out
and ``layer_metrics`` turns them into per-layer self times, call counts
and work counts.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, function) -> layer.  Each layer reports <layer>_s (self time)
# and <layer>_calls; the cli layer reports cli.self_s and cli.calls.
SPANS = {
    ("dataset", "pairwise_dissimilarity"): "dataset.pairwise",
    ("dataset", "read_table"): "dataset.read",
    ("dataset", "load_dataset"): "dataset.read",
    ("kernels", "pairwise_sq_dists"): "kernels.pairwise",
    ("kernels", "cross_sq_dists"): "kernels.cross",
    ("kernels", "assign_nearest"): "kernels.assign",
    ("markov", "default_epsilon"): "markov.epsilon",
    ("markov", "build_transition"): "markov.transition",
    ("spectral", "decompose"): "spectral.decompose",
    ("spectral", "embed"): "spectral.embed",
    ("nystrom", "extend_embedding"): "nystrom.extend",
    ("regression", "basis_risk_curve"): "regression.cv",
    ("regression", "fit"): "regression.fit",
    ("regression", "predict"): "regression.predict",
    ("prototypes", "diffusion_kmeans"): "prototypes.kmeans",
    ("prototypes", "grid_prototypes"): "prototypes.grid",
    ("prototypes", "fit_mixture"): "prototypes.fit",
    ("synthetic", "generate"): "synthetic.generate",
    ("cli", "main"): "cli",
}

# Called tens of thousands of times per mixture fit: counted, not spanned,
# so their time stays in the calling fit_mixture span.
COUNTED = {
    ("prototypes", "project_to_simplex"): "prototypes.solver_steps",
}

LAYERS = sorted(set(SPANS.values()))

# Work counts summed over spans; kernels.flops and kernels.bytes are
# computed from argument shapes (3 flops per coordinate per distance,
# 8 bytes per float64 read or written), not measured.
COUNTS = {
    "kernels.flops": "flop",
    "kernels.bytes": "B",
    "markov.kernel_nonzero": "count",
    "markov.kernel_entries": "count",
    "spectral.pairs_computed": "count",
    "spectral.pairs_used": "count",
    "nystrom.points": "count",
    "regression.lstsq_solves": "count",
    "prototypes.lloyd_iters": "count",
    "prototypes.solver_steps": "count",
    "prototypes.fit_fail": "count",
    "cli.model_bytes": "B",
    "cli.output_bytes": "B",
}


def _time_metric(layer):
    return "cli.self_s" if layer == "cli" else f"{layer}_s"


def _calls_metric(layer):
    return "cli.calls" if layer == "cli" else f"{layer}_calls"


def _per_layer_units():
    units = {}
    for layer in LAYERS:
        units[_time_metric(layer)] = "s"
        units[_calls_metric(layer)] = "count"
    for name, unit in COUNTS.items():
        if name not in ("markov.kernel_nonzero", "markov.kernel_entries"):
            units[name] = unit
    units.update({
        "markov.kernel_nonzero_frac": "ratio",
        "spectral.pairs_used_ratio": "ratio",
        "regression.p_selected": "count",
        "trace.spans": "count",
        "trace.overhead_s": "s",
    })
    return units


# Every metric a traced run prints, with its unit.
PER_LAYER_UNITS = _per_layer_units()


def _shape_counts(float_reads, float_writes, distances, d):
    return {"kernels.flops": 3 * d * distances,
            "kernels.bytes": 8 * (float_reads + float_writes)}


def _count_pairwise(args, kwargs, result):
    n, d = args[0].shape
    return _shape_counts(n * d, n * n, n * (n - 1) // 2, d)


def _count_cross(args, kwargs, result):
    (m, d), n = args[0].shape, args[1].shape[0]
    return _shape_counts((m + n) * d, m * n, m * n, d)


def _count_assign(args, kwargs, result):
    (n, d), k = args[0].shape, args[1].shape[0]
    return _shape_counts((n + k) * d, 2 * n, n * k, d)


def _count_transition(args, kwargs, result):
    return {"markov.kernel_nonzero": int(np.count_nonzero(result.matrix)),
            "markov.kernel_entries": int(result.matrix.size)}


def _count_cv(args, kwargs, result):
    folds = args[2] if len(args) > 2 else kwargs["folds"]
    return {"regression.lstsq_solves": args[0].shape[1] * folds}


def _path_bytes(path):
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.exists() else 0


def _count_cli(args, kwargs, result):
    """Bytes of the model and output files named on the command line."""
    argv = list(args[0] if args else kwargs["argv"])
    flags = dict(zip(argv[1::2], argv[2::2])) if argv else {}
    model = sum(_path_bytes(flags[f]) for f in ("--out-model", "--save-model") if f in flags)
    output = sum(_path_bytes(flags[f]) + _path_bytes(flags[f] + ".meta.json")
                 for f in ("--out", "--out-predictions") if f in flags)
    return {"cli.model_bytes": model, "cli.output_bytes": output}


COUNTERS = {
    "kernels.pairwise": _count_pairwise,
    "kernels.cross": _count_cross,
    "kernels.assign": _count_assign,
    "markov.transition": _count_transition,
    "spectral.decompose": lambda a, k, r: {"spectral.pairs_computed": int(r.eigenvalues.size)},
    "spectral.embed": lambda a, k, r: {"spectral.pairs_used": int(r.r)},
    "nystrom.extend": lambda a, k, r: {"nystrom.points": int(r.shape[0])},
    "regression.cv": _count_cv,
    "regression.fit": lambda a, k, r: {"regression.p_selected": int(r.p)},
    "prototypes.kmeans": lambda a, k, r: {"prototypes.lloyd_iters": len(r.wcss_history)},
    "cli": _count_cli,
}


class Tracer:
    """Collects spans while ``enabled``; installed wrappers stay cheap when off."""

    def __init__(self, sca_package):
        self.sca = sca_package
        self.enabled = False
        self.op = "setup"
        self.spans = []          # (name, layer, parent, op, start, end, counts, error)
        self.counters = {name: 0 for name in COUNTED.values()}
        self._stack = []
        self._patched = []       # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "sca" or name.startswith("sca."))]

    def _patch(self, module_name, func_name, wrapper_factory):
        original = getattr(getattr(self.sca, module_name), func_name)
        wrapper = wrapper_factory(original)
        for mod in self._modules():
            if getattr(mod, func_name, None) is original:
                self._patched.append((mod, func_name, original))
                setattr(mod, func_name, wrapper)

    def install(self):
        for (module_name, func_name), layer in SPANS.items():
            self._patch(module_name, func_name,
                        lambda fn, n=f"{module_name}.{func_name}", l=layer: self._span_wrapper(fn, n, l))
        for (module_name, func_name), counter in COUNTED.items():
            self._patch(module_name, func_name,
                        lambda fn, c=counter: self._count_wrapper(fn, c))

    def uninstall(self):
        for mod, func_name, original in reversed(self._patched):
            setattr(mod, func_name, original)
        self._patched.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, layer):
        count = COUNTERS.get(layer)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = {}
                if error is None and count is not None:
                    counts = count(args, kwargs, result)
                elif error == "NumericalError" and layer == "prototypes.fit":
                    counts = {"prototypes.fit_fail": 1}
                self.spans[index] = (name, layer, parent, self.op, start, end, counts, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count_wrapper(self, fn, counter):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- output -----------------------------------------------------------

    def _self_times(self):
        child = [0.0] * len(self.spans)
        for name, layer, parent, op, start, end, counts, error in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [span[5] - span[4] - child[i] for i, span in enumerate(self.spans)]

    def write_jsonl(self, path):
        self_times = self._self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, parent, op, start, end, counts, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name, "layer": layer,
                    "start": start, "end": end, "self": self_times[i],
                    "counts": counts, "error": error,
                }, sort_keys=True) + "\n")

    def layer_metrics(self):
        """Per-layer self time and calls, plus summed work counts."""
        out = {name: 0.0 for name, unit in PER_LAYER_UNITS.items() if unit == "s"}
        out.update({name: 0 for name, unit in PER_LAYER_UNITS.items() if unit != "s"})
        totals = {name: 0 for name in COUNTS}
        totals.update(self.counters)
        p_selected = 0
        for span, self_time in zip(self.spans, self._self_times()):
            layer, counts = span[1], span[6]
            out[_time_metric(layer)] += self_time
            out[_calls_metric(layer)] += 1
            for key, value in counts.items():
                if key == "regression.p_selected":
                    p_selected = value   # the last traced fit's choice
                else:
                    totals[key] += value
        nonzero = totals.pop("markov.kernel_nonzero")
        entries = totals.pop("markov.kernel_entries")
        out.update(totals)
        out["markov.kernel_nonzero_frac"] = nonzero / entries if entries else 0.0
        pairs = out["spectral.pairs_computed"]
        out["spectral.pairs_used_ratio"] = out["spectral.pairs_used"] / pairs if pairs else 0.0
        out["regression.p_selected"] = p_selected
        out["trace.spans"] = len(self.spans)
        return out
