"""Benchmark of the ``sca`` library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload roll-regress --seed 1 --seconds 30 --trace 0

Workloads: roll-regress, library-quantize, cli-roundtrip (see
``workloads.py`` and ``README.md``).  The default seed is 1; seed 2 is
kept for confirming claims.

A run sets up its inputs several times (``setup_s`` is the median), then
runs passes (train, then every op) while the next should end within
``--seconds``, then checks the outputs.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it records spans around every ``sca`` layer
during one set-up and one pass, and prints the per-layer metrics derived
from them.  The last line of standard output is one JSON object; the full
results, with the machine they were measured on, go to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time

START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEFAULT_SEED = 1
CONFIRM_SEED = 2
SETUP_REPS = 3
# One BLAS thread: on a 2-core machine shared with other work, a second
# BLAS thread makes eigensolver times vary about 3x more between repeats.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics printed by an untraced run, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "workload_s": "s",
    "train_s": "s",
    "answers_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}


def import_sca():
    """Import ``sca`` from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sca", "__init__.py")):
        raise SystemExit(f"error: no sca package under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    sca = importlib.import_module("sca")
    importlib.import_module("sca.cli")
    if not os.path.abspath(sca.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported sca from {sca.__file__}, not from {src}")
    return sca


def _blas_threads():
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(sca, np):
    """The machine and software the numbers were measured on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "memory_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "kernels_backend": sca.kernels.backend_name(),
    }


class Run:
    """One benchmark run: set-up, timed passes, checks."""

    def __init__(self, sca, workload_cls, seed, smoke, tracer):
        self.sca, self.cls, self.seed, self.tracer = sca, workload_cls, seed, tracer
        self.sizes = workload_cls.SMOKE if smoke else workload_cls.FULL
        self.attempted = self.failed = 0
        self.errors = []
        self.passes = []        # {"traced", "pass_s", "train_s", "ops": [...], "answers"}

    def _guarded(self, fn):
        """Run one user-visible call; a library error counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except (self.sca.NumericalError, self.sca.ValidationError, RuntimeError) as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def _workdir(self, name):
        return os.path.join(OUT_DIR, "work", name)

    def set_up(self, workloads):
        """Generate inputs and warm up: one smoke-size pass of every workload.

        The warm-up runs every code path once before timing, and gives the
        traced run a span in every layer.
        """
        for cls in workloads:
            warm = cls(self.sca, cls.SMOKE, self.seed, self._workdir(f"warmup-{cls.name}"))
            warm.train()
            for op in warm.ops():
                op()
            warm.close()
        return self.cls(self.sca, self.sizes, self.seed, self._workdir(self.cls.name))

    def run_pass(self, workload, traced):
        if self.tracer is not None:
            self.tracer.enabled = traced
        n = len(self.passes)
        op_times, answers = [], 0
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.op = f"pass{n}/train"
        self._guarded(workload.train)
        train_s = time.perf_counter() - start
        for k, op in enumerate(workload.ops()):
            if self.tracer is not None:
                self.tracer.op = f"pass{n}/op{k}"
            t0 = time.perf_counter()
            answers += self._guarded(op) or 0
            op_times.append(time.perf_counter() - t0)
        pass_s = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.enabled = False
        train_times = [train_s]
        for _ in range(workload.train_repeats):
            t0 = time.perf_counter()
            self._guarded(workload.train)
            train_times.append(time.perf_counter() - t0)
        self.passes.append({"traced": traced, "pass_s": pass_s, "train_s": train_times,
                            "ops": op_times, "answers": answers})

    def rerun(self, workload):
        """One more pass, untimed, for the determinism check."""
        self._guarded(workload.train)
        for op in workload.ops():
            self._guarded(op)


def e2e_metrics(run, setup_s):
    """End-to-end metrics from the untraced passes: medians over repeats."""
    import numpy as np
    passes = [p for p in run.passes if not p["traced"]]
    ops = [t for p in passes for t in p["ops"]]
    q = run.cls.tail_percentile
    values = {
        "setup_s": setup_s,
        "workload_s": statistics.median(p["pass_s"] for p in passes),
        "train_s": statistics.median(t for p in passes for t in p["train_s"]),
        "answers_per_s": sum(p["answers"] for p in passes) / sum(ops),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": float(np.percentile(ops, q)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "passes": len(passes),
        "ops": len(ops),
        "tail_percentile": q,
        "ops_beyond_tail": sum(t > values["op_s.tail"] for t in ops),
    }
    return values, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["roll-regress", "library-quantize", "cli-roundtrip"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {CONFIRM_SEED} is kept "
                             "for confirming claims)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to run timed passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for name in BLAS_THREAD_ENV:
        os.environ[name] = "1"
    import numpy as np
    sca = import_sca()
    import_s = time.perf_counter() - START
    from workloads import WORKLOADS
    from tracing import PER_LAYER_UNITS, Tracer

    tracer = None
    if args.trace:
        tracer = Tracer(sca)
        tracer.install()
    run = Run(sca, WORKLOADS[args.workload], args.seed, args.smoke, tracer)
    all_workloads = list(WORKLOADS.values())

    setup_times = []
    for rep in range(SETUP_REPS):
        if tracer is not None:
            tracer.enabled = rep == 0
            tracer.op = "setup"
        t0 = time.perf_counter()
        workload = run.set_up(all_workloads)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
    setup_s = import_s + statistics.median(setup_times)

    # Passes while the next one should end before the time is up.  A traced
    # run makes its second pass traced, for the spans and the overhead.
    deadline = time.perf_counter() + args.seconds
    needed = 1 if tracer is None else 2
    while len(run.passes) < needed or (
            time.perf_counter() + min(p["pass_s"] for p in run.passes) <= deadline):
        run.run_pass(workload, traced=tracer is not None and len(run.passes) == 1)

    if tracer is not None:
        tracer.uninstall()
    checks = workload.checks(lambda: run.rerun(workload))
    for check in checks:
        run.attempted += 1
        run.failed += not check["ok"]
    quality = workload.quality()
    workload.close()

    e2e, samples = e2e_metrics(run, setup_s)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "sizes": run.sizes,
        "machine": machine(sca, np),
        "setup": {"import_s": import_s, "reps_s": setup_times},
        "end_to_end": e2e, "samples": samples,
        "fail_ratio": run.failed / run.attempted,
        "quality": quality,
        "checks": checks, "errors": run.errors[:20],
        "passes": run.passes,
    }
    if tracer is not None:
        layer = tracer.layer_metrics()
        traced = [p["pass_s"] for p in run.passes if p["traced"]]
        layer["trace.overhead_s"] = traced[0] - e2e["workload_s"]
        results["per_layer"] = layer
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.jsonl"))
        units, metrics = PER_LAYER_UNITS, layer
    else:
        units, metrics = E2E_UNITS, e2e
    os.makedirs(OUT_DIR, exist_ok=True)
    results_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for check in checks:
        print(f"check {check['name']:<26} {'ok' if check['ok'] else 'FAILED'}  {check['detail']}")
    print(f"{'fail_ratio':<34} {run.failed}/{run.attempted} ratio")
    for name, (value, unit) in quality.items():
        print(f"{name:<34} {value:.6g} {unit}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:.6g} {unit}")
    print(f"samples: {samples}; results: {os.path.relpath(results_path)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
