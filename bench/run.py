"""Benchmark of bmland's census, sweep and metric products.

    python3 bench/run.py --workload census-r2 --seed 1 --seconds 28 --trace 0

Run from the repository root; bmland is imported from ``src/`` of the same
checkout. The run warms up on a short iteration budget, then makes
operations until about ``--seconds`` have passed, checking every product.
Before each operation it builds the workload's inputs from ``--seed``
several times, to time set-up. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones. With ``--trace 1`` operation 0 is repeated, alternately
untraced and traced, and the metrics are the per-layer ones plus the
tracing overhead. Full results, including the environment and a digest of
the products, go to ``bench/results/``; spans of a traced run go to
``bench/results/spans-<workload>.json.gz``.
"""

import os

# The product's own pool uses THREADS workers; one BLAS thread each keeps the
# pool from oversubscribing the cores. Must precede the first numpy import.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 20  # per operation, so set-up is sampled across the run

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "converged_frac": "ratio"}
PRODUCT_UNITS = {"census.spurious_found": "count", "metric.ambiguity_bound": "1"}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.spans": "count"}


def import_bmland():
    """Import bmland from this checkout's src/, never from elsewhere."""
    if not (SRC / "bmland" / "__init__.py").is_file():
        raise ImportError(f"no bmland package under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import bmland

    if Path(bmland.__file__).resolve().parent != SRC / "bmland":
        raise ImportError(f"bmland imported from {bmland.__file__}, not {SRC}")
    return bmland


def openblas_info() -> list:
    """Version string and thread count of each OpenBLAS loaded in-process."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return []
    queries = [
        (key, restype, [p + stem + x for p in ("scipy_openblas_", "openblas_") for x in ("64_", "")])
        for key, stem, restype in (
            ("config", "get_config", ctypes.c_char_p),
            ("num_threads", "get_num_threads", ctypes.c_int),
        )
    ]
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"lib": Path(path).name}
        for key, restype, symbols in queries:
            fn = next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)
            if fn is not None:
                fn.restype = restype
                value = fn()
                entry[key] = value.decode() if isinstance(value, bytes) else value
        out.append(entry)
    return out


def environment(bmland, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "bmland": bmland.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "openblas": openblas_info(),
    }


def run_op(workload, inputs, k, probe, tracer=None):
    """One operation: (wall seconds, product or None, failures, spans, starts, converged)."""
    spans = []
    product, failures = None, []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            spans = stack.enter_context(tracer.installed())
        stack.enter_context(probe.installed())
        start = time.perf_counter()
        try:
            product = workload.run(inputs, k)
        except Exception:
            traceback.print_exc()
            failures.append("operation raised")
        wall = time.perf_counter() - start
    if product is not None:
        failures = workload.check(inputs, product)
    return wall, product, failures, spans, probe.starts, probe.converged


def set_up(workload, seed, times):
    """Build the inputs SETUP_REPEATS times, adding each build's time to ``times``."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - start)
    return inputs


def measure(workload, seed, seconds, tracer, threads, setup_times) -> list[dict]:
    """Make operations until about ``seconds`` have passed, building the
    inputs afresh (and timing that) before each one.

    With a tracer, every operation repeats operation 0's inputs, alternately
    untraced and traced: each traced operation has an untraced twin, which
    gives the tracing overhead, and per-layer counts repeat exactly for a
    seed.
    """
    import tracing

    probe = tracing.StatusProbe()
    per_round = 2 if tracer else 1
    min_ops = 2 * per_round if tracer else 3
    ops = []
    begin = time.perf_counter()
    while True:
        k = 0 if tracer else len(ops)
        traced = tracer is not None and len(ops) % 2 == 1
        inputs = set_up(workload, seed, setup_times)
        wall, product, failures, spans, starts, converged = run_op(
            workload, inputs, k, probe, tracer if traced else None
        )
        op = {
            "k": k, "traced": traced, "wall_s": wall, "failures": failures,
            "starts": starts, "converged": converged,
            "digest": workload.digest(product) if product is not None else None,
            "product": workload.product_metrics(product) if product is not None else {},
        }
        if tracer is not None and ops and op["digest"] != ops[0]["digest"]:
            op["failures"].append("product differs from operation 0's on the same inputs")
        if traced:
            op["layers"] = tracing.layer_metrics(spans, threads)
            op["spans"] = spans
        ops.append(op)
        elapsed = time.perf_counter() - begin
        if len(ops) >= min_ops and len(ops) % per_round == 0 and elapsed + wall * per_round > seconds:
            return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bmland = import_bmland()
    except ImportError as exc:
        print(f"bench: cannot import bmland: {exc}", file=sys.stderr)
        return 2
    # The benchmark's own modules import bmland, so they load after it.
    import tracing
    from workloads import THREADS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    setup_times = []
    workload.warm(set_up(workload, args.seed, setup_times))

    tracer = tracing.Tracer() if args.trace else None
    ops = measure(workload, args.seed, args.seconds, tracer, THREADS, setup_times)

    failed = sum(1 for op in ops if op["failures"])
    for i, op in enumerate(ops):
        for failure in op["failures"]:
            print(f"bench: operation {i} failed: {failure}", file=sys.stderr)

    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    starts = sum(op["starts"] for op in ops)
    e2e = {
        "wall_s": statistics.median(untraced),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": sum(op["converged"] for op in ops) / starts if starts else 0.0,
    }
    layers = {}
    if tracer:
        traced_ops = [op for op in ops if op["traced"]]
        for name in tracing.LAYER_UNITS:
            layers[name] = statistics.fmean(op["layers"][name] for op in traced_ops)
        for name in PRODUCT_UNITS:
            layers[name] = statistics.fmean(op["product"].get(name, 0.0) for op in ops)
        # Each traced operation follows an untraced one on the same inputs;
        # pairing them cancels most of the machine's slow speed drift.
        pairs = [(ops[i - 1]["wall_s"], ops[i]["wall_s"]) for i in range(1, len(ops), 2)]
        layers["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        layers["trace.overhead_share"] = statistics.median(t / u - 1.0 for u, t in pairs)
        layers["trace.spans"] = statistics.fmean(len(op["spans"]) for op in traced_ops)

    env = environment(bmland, THREADS)
    digest = {"workload": args.workload, "seed": args.seed, "op0": ops[0]["digest"]}
    RESULTS.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "env": env, "digest": digest, "setup_s": setup_times,
        "ops": [{key: op[key] for key in op if key not in ("layers", "spans")} for op in ops],
        "end_to_end": e2e, "per_layer": layers,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer:
        rows = [
            [i, s.sid, s.name, s.parent, s.thread, s.start, s.end]
            for i, op in enumerate(ops) if op["traced"] for s in op["spans"]
        ]
        with gzip.open(RESULTS / f"spans-{args.workload}.json.gz", "wt", compresslevel=1) as f:
            json.dump({"columns": ["op", "id", "name", "parent", "thread", "start", "end"],
                       "spans": rows}, f)

    units = {**TRACE_UNITS, **PRODUCT_UNITS, **tracing.LAYER_UNITS} if tracer else E2E_UNITS
    values = layers if tracer else e2e
    print(json.dumps({"env": env}))
    print(json.dumps({"digest": digest}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
