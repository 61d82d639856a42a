"""Layer spans and counters, recorded from outside the bmland package.

bmland's modules look names up in their own globals at call time, so
replacing ``bmland.census.canonicalize`` (say) with a wrapper makes every
call the census makes to it pass through the wrapper, and nothing else
changes. ``Tracer.installed`` does that for the names in ``TRACED`` for the
duration of one operation; each wrapped call records a span (name, start,
end, parent span, thread id, plus a small info value) in memory.
``layer_metrics`` turns one operation's spans into the per-layer numbers.

``StatusProbe`` is the one hook the untraced runs keep: it counts the
descent verdicts that ``run_batch_chunked`` returns, once per call, so the
end-to-end converged share is known without tracing.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from typing import Any, NamedTuple

import numpy as np

import bmland
import bmland.census
import bmland.landscape
import bmland.metric
import bmland.optimize


class Span(NamedTuple):
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    info: Any


def _kernel_info(kind):
    def info(args, kwargs, result, ok):
        x = np.shape(args[2] if len(args) > 2 else kwargs["X"])
        n, r = (x[-2], x[-1]) if len(x) >= 2 else (x[0], 1)
        return (kind, math.prod(x[:-2]), n, r)
    return info


def _descent_outcome(result):
    """(iters, status) of a run_batch_chunked result, tuple or record."""
    if hasattr(result, "status"):
        return result.iters, result.status
    return result[3], result[4]


def _status_counts(status) -> Counter:
    return Counter(getattr(s, "value", s) for s in status)


def _descent_info(args, kwargs, result, ok):
    if not ok:
        return None
    iters, status = _descent_outcome(result)
    iters = np.asarray(iters)
    converged = np.array([getattr(s, "value", s) == "Converged" for s in status], dtype=bool)
    return {
        "iters": int(iters.sum()),
        "tail_iters": int(iters[~converged].sum()),
        "status": _status_counts(status),
    }


def _refine_info(args, kwargs, result, ok):
    return ok


def _canonical_info(args, kwargs, result, ok):
    return result if ok else None


# (module, attribute, span name, info). An attribute that this version of
# bmland lacks is skipped, so its layer reads as not reached.
TRACED = (
    (bmland, "multistart_census", "census", None),
    (bmland, "success_rate_experiment", "sweep", None),
    (bmland, "estimate_complexity_metric", "metric", None),
    (bmland.census, "run_batch_chunked", "descent", _descent_info),
    (bmland.metric, "run_batch_chunked", "descent", _descent_info),
    (bmland.optimize, "gradient_descent_batch", "chunk", None),
    (bmland.optimize, "gradient", "kernel", _kernel_info("gradient")),
    (bmland.optimize, "objective", "kernel", _kernel_info("objective")),
    (bmland.census, "gradient", "kernel", _kernel_info("gradient")),
    (bmland.census, "objective", "kernel", _kernel_info("objective")),
    (bmland.census, "canonicalize", "canonicalize", None),
    (bmland.optimize, "canonicalize", "canonicalize", None),
    (bmland.metric, "canonicalize", "canonicalize", _canonical_info),
    (bmland.census, "newton_refine", "refine", _refine_info),
    (bmland.metric, "newton_refine", "refine", _refine_info),
    (bmland.census, "classify_critical_point", "classify", None),
    (bmland.census, "min_hessian_eigen", "hessian", None),
    (bmland.optimize, "min_hessian_eigen", "hessian", None),
    (bmland.optimize, "dense_hessian", "hessian", None),
    (bmland.landscape, "dense_hessian", "hessian", None),
)


@contextlib.contextmanager
def _patched(targets, make_wrapper):
    saved = []
    try:
        for module, attr, *rest in targets:
            fn = getattr(module, attr, None)
            if callable(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, make_wrapper(fn, *rest))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class StatusProbe:
    """Counts descent starts and converged starts per operation."""

    TARGETS = ((bmland.census, "run_batch_chunked"), (bmland.metric, "run_batch_chunked"))

    def __init__(self):
        self.starts = 0
        self.converged = 0

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = _status_counts(_descent_outcome(result)[1])
            self.starts += sum(counts.values())
            self.converged += counts["Converged"]
            return result
        return wrapper

    def installed(self):
        self.starts = self.converged = 0
        return _patched(self.TARGETS, self._wrap)


class Tracer:
    """In-memory span recorder for the names in ``TRACED``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A pool thread starts with an empty stack; its caller is the
            # span the submitting (main) thread is blocked in.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(ids)
            stack.append(sid)
            ok, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, parent, threading.get_ident(), start, end,
                                  info(args, kwargs, result, ok) if info else None))
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace one operation; yields the list its spans are appended to."""
        self.spans = []
        self._main_stack = self._stack()
        with _patched(TRACED, self._wrap):
            yield self.spans


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def kernel_cost(kind: str, b: int, n: int, r: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one dense kernel call on a (b, n, r) stack.

    The model is the dense formula: X X^T (2bn^2r), the masked residual
    (2bn^2), then either the squared sum (2bn^2) or R X (2bn^2r + bnr).
    Bytes count 8-byte words: X read, two (b, n, n) temporaries each
    written and read once, the result written. They are not measured
    memory traffic.
    """
    if kind == "gradient":
        return b * (4 * n * n * r + 2 * n * n + n * r), 8 * b * (3 * n * r + 4 * n * n)
    return b * (2 * n * n * r + 4 * n * n), 8 * b * (n * r + 4 * n * n + 1)


LAYER_UNITS = {
    "landscape.kernel_s": "s",
    "landscape.kernel_calls": "count",
    "landscape.kernel_evals": "count",
    "landscape.kernel_us_per_eval": "us",
    "landscape.kernel_flops_computed": "flop",
    "landscape.kernel_bytes_computed": "B",
    "landscape.canonicalize_s": "s",
    "landscape.canonicalize_calls": "count",
    "landscape.hessian_s": "s",
    "optimize.descent_s": "s",
    "optimize.sample_iters": "count",
    "optimize.sample_iters_per_s": "1/s",
    "optimize.loop_overhead_s": "s",
    "optimize.tail_iter_share": "ratio",
    "optimize.status.converged": "count",
    "optimize.status.max_iters": "count",
    "optimize.status.diverged": "count",
    "optimize.chunks": "count",
    "optimize.chunk_s_max": "s",
    "optimize.parallel_efficiency": "ratio",
    "optimize.refine_s": "s",
    "optimize.refine_calls": "count",
    "optimize.refine_failed": "count",
    "optimize.refine_ok_ratio": "ratio",
    "optimize.classify_s": "s",
    "optimize.classify_calls": "count",
    "census.self_s": "s",
    "census.converged_endpoints": "count",
    "census.coarse_groups": "count",
    "metric.endpoint_s": "s",
    "metric.pair_s": "s",
    "metric.candidates": "count",
    "metric.pairs": "count",
    "metric.s_per_pair": "s",
}


def layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer numbers of one traced operation. Times are summed over
    threads; a layer the operation never reached reads 0."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    names = {s.sid: s.name for s in spans}
    parents = {s.sid: s.parent for s in spans}

    def dur(group):
        return sum(s.end - s.start for s in group)

    def covered(s):
        return _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]
        )

    def under(s, name):
        p = s.parent
        while p is not None:
            if names.get(p) == name:
                return True
            p = parents.get(p)
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    m = dict.fromkeys(LAYER_UNITS, 0.0)

    kernel = by_name["kernel"]
    flops = bytes_ = evals = 0
    for s in kernel:
        kind, b, n, r = s.info
        f, nb = kernel_cost(kind, b, n, r)
        flops, bytes_, evals = flops + f, bytes_ + nb, evals + b
    m["landscape.kernel_s"] = dur(kernel)
    m["landscape.kernel_calls"] = len(kernel)
    m["landscape.kernel_evals"] = evals
    m["landscape.kernel_us_per_eval"] = 1e6 * ratio(dur(kernel), evals)
    m["landscape.kernel_flops_computed"] = flops
    m["landscape.kernel_bytes_computed"] = bytes_

    m["landscape.canonicalize_s"] = dur(by_name["canonicalize"])
    m["landscape.canonicalize_calls"] = len(by_name["canonicalize"])
    m["landscape.hessian_s"] = dur(s for s in by_name["hessian"] if not under(s, "hessian"))

    descent = [s for s in by_name["descent"] if s.info is not None]
    status = sum((s.info["status"] for s in descent), Counter())
    iters = sum(s.info["iters"] for s in descent)
    m["optimize.descent_s"] = dur(descent)
    m["optimize.sample_iters"] = iters
    m["optimize.sample_iters_per_s"] = ratio(iters, dur(descent))
    m["optimize.tail_iter_share"] = ratio(sum(s.info["tail_iters"] for s in descent), iters)
    m["optimize.status.converged"] = status["Converged"]
    m["optimize.status.max_iters"] = status["MaxIters"]
    m["optimize.status.diverged"] = status["Diverged"]

    chunks = by_name["chunk"]
    m["optimize.chunks"] = len(chunks)
    m["optimize.chunk_s_max"] = max((s.end - s.start for s in chunks), default=0.0)
    m["optimize.parallel_efficiency"] = ratio(dur(chunks), threads * dur(descent))
    m["optimize.loop_overhead_s"] = sum(s.end - s.start - covered(s) for s in chunks)

    refine = by_name["refine"]
    failed = sum(1 for s in refine if not s.info)
    m["optimize.refine_s"] = dur(refine)
    m["optimize.refine_calls"] = len(refine)
    m["optimize.refine_failed"] = failed
    m["optimize.refine_ok_ratio"] = ratio(len(refine) - failed, len(refine))
    m["optimize.classify_s"] = dur(by_name["classify"])
    m["optimize.classify_calls"] = len(by_name["classify"])

    census_ids = {s.sid for s in by_name["census"]}
    m["census.self_s"] = sum(s.end - s.start - covered(s) for s in by_name["census"])
    m["census.converged_endpoints"] = sum(
        s.info["status"]["Converged"] for s in descent if s.parent in census_ids
    )
    m["census.coarse_groups"] = sum(1 for s in refine if s.parent in census_ids)

    metric = by_name["metric"]
    metric_ids = {s.sid for s in metric}
    radius = getattr(bmland.metric, "PAIR_DEDUP_RADIUS", 1e-4)
    reps: list[np.ndarray] = []
    for s in by_name["canonicalize"]:
        if s.parent in metric_ids and s.info is not None:
            if all(np.linalg.norm(s.info - rep) > radius for rep in reps):
                reps.append(s.info)
    pairs = len(reps) * (len(reps) - 1) // 2
    pair_s = sum(s.end - s.start - covered(s) for s in metric)
    m["metric.endpoint_s"] = sum(covered(s) for s in metric)
    m["metric.pair_s"] = pair_s
    m["metric.candidates"] = len(reps)
    m["metric.pairs"] = pairs
    m["metric.s_per_pair"] = ratio(pair_s, pairs)
    return m
