"""Gradient descent on the factorized objective, radial initialization,
Newton refinement, and critical-point classification.

``descend_batch`` is the one descent loop: it advances a stack of independent
iterates of any batched value-and-gradient function, and both the factorized
objective (``gradient_descent_batch``, through ``value_and_gradient``'s
arithmetic) and the metric's pair penalty run through it. Each step makes one
fused call on the samples still running; the loop keeps its per-sample
counters as iteration stamps, so that a step writes only the counters it
resets, and a rejected step copies back only the rejected rows. One stack may
hold the starts of several instances over one Omega, each start with its own
target and tolerances. ``run_batch_chunked`` splits a large stack into chunks
and runs them in forked worker processes; a chunk's rows are capped so that
one (rows, n, d) temporary of the kernel, d the width of Omega's row lists,
stays within a fixed byte budget. Per-sample arithmetic is identical
regardless of how the stack is chunked or what else it holds, which keeps
experiment outputs bit-stable under any number of workers.

The second-order layer works on stacks too: ``newton_refine`` polishes a
stack of near-critical points with damped saddle-free Newton steps, and
``classify_critical_point`` judges a stack; both take their Hessians from
``dense_hessian`` in chunks of at most ``CHUNK_BUDGET_BYTES``, each with one
batched ``eigh``.
"""

from __future__ import annotations

import enum
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DimensionMismatch, NotNearCritical
from .instances import McInstance
from .landscape import (
    LossSpec,
    _check_shape,
    _min_eigen,
    _value_and_gradient,
    canonicalize,
    dense_hessian,
    value_and_gradient,
)

STEP_GROWTH = 1.5
STEP_GROWTH_EVERY = 20
STEP_GROWTH_CAP = 4096.0
STALL_LIMIT = 500
# Rows of one chunk of a chunked descent, and the bytes one (rows, n, d)
# float temporary of its descent may take, d the width of Omega's row lists.
CHUNK_ROWS = 4096
CHUNK_BUDGET_BYTES = 64 * 2**20
# The fewest rows a chunk is cut to for the sake of parallelism. A descent of
# 256 starts over one step took 32 ms on a two-worker fork pool against 0.5 ms
# in-process (2-core x86 VM), so a chunk must carry enough work to pay for it.
MIN_CHUNK_ROWS = 128
# The stacked Newton polish: its most steps, its initial damping, and the
# relative rise of f that counts as roundoff.
REFINE_STEPS = 100
REFINE_DAMPING = 1e-3
REFINE_ROUNDOFF = 1e-14


class Status(str, enum.Enum):
    CONVERGED = "Converged"
    # The value stopped decreasing for STALL_LIMIT steps before grad_tol.
    STALLED = "Stalled"
    MAX_ITERS = "MaxIters"
    DIVERGED = "Diverged"


class Classification(str, enum.Enum):
    GLOBAL_MIN = "GlobalMin"
    SPURIOUS_LOCAL_MIN = "SpuriousLocalMin"
    STRICT_SADDLE = "StrictSaddle"
    DEGENERATE = "Degenerate"
    NOT_CRITICAL = "NotCritical"


@dataclass(frozen=True)
class GdConfig:
    """step/grad_tol/divergence_bound of None are resolved per instance; a
    given value must be positive."""

    step: float | None = None
    max_iters: int = 200_000
    grad_tol: float | None = None
    divergence_bound: float | None = None

    def __post_init__(self):
        for name in ("step", "grad_tol", "divergence_bound"):
            value = getattr(self, name)
            # Written so that NaN fails too.
            if value is not None and not value > 0:
                raise DimensionMismatch(f"{name} must be positive, got {value!r}")
        if self.max_iters < 1:
            raise DimensionMismatch("max_iters must be >= 1")

    def resolved(self, inst: McInstance) -> "GdConfig":
        scale = inst.omega_scale()
        grad_tol = self.grad_tol if self.grad_tol is not None else 1e-9 * (1.0 + scale)
        bound = (
            self.divergence_bound
            if self.divergence_bound is not None
            else 10.0 * (1.0 + float(np.linalg.norm(inst.x_star)))
        )
        return replace(self, grad_tol=grad_tol, divergence_bound=bound)


@dataclass
class RunResult:
    final_point: np.ndarray
    final_objective: float
    final_grad_norm: float
    iterations: int
    status: Status


def sample_radial_init(
    dist: str, n: int, r: int, seed: int, sigma: float = 1.0, radius: float = 1.0, size: int | None = None
) -> np.ndarray:
    """Gaussian or uniform-ball initialization; deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    b = 1 if size is None else size
    # The checks are written so that NaN fails too.
    if dist == "gaussian":
        if not sigma > 0:
            raise DimensionMismatch(f"sigma must be positive, got {sigma!r}")
        out = sigma * rng.standard_normal((b, n, r))
    elif dist == "ball":
        if not radius > 0:
            raise DimensionMismatch(f"radius must be positive, got {radius!r}")
        direction = rng.standard_normal((b, n, r))
        direction /= np.linalg.norm(direction, axis=(1, 2), keepdims=True)
        u = rng.random((b, 1, 1))
        out = radius * u ** (1.0 / (n * r)) * direction
    else:
        raise DimensionMismatch(f"unknown init distribution {dist!r}")
    return out[0] if size is None else out


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("bij,bij->b", X, X)


def _auto_steps(scale, X0: np.ndarray) -> np.ndarray:
    """Per-sample step from a crude local smoothness bound at the start, with
    ``scale`` the ||M*_Omega|| of each start's instance (a scalar or (B,))."""
    return 0.25 / (4.0 * (scale + 3.0 * np.maximum(_sq_norms(X0), 1.0)))


@dataclass
class BatchResult:
    """Per-sample outcome of a batched descent, one entry per start."""

    points: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    iters: np.ndarray
    status: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        """Boolean mask of the starts that reached ``grad_tol``."""
        # By identity: ``status == Status.CONVERGED`` on an object array of a
        # str enum compares as all False.
        return np.array([s is Status.CONVERGED for s in self.status], dtype=bool)


def descend_batch(
    value_and_grad, X0: np.ndarray, steps0: np.ndarray, max_iters: int, grad_tol,
    divergence_bound,
) -> BatchResult:
    """Explicit-Euler gradient descent on a (B, n, k) stack of iterates, with
    per-sample initial steps, and per-sample ``grad_tol`` and
    ``divergence_bound`` (each a scalar or a (B,) array).
    ``value_and_grad(X, idx)`` returns the (b,) values and (b, n, k) gradients
    of a (b, n, k) working set whose input indices are ``idx``, as new arrays:
    the loop adopts them as its state and writes into them.

    The value is kept monotone per sample: a step that would increase it is
    rejected and the sample's step size halved; a sample's step grows by
    ``STEP_GROWTH`` after ``STEP_GROWTH_EVERY`` accepted steps, up to
    ``STEP_GROWTH_CAP`` times its initial step, so late linear convergence is
    not throttled by a conservative initial bound. Each step makes one
    ``value_and_grad`` call, on the samples still running: the working set is
    compacted whenever samples retire, and a retiring sample's result is
    written out then. A sample's result does not depend on the rest of the
    stack.

    A sample ends ``Converged`` at its ``grad_tol``, ``Diverged`` once an
    accepted step takes it past its bound, ``Stalled`` once its value has not
    decreased for ``STALL_LIMIT`` steps, and ``MaxIters`` when it runs out of
    iterations; ``iters`` is the number of steps it took.
    """
    B = X0.shape[0]
    points = np.empty_like(X0)
    values = np.empty(B)
    grad_norms = np.empty(B)
    iters = np.full(B, max_iters, dtype=int)
    status = np.empty(B, dtype=object)
    status[:] = Status.MAX_ITERS
    cap = STEP_GROWTH_CAP * steps0

    # The working set: input indices of the samples still running, and their
    # state. Its counters are stamps, the iteration that last reset each one,
    # so that a step writes only to the samples whose counter resets: after
    # the step of iteration it, it - grown_at steps have been accepted since
    # the step size last changed, and it - improved_at steps have passed
    # since the value last decreased.
    idx = np.arange(B)
    X = X0.copy()
    f, G = value_and_grad(X, idx)
    steps = steps0.copy()
    tol = np.full(B, grad_tol, dtype=float)
    bound = np.full(B, divergence_bound, dtype=float)
    grown_at = np.full(B, -1)
    improved_at = np.full(B, -1)

    def retire(out, taken):
        """Write out the samples flagged in ``out``, after ``taken`` steps, and
        drop them from the working set."""
        nonlocal idx, X, f, G, gn, steps, tol, bound, grown_at, improved_at
        d = idx[out]
        points[d], values[d], grad_norms[d], iters[d] = X[out], f[out], gn[out], taken
        keep = ~out
        idx, X, f, G, gn, steps, tol, bound, grown_at, improved_at = (
            a[keep] for a in (idx, X, f, G, gn, steps, tol, bound, grown_at, improved_at)
        )

    for it in range(max_iters):
        gn = np.sqrt(_sq_norms(G))
        done = gn <= tol
        if np.count_nonzero(done):
            status[idx[done]] = Status.CONVERGED
            retire(done, it)
        if idx.size == 0:
            break

        Xnew = steps[:, None, None] * G
        np.subtract(X, Xnew, out=Xnew)
        fnew, Gnew = value_and_grad(Xnew, idx)
        increased = fnew > f
        rejected = np.count_nonzero(increased)
        if rejected:
            # A rejected sample keeps its state: only its rows are copied.
            for new, old in ((Xnew, X), (fnew, f), (Gnew, G)):
                new[increased] = old[increased]
            np.multiply(steps, 0.5, out=steps, where=increased)
            np.copyto(grown_at, it, where=increased)
        # Once the value stops strictly decreasing for a long stretch, the
        # iterate sits at the resolution floor of double precision; further
        # iterations cannot reach grad_tol, so the sample is cut off early.
        np.copyto(improved_at, it, where=fnew < f)
        X, f, G = Xnew, fnew, Gnew
        stalled = improved_at <= it - STALL_LIMIT

        # A sample whose step was rejected has just reset grown_at.
        grow = grown_at <= it - STEP_GROWTH_EVERY
        if np.count_nonzero(grow):
            steps[grow] = np.minimum(steps[grow] * STEP_GROWTH, cap[idx[grow]])
            grown_at[grow] = it

        diverged = np.sqrt(_sq_norms(X)) > bound
        if rejected:
            diverged &= ~increased
        out = stalled | diverged
        if np.count_nonzero(out):
            # A stalled or diverged sample keeps the gradient norm measured
            # before its last step; one that is both counts as diverged.
            status[idx[stalled]] = Status.STALLED
            status[idx[diverged]] = Status.DIVERGED
            retire(out, it + 1)

    points[idx] = X
    values[idx] = f
    grad_norms[idx] = np.sqrt(_sq_norms(G))
    return BatchResult(points, values, grad_norms, iters, status)


def _stack(insts, X0):
    """(instances, flat start stack, instance index of each start) from one
    instance with a (B, n, r) stack, or from a sequence of instances over one
    Omega with a matching sequence of start blocks."""
    if isinstance(insts, McInstance):
        X0 = np.asarray(X0, dtype=float)
        insts, blocks = [insts], [X0[None] if X0.ndim == 2 else X0]
    else:
        insts, blocks = list(insts), [np.asarray(b, dtype=float) for b in X0]
        if not insts or len(blocks) != len(insts):
            raise DimensionMismatch(
                f"need one block of starts per instance, got {len(blocks)} for {len(insts)}"
            )
        first = insts[0]
        for inst in insts[1:]:
            if (inst.n, inst.r) != (first.n, first.r) or not (
                np.array_equal(inst.omega.cols, first.omega.cols)
                and np.array_equal(inst.omega.valid, first.omega.valid)
            ):
                raise DimensionMismatch("stacked instances must share n, r and Omega")
    X0 = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    group = np.repeat(np.arange(len(insts)), [len(b) for b in blocks])
    return insts, _check_shape(insts[0], X0), group


def gradient_descent_batch(insts, loss: LossSpec, X0, cfg: GdConfig) -> BatchResult:
    """``descend_batch`` on the factorized objective: of one instance with X0
    a (B, n, r) stack, or of a sequence of instances over one Omega with X0 a
    matching sequence of start blocks, returned flat, block after block.

    Each start takes its target, auto step, ``grad_tol`` and divergence bound
    from its own instance (``cfg.resolved``); the targets are kept as one
    (G, n, d) stack, in Omega's row-list layout, that the kernel gathers
    from by instance index."""
    insts, X0, group = _stack(insts, X0)
    cfgs = [cfg.resolved(inst) for inst in insts]
    if cfg.step is not None:
        steps0 = np.full(len(X0), cfg.step)
    else:
        steps0 = _auto_steps(np.array([inst.omega_scale() for inst in insts])[group], X0)
    omega = insts[0].omega
    targets = np.stack([inst.observed_targets() for inst in insts])

    def value_and_grad(X, idx):
        # One instance broadcasts its target; only a mixed stack gathers.
        target = targets[0] if len(targets) == 1 else targets[group[idx]]
        return _value_and_gradient(omega, target, loss, X)

    return descend_batch(
        value_and_grad, X0, steps0, cfg.max_iters,
        np.array([c.grad_tol for c in cfgs])[group],
        np.array([c.divergence_bound for c in cfgs])[group],
    )


def gradient_descent(
    inst: McInstance, loss: LossSpec, x0: np.ndarray, cfg: GdConfig | None = None
) -> RunResult:
    x0 = np.asarray(x0, dtype=float)
    res = gradient_descent_batch(inst, loss, x0.reshape(1, len(x0), -1), cfg or GdConfig())
    return RunResult(
        final_point=res.points[0],
        final_objective=float(res.values[0]),
        final_grad_norm=float(res.grad_norms[0]),
        iterations=int(res.iters[0]),
        status=res.status[0],
    )


def _chunk_bounds(B: int, n: int, d: int, threads: int) -> np.ndarray:
    """Boundaries of the chunks of a B-row stack of (n, r) starts over an
    Omega with (n, d) row lists: k + 1 increasing indices from 0 to B that
    cut it into k near-equal chunks.

    A chunk has at most ``CHUNK_ROWS`` rows, and fewer when a (rows, n, d)
    temporary of the descent would exceed ``CHUNK_BUDGET_BYTES``. A stack
    large enough is cut into at least ``threads`` chunks of at least
    ``MIN_CHUNK_ROWS`` rows each, so that every worker gets one."""
    rows = min(CHUNK_ROWS, max(1, CHUNK_BUDGET_BYTES // (8 * n * max(d, 1))))
    k = max(-(-B // rows), min(threads, B // MIN_CHUNK_ROWS))
    return np.arange(k + 1) * B // k


def _descend_chunk(insts, loss, X0, cfg):
    # Submitted to the pool by reference; it looks ``gradient_descent_batch``
    # up in this module's globals, which a forked worker inherits as they are.
    return gradient_descent_batch(insts, loss, X0, cfg)


def run_batch_chunked(insts, loss, X0, cfg, threads: int = 1):
    """``gradient_descent_batch`` over chunks of the flat start stack, run in
    ``threads`` worker processes.

    Takes one instance with its stack, or a sequence of instances over one
    Omega with one block of starts each, and returns one flat ``BatchResult``.
    The chunks (``_chunk_bounds``) ignore the block boundaries. A chunk inside
    one block goes out as that instance with its rows, and one that spans
    blocks as the sequences of their instances and rows. A start's result
    does not depend on its chunk, so outputs are identical for any
    ``threads`` and each start's result is the one its instance would get run
    alone.

    One chunk, or ``threads=1``, runs in this process. Otherwise the chunks
    go to a pool of ``min(threads, chunks)`` processes started with ``fork``
    (Linux and macOS), and an error raised in a worker is raised here."""
    insts, X0, group = _stack(insts, X0)
    bounds = _chunk_bounds(len(X0), X0.shape[1], insts[0].omega.cols.shape[1], threads)

    def chunk(lo, hi):
        first, last = group[lo], group[hi - 1]
        if first == last:
            return insts[first], X0[lo:hi]
        cuts = np.searchsorted(group[lo:hi], np.arange(first + 1, last + 1))
        return insts[first : last + 1], np.split(X0[lo:hi], cuts)

    chunks = [chunk(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if threads <= 1 or len(chunks) == 1:
        parts = [_descend_chunk(i, loss, x, cfg) for i, x in chunks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(threads, len(chunks)), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [pool.submit(_descend_chunk, i, loss, x, cfg) for i, x in chunks]
            parts = [fut.result() for fut in futures]
    return BatchResult(
        *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(BatchResult))
    )


def _hessian_chunks(inst: McInstance, loss: LossSpec, X: np.ndarray):
    """(slice, Hessians) over consecutive chunks of a (K, n, r) stack, cut so
    that one chunk's (rows, n*r, n*r) Hessians take at most
    ``CHUNK_BUDGET_BYTES``."""
    rows = max(1, CHUNK_BUDGET_BYTES // (8 * (inst.n * inst.r) ** 2))
    for lo in range(0, len(X), rows):
        yield slice(lo, lo + rows), dense_hessian(inst, loss, X[lo : lo + rows])


def newton_refine(inst: McInstance, loss: LossSpec, X: np.ndarray) -> np.ndarray:
    """Damped saddle-free Newton polish of an approximately critical point,
    or of a (K, n, r) stack of them, to a gradient norm of
    1e-12 (1 + ||M*_Omega||), in at most ``REFINE_STEPS`` steps.

    A point whose gradient norm is above 1e-3 (1 + ||M*_Omega||) is not near
    a critical point: alone it raises ``NotNearCritical``, in a stack it is
    returned as it is. Each step takes, for every point still running,
    s = -V (|L| + mu max|L|)^-1 V^T g from one batched ``eigh`` of its
    Hessians H = V L V^T (Dauphin et al. 2014). The step is accepted when f
    does not rise beyond roundoff and f or the gradient norm falls; the
    point's damping mu is then divided by 10, and otherwise multiplied by 10.
    A point's result does not depend on the rest of the stack.
    """
    scale = 1.0 + inst.omega_scale()
    tol = 1e-12 * scale
    coarse_tol = 1e-3 * scale
    X = _check_shape(inst, X)
    single = X.ndim == 2
    X = X[None].copy() if single else X.copy()
    f, G = value_and_gradient(inst, loss, X)
    gn = np.sqrt(_sq_norms(G))
    if single and not gn[0] <= coarse_tol:
        raise NotNearCritical(f"gradient norm {gn[0]:.3e} above {coarse_tol:.3e}")
    mu = np.full(len(X), REFINE_DAMPING)
    run = np.nonzero((gn > tol) & (gn <= coarse_tol))[0]
    for _ in range(REFINE_STEPS):
        if not run.size:
            break
        Xr = X[run]
        steps = np.empty((len(run), inst.n * inst.r))
        for sl, H in _hessian_chunks(inst, loss, Xr):
            lam, V = np.linalg.eigh(H)
            lam = np.abs(lam)
            lam += mu[run[sl], None] * lam.max(axis=-1, keepdims=True)
            coef = (G[run[sl]].reshape(-1, 1, H.shape[-1]) @ V)[:, 0]
            # A zero Hessian gives no step.
            coef = np.divide(coef, lam, out=np.zeros_like(coef), where=lam > 0)
            steps[sl] = (V @ coef[..., None])[..., 0]
        Xr -= steps.reshape(Xr.shape)
        fr, Gr = value_and_gradient(inst, loss, Xr)
        gr = np.sqrt(_sq_norms(Gr))
        ok = (fr <= f[run] + REFINE_ROUNDOFF * f[run]) & ((fr < f[run]) | (gr < gn[run]))
        done = run[ok]
        X[done], f[done], G[done], gn[done] = Xr[ok], fr[ok], Gr[ok], gr[ok]
        mu[run] *= np.where(ok, 0.1, 10.0)
        run = run[gn[run] > tol]
    return X[0] if single else X


_VERDICTS = (
    Classification.NOT_CRITICAL,
    Classification.GLOBAL_MIN,
    Classification.STRICT_SADDLE,
    Classification.SPURIOUS_LOCAL_MIN,
    Classification.DEGENERATE,
)


@dataclass(frozen=True)
class ClassifiedPoint:
    """Verdict on a point with the quantities it rests on."""

    kind: Classification
    objective: float
    grad_norm: float
    lambda_min: float


def classify_critical_point(inst: McInstance, loss: LossSpec, X: np.ndarray):
    """First-order check, then spectral second-order classification, of a
    point, or of a (K, n, r) stack as a list of verdicts: one kernel call,
    stacked dense Hessians and one batched eigensolve. Points are
    canonicalized and judged on the lower-triangular tangent.

    A point is critical when its gradient norm is at most 1e-8, a global
    minimum when f <= 1e-8 max(||M*_Omega||^2, 1), and its eigenvalues count
    as zero within 1e-7 max(1, |tr H| / dim H)."""
    # At r=1 this only flips signs, and the tangent is the whole space.
    X = canonicalize(_check_shape(inst, X))
    single = X.ndim == 2
    X = X[None] if single else X
    f, G = value_and_gradient(inst, loss, X)
    gn = np.sqrt(_sq_norms(G))
    lam_min, eig_tol = np.empty(len(X)), np.empty(len(X))
    for sl, H in _hessian_chunks(inst, loss, X):
        lam_min[sl] = _min_eigen(H, inst.n, inst.r, "lower_triangular_tangent")[0]
        eig_tol[sl] = 1e-7 * np.maximum(1.0, np.abs(np.trace(H, axis1=-2, axis2=-1)) / H.shape[-1])
    global_tol = 1e-8 * max(inst.omega_scale() ** 2, 1.0)
    # The first condition that holds decides: an index into _VERDICTS.
    kinds = np.select(
        [gn > 1e-8, f <= global_tol, lam_min < -eig_tol, lam_min > eig_tol], range(4), 4
    )
    verdicts = [
        ClassifiedPoint(_VERDICTS[k], float(v), float(g), float(lam))
        for k, v, g, lam in zip(kinds, f, gn, lam_min)
    ]
    return verdicts[0] if single else verdicts


def is_success(inst: McInstance, X: np.ndarray):
    """Exact recovery, ||X X^T - M*||_F <= 1e-4 ||M*||_F, batched: a bool for
    one point, a boolean mask for a stack of points."""
    X = _check_shape(inst, X)
    M = inst.m_star()
    diff = np.einsum("...ir,...jr->...ij", X, X) - M
    errs = np.sqrt(np.einsum("...ij,...ij->...", diff, diff))
    ok = errs <= 1e-4 * np.linalg.norm(M)
    return bool(ok) if ok.ndim == 0 else ok
