"""Gradient descent on the factorized objective, radial initialization,
Newton refinement, and critical-point classification.

``descend_batch`` is the one descent loop: it advances a stack of independent
iterates of any batched value-and-gradient function, and the factorized
objective runs through it (``_descend``, through ``value_and_gradient``'s
arithmetic). Each step makes one fused call on the samples still running;
the loop keeps its per-sample counters as iteration stamps, so that a step
writes only the counters it resets, a rejected step copies back only the
rejected rows, and a retirement compacts the state with one index. One
stack may hold the starts of several instances over one Omega, each start
with its own target and tolerances; their targets are gathered into the
kernel's batch-last layout once per working set, not every step.

``run_batch_chunked`` is the entry point: it flattens its stack once
(``_stack``) into instances, starts and each start's instance index, hands
each chunk its rows and the instances they use, and runs the chunks in
forked worker processes; a chunk's rows are capped so that one (rows, n, d)
temporary of the kernel, d the width of Omega's row lists (n where the
kernel forms dense products), stays within a fixed byte budget.
``_descend``, the one driver, descends a chunk: it resolves each instance's
target and tolerances once, and one call owns the kernel's step buffers
(``StepBuffers``) and reuses them every step. With ``polish``, it descends
in rounds: the starts still running after ``HANDOFF_STEPS``, then twice as
many steps, and so on, are polished by ``newton_refine`` between rounds: a
start whose polish reaches its ``grad_tol`` ends ``Converged`` there, and
one the polish brings lower without reaching it resumes from the polished
point while that stays within its divergence bound. Per-sample arithmetic
is identical regardless of how the stack is chunked or what else it holds,
which keeps experiment outputs bit-stable under any number of workers.

``_damped_newton`` is the one second-order loop, over a stack, from a
curvature callable: ``newton_refine`` runs it on Hessians (saddle-free
Newton), the metric on the 2 J^T J of its pair penalty (Levenberg-Marquardt).
It decomposes a sample's curvature only when the sample has moved, on its
first step and after an accepted one, and reuses the eigenpairs across its
rejected steps. Its samples run in blocks whose eigenvectors take at most
``CHUNK_BUDGET_BYTES``. ``classify_critical_point`` judges a stack, its
curvatures taken in chunks of at most ``CHUNK_BUDGET_BYTES``, each with one
batched ``eigh``.
"""

from __future__ import annotations

import enum
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .errors import DimensionMismatch, NotNearCritical
from .graphs import StepBuffers, gram
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
# First-order steps of a polished descent's first round; each later round
# takes twice the steps of the one before. Below STALL_LIMIT, so no start
# stalls before its first polish.
HANDOFF_STEPS = 300


class Status(str, enum.Enum):
    # The gradient norm reached grad_tol, by descent or, in a polished
    # descent, by the Newton polish of a start that ran out of a round's steps.
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
    given step or grad_tol must be positive and finite, a given
    divergence_bound positive, with +inf for no bound. max_iters is an
    integer >= 1."""

    step: float | None = None
    max_iters: int = 200_000
    grad_tol: float | None = None
    divergence_bound: float | None = None

    def __post_init__(self):
        # The checks are written so that NaN fails too.
        for name in ("step", "grad_tol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise DimensionMismatch(f"{name} must be positive and finite, got {value!r}")
        if self.divergence_bound is not None and not self.divergence_bound > 0:
            raise DimensionMismatch(f"divergence_bound must be positive, got {self.divergence_bound!r}")
        if not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 1:
            raise DimensionMismatch(f"max_iters must be an integer >= 1, got {self.max_iters!r}")

    def resolved(self, inst: McInstance) -> "GdConfig":
        scale = inst.omega_scale()
        grad_tol = self.grad_tol if self.grad_tol is not None else 1e-9 * (1.0 + scale)
        bound = (
            self.divergence_bound
            if self.divergence_bound is not None
            else 10.0 * (1.0 + float(np.linalg.norm(inst.x_star)))
        )
        return replace(self, grad_tol=grad_tol, divergence_bound=bound)


def sample_radial_init(
    dist: str, n: int, r: int, seed: int, sigma: float = 1.0, radius: float = 1.0, size: int | None = None
) -> np.ndarray:
    """Gaussian or uniform-ball initialization; deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    b = 1 if size is None else size
    # The checks are written so that NaN fails too.
    if dist == "gaussian":
        if not 0 < sigma < np.inf:
            raise DimensionMismatch(f"sigma must be positive and finite, got {sigma!r}")
        out = sigma * rng.standard_normal((b, n, r))
    elif dist == "ball":
        if not 0 < radius < np.inf:
            raise DimensionMismatch(f"radius must be positive and finite, got {radius!r}")
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
    # The starts that reached ``Converged`` through the polish of a polished
    # descent (``run_batch_chunked(..., polish=True)``).
    polished: np.ndarray

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
    the loop adopts them as its state and writes into them. ``idx`` is one
    array object from call to call until the working set changes, so a
    caller can gather its per-sample data once per working set.

    The value is kept monotone per sample: a step that would increase it, or
    make it NaN, is rejected and the sample's step size halved; a sample's
    step grows by ``STEP_GROWTH`` after ``STEP_GROWTH_EVERY`` accepted steps,
    up to ``STEP_GROWTH_CAP`` times its initial step, so late linear
    convergence is not throttled by a conservative initial bound. Each step
    makes one ``value_and_grad`` call, on the samples still running: the
    working set is compacted whenever samples retire, and a retiring
    sample's result is written out then. A sample's result does not depend on the rest of the
    stack.

    A sample ends ``Converged`` at its ``grad_tol``, ``Diverged`` once an
    accepted step takes it past its bound, ``Stalled`` once its value has not
    decreased for ``STALL_LIMIT`` steps, and ``MaxIters`` when it runs out of
    iterations; ``iters`` is the number of steps it took. No sample is
    ``polished``.
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
        keep = np.flatnonzero(~out)
        idx, X, f, G, gn, steps, tol, bound, grown_at, improved_at = (
            a.take(keep, axis=0) for a in (idx, X, f, G, gn, steps, tol, bound, grown_at, improved_at)
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
        # Written so that a NaN value is rejected too.
        increased = ~(fnew <= f)
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
    return BatchResult(points, values, grad_norms, iters, status, np.zeros(B, dtype=bool))


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
            if (inst.n, inst.r) != (first.n, first.r) or not np.array_equal(
                inst.omega.mask(), first.omega.mask()
            ):
                raise DimensionMismatch("stacked instances must share n, r and Omega")
    X0 = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    group = np.repeat(np.arange(len(insts)), [len(b) for b in blocks])
    return insts, _check_shape(insts[0], X0), group


def _descend(insts, X0, group, loss: LossSpec, cfg: GdConfig, polish: bool = False) -> BatchResult:
    """The one driver: ``descend_batch`` on the factorized objective of a
    flat stack as ``_stack`` returns it (instances over one Omega, (B, n, r)
    starts, each start's index into ``insts``). Each instance's target, auto
    step scale, ``grad_tol`` and divergence bound are resolved once
    (``cfg.resolved``), and one ``StepBuffers`` serves every step of every
    round. One instance's target serves every start; a mixed stack gathers
    its per-start targets, batch-last on the row lists as the kernel reads
    them, once per working set, into one of the buffers.

    Without ``polish`` the stack descends in one round of ``cfg.max_iters``
    steps. With it, rounds take ``HANDOFF_STEPS``, 2 ``HANDOFF_STEPS``, 4
    ``HANDOFF_STEPS``, ... steps, the last cut so that ``cfg.max_iters`` are
    spent in all, each from its starts' current points and auto steps. After
    each round the starts that ran out of its steps are polished, one stack
    per instance (``newton_refine``, which leaves a point far from critical
    as it is): a start whose polished gradient norm is at most its
    ``grad_tol`` ends ``Converged`` and ``polished`` there. Every other one
    resumes from the polished point if the polish lowered f and the point's
    norm is within the start's divergence bound, and from its descent
    endpoint otherwise. A start's value and gradient norm are those of the
    point it holds. A start keeps the result of the round it converges,
    stalls or diverges in, and one still running after the last round ends
    ``MaxIters``. ``iters`` counts first-order steps only, summed over the
    rounds."""
    B = len(X0)
    cfgs = [cfg.resolved(inst) for inst in insts]
    grad_tol = np.array([c.grad_tol for c in cfgs])[group]
    bound = np.array([c.divergence_bound for c in cfgs])[group]
    scales = np.array([inst.omega_scale() for inst in insts])[group]
    omega = insts[0].omega
    # The targets' batch axis, where the kernel reads a stack of them.
    axis = 0 if omega.dense else -1
    targets = np.stack([inst.observed_targets() for inst in insts], axis=axis)
    bufs = StepBuffers()
    res = BatchResult(
        X0.copy(), np.empty(B), np.empty(B), np.zeros(B, dtype=int),
        np.full(B, Status.MAX_ITERS, dtype=object), np.zeros(B, dtype=bool),
    )
    run, spent, steps = np.arange(B), 0, HANDOFF_STEPS if polish else cfg.max_iters

    # ``held`` is the working set whose targets ``target`` holds, as the
    # index array ``descend_batch`` passes: one object until the set changes.
    target, held = insts[0].observed_targets(), None

    def value_and_grad(X, idx):
        # Only a mixed stack gathers, into a buffer like the kernel's own
        # ("clip" is exact: every index is in range).
        nonlocal target, held
        if len(insts) > 1 and idx is not held:
            shape = list(targets.shape)
            shape[axis] = len(idx)
            out = bufs.take("target", tuple(shape))
            target, held = targets.take(rows[idx], axis=axis, out=out, mode="clip"), idx
        return _value_and_gradient(omega, target, loss, X, bufs)

    while run.size and spent < cfg.max_iters:
        budget = min(steps, cfg.max_iters - spent)
        X, rows = res.points[run], group[run]
        steps0 = np.full(len(X), cfg.step) if cfg.step is not None else _auto_steps(scales[run], X)
        part = descend_batch(value_and_grad, X, steps0, budget, grad_tol[run], bound[run])
        part.iters += res.iters[run]
        for f in fields(BatchResult):
            getattr(res, f.name)[run] = getattr(part, f.name)
        spent, steps = spent + budget, 2 * steps
        run = run[[s is Status.MAX_ITERS for s in part.status]]
        if polish and run.size:
            P, values, gn = np.empty_like(res.points[run]), np.empty(run.size), np.empty(run.size)
            # Not np.unique: its first call imports numpy.ma, about 1.7 MB.
            for g, inst in enumerate(insts):
                of = group[run] == g
                if of.any():
                    P[of], values[of], gn[of] = _polish(inst, loss, res.points[run[of]])
            ok = gn <= grad_tol[run]
            res.status[run[ok]], res.polished[run[ok]] = Status.CONVERGED, True
            # A start left above its grad_tol keeps the polish's progress
            # only where that cannot read as a divergence.
            adopt = ok | ((values < res.values[run]) & (np.sqrt(_sq_norms(P)) <= bound[run]))
            moved = run[adopt]
            res.points[moved], res.values[moved], res.grad_norms[moved] = (
                P[adopt], values[adopt], gn[adopt]
            )
            run = run[~ok]
    return res


def _chunk_bounds(B: int, n: int, d: int, threads: int) -> np.ndarray:
    """Boundaries of the chunks of a B-row stack of (n, r) starts whose
    kernel temporaries are (rows, n, d), d the width of Omega's row lists,
    or n where the kernel forms dense products: k + 1 increasing indices
    from 0 to B that cut it into k near-equal chunks.

    A chunk has at most ``CHUNK_ROWS`` rows, and fewer when a (rows, n, d)
    temporary of the descent would exceed ``CHUNK_BUDGET_BYTES``. A stack
    large enough is cut into at least ``threads`` chunks of at least
    ``MIN_CHUNK_ROWS`` rows each, so that every worker gets one. An empty
    stack is one empty chunk. At n = d = N, it chunks (N, N) curvatures."""
    rows = min(CHUNK_ROWS, max(1, CHUNK_BUDGET_BYTES // (8 * n * max(d, 1))))
    k = max(1, -(-B // rows), min(threads, B // MIN_CHUNK_ROWS))
    return np.arange(k + 1) * B // k


def run_batch_chunked(insts, loss, X0, cfg, threads: int = 1, *, polish: bool = False):
    """``_descend`` over chunks of the flat start stack, run in ``threads``
    worker processes. Takes one instance with a (B, n, r) stack (a single
    (n, r) start is a one-row stack), or a sequence of instances over one
    Omega with one block of starts each, and returns one flat ``BatchResult``.
    The stack is checked and flattened once (``_stack``). The chunks
    (``_chunk_bounds``) ignore the block boundaries: a chunk goes out as its
    rows, the instances those rows use and each row's index into them. A
    start's result does not depend on its chunk, so outputs are identical for
    any ``threads`` and each start's result is the one its instance would get
    run alone. An empty stack gives an empty result.

    With ``polish``, each chunk descends in polished rounds (``_descend``).

    One chunk, or ``threads=1``, runs in this process. Otherwise the chunks
    go to a pool of ``min(threads, chunks)`` processes started with ``fork``
    (Linux and macOS), which look ``_descend`` up in this module as the
    parent left it, and an error raised in a worker is raised here."""
    insts, X0, group = _stack(insts, X0)
    omega = insts[0].omega
    width = omega.n if omega.dense else omega.cols.shape[1]
    bounds = _chunk_bounds(len(X0), X0.shape[1], width, threads)

    def chunk(lo, hi):
        first, last = (group[lo], group[hi - 1]) if hi > lo else (0, 0)
        return insts[first : last + 1], X0[lo:hi], group[lo:hi] - first

    chunks = [chunk(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if threads <= 1 or len(chunks) == 1:
        parts = [_descend(*c, loss, cfg, polish) for c in chunks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(threads, len(chunks)), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [pool.submit(_descend, *c, loss, cfg, polish) for c in chunks]
            parts = [fut.result() for fut in futures]
    return BatchResult(
        *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(BatchResult))
    )


def _damped_newton(value_and_grad, curvature, X: np.ndarray, start, tol, max_steps: int):
    """Damped second-order steps on a (K, ...) stack, each sample until its
    gradient norm is at most its ``tol`` (a scalar or (K,)), in at most
    ``max_steps`` steps. ``start`` is ``value_and_grad(X)``; ``value_and_grad``
    and ``curvature`` map a (k, ...) stack to its values and gradients, and to
    (k, N, N) symmetric curvatures. Returns the points with their values and
    gradient norms.

    A step is s = -V (|L| + mu max|L|)^-1 V^T g, from the ``eigh`` of the
    curvature H = V L V^T: saddle-free Newton on Hessians (Dauphin et al.
    2014), Levenberg-Marquardt on the PSD 2 J^T J of a least-squares problem.
    It is accepted when f does not rise beyond roundoff and f or the gradient
    norm falls; the sample's damping mu is then divided by 10, and otherwise
    multiplied by 10. A sample keeps its |L| and V until a step moves it: each
    step takes curvatures, in one batched ``eigh``, only of the samples on
    their first step or just past an accepted one. The samples that take steps
    run in consecutive blocks, one after another, of at most
    ``CHUNK_BUDGET_BYTES`` of (N, N) eigenvectors. A sample's result does not
    depend on the rest of the stack."""
    f, G = start
    X, f = X.copy(), f.copy()
    gn = np.sqrt(_sq_norms(G))
    tol = np.broadcast_to(tol, gn.shape)
    N = int(np.prod(X.shape[1:]))
    active = np.nonzero(gn > tol)[0]
    bounds = _chunk_bounds(len(active), N, N, 1)
    for chunk in map(slice, bounds[:-1], bounds[1:]):
        ids = active[chunk]
        Xb, fb, Gb, gb, tb = X[ids], f[ids], G[ids], gn[ids], tol[ids]
        mu = np.full(len(ids), REFINE_DAMPING)
        # Each sample's |L| and V, valid unless the sample is stale.
        absl, V = np.empty((len(ids), N)), np.empty((len(ids), N, N))
        stale = np.ones(len(ids), dtype=bool)
        run = np.arange(len(ids))
        for _ in range(max_steps):
            if not run.size:
                break
            new = run[stale[run]]
            if new.size:
                lam, V[new] = np.linalg.eigh(curvature(Xb[new]))
                absl[new], stale[new] = np.abs(lam), False
            lam, Vr = absl[run], V[run]
            lam += mu[run, None] * lam.max(axis=-1, keepdims=True)
            coef = (Gb[run].reshape(-1, 1, N) @ Vr)[:, 0]
            # A zero curvature gives no step.
            coef = np.divide(coef, lam, out=np.zeros_like(coef), where=lam > 0)
            Xr = Xb[run]
            Xr -= (Vr @ coef[..., None])[..., 0].reshape(Xr.shape)
            fr, Gr = value_and_grad(Xr)
            gr = np.sqrt(_sq_norms(Gr))
            ok = (fr <= fb[run] + REFINE_ROUNDOFF * fb[run]) & ((fr < fb[run]) | (gr < gb[run]))
            done = run[ok]
            Xb[done], fb[done], Gb[done], gb[done] = Xr[ok], fr[ok], Gr[ok], gr[ok]
            stale[done] = True
            mu[run] *= np.where(ok, 0.1, 10.0)
            run = run[gb[run] > tb[run]]
        X[ids], f[ids], gn[ids] = Xb, fb, gb
    return X, f, gn


def _polish(inst: McInstance, loss: LossSpec, X: np.ndarray, single: bool = False):
    """``newton_refine`` of a (K, n, r) stack: the points, and the kernel's
    values and gradient norms there. With ``single``, a first point far from
    critical raises ``NotNearCritical``."""
    scale = 1.0 + inst.omega_scale()
    coarse_tol = 1e-3 * scale
    start = value_and_gradient(inst, loss, X)
    gn = np.sqrt(_sq_norms(start[1]))
    if single and not gn[0] <= coarse_tol:
        raise NotNearCritical(f"gradient norm {gn[0]:.3e} above {coarse_tol:.3e}")
    # A point far from critical gets an infinite tolerance: it takes no step.
    tol = np.where(gn <= coarse_tol, 1e-12 * scale, np.inf)
    return _damped_newton(
        partial(value_and_gradient, inst, loss), partial(dense_hessian, inst, loss), X, start,
        tol, REFINE_STEPS,
    )


def newton_refine(inst: McInstance, loss: LossSpec, X: np.ndarray) -> np.ndarray:
    """Saddle-free Newton polish (``_damped_newton`` on Hessians) of an
    approximately critical point, or of a (K, n, r) stack, to a gradient norm
    of 1e-12 (1 + ||M*_Omega||) in at most ``REFINE_STEPS`` steps. A point
    whose gradient norm is above 1e-3 (1 + ||M*_Omega||) is not near a
    critical point: alone it raises ``NotNearCritical``, in a stack it is
    returned as it is."""
    X = _check_shape(inst, X)
    single = X.ndim == 2
    P = _polish(inst, loss, X[None] if single else X, single)[0]
    return P[0] if single else P


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

    A point is critical when its gradient norm is at most
    1e-8 (1 + ||M*_Omega||), a global minimum when
    f <= 1e-8 max(||M*_Omega||^2, 1), and its eigenvalues count as zero
    within 1e-7 max(1, |tr H| / dim H)."""
    # At r=1 this only flips signs, and the tangent is the whole space.
    X = canonicalize(_check_shape(inst, X))
    single = X.ndim == 2
    X = X[None] if single else X
    f, G = value_and_gradient(inst, loss, X)
    gn = np.sqrt(_sq_norms(G))
    lam_min, eig_tol = np.empty(len(X)), np.empty(len(X))
    N = inst.n * inst.r
    bounds = _chunk_bounds(len(X), N, N, 1)
    for sl in map(slice, bounds[:-1], bounds[1:]):
        H = dense_hessian(inst, loss, X[sl])
        lam_min[sl] = _min_eigen(H, inst.n, inst.r, "lower_triangular_tangent")[0]
        eig_tol[sl] = 1e-7 * np.maximum(1.0, np.abs(np.trace(H, axis1=-2, axis2=-1)) / H.shape[-1])
    scale = inst.omega_scale()
    global_tol = 1e-8 * max(scale**2, 1.0)
    # The first condition that holds decides: an index into _VERDICTS.
    kinds = np.select(
        [gn > 1e-8 * (1.0 + scale), f <= global_tol, lam_min < -eig_tol, lam_min > eig_tol], range(4), 4
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
    diff = gram(X) - M
    errs = np.sqrt(np.einsum("...ij,...ij->...", diff, diff))
    ok = errs <= 1e-4 * np.linalg.norm(M)
    return bool(ok) if ok.ndim == 0 else ok
