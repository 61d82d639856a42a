"""Gradient descent on the factorized objective, radial initialization,
Newton refinement, and critical-point classification.

``descend_batch`` is the one descent loop: it advances a stack of independent
iterates of any batched value/gradient pair, and both the factorized
objective (``gradient_descent_batch``) and the metric's pair penalty run
through it. Per-sample arithmetic is identical regardless of how the stack is
chunked, which keeps experiment outputs bit-stable under any parallelism
degree.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DimensionMismatch, NotNearCritical, SingularHessian
from .instances import McInstance
from .landscape import (
    LossSpec,
    canonicalize,
    dense_hessian,
    gradient,
    objective,
    tangent_indices,
)

STEP_GROWTH = 1.5
STEP_GROWTH_EVERY = 20
STEP_GROWTH_CAP = 4096.0
STALL_LIMIT = 500


class Status(str, enum.Enum):
    CONVERGED = "Converged"
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
    """step/grad_tol/divergence_bound of None are resolved per instance."""

    step: float | None = None
    max_iters: int = 200_000
    grad_tol: float | None = None
    divergence_bound: float | None = None

    def __post_init__(self):
        if self.step is not None and self.step <= 0:
            raise DimensionMismatch("step must be positive")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise DimensionMismatch("grad_tol must be positive")
        if self.max_iters < 1:
            raise DimensionMismatch("max_iters must be >= 1")

    def resolved(self, inst: McInstance, X0: np.ndarray) -> "GdConfig":
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
    if dist == "gaussian":
        if sigma <= 0:
            raise DimensionMismatch("sigma must be positive")
        out = sigma * rng.standard_normal((b, n, r))
    elif dist == "ball":
        if radius <= 0:
            raise DimensionMismatch("radius must be positive")
        direction = rng.standard_normal((b, n, r))
        direction /= np.linalg.norm(direction, axis=(1, 2), keepdims=True)
        u = rng.random((b, 1, 1))
        out = radius * u ** (1.0 / (n * r)) * direction
    else:
        raise DimensionMismatch(f"unknown init distribution {dist!r}")
    return out[0] if size is None else out


def _sq_norms(X: np.ndarray) -> np.ndarray:
    return np.einsum("bij,bij->b", X, X)


def _auto_steps(inst: McInstance, X0: np.ndarray) -> np.ndarray:
    """Per-sample step from a crude local smoothness bound at the start."""
    scale = inst.omega_scale()
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
    value, grad, X0: np.ndarray, steps0: np.ndarray, max_iters: int, grad_tol: float,
    divergence_bound: float,
) -> BatchResult:
    """Explicit-Euler gradient descent on a (B, n, k) stack of iterates, with
    batched ``value`` (B,) and ``grad`` (B, n, k) and per-sample initial steps.

    The value is kept monotone per sample: a step that would increase it is
    rejected and the sample's step size halved; steadily accepted samples get
    a bounded step-size growth so late linear convergence is not throttled by
    a conservative initial bound. A sample's result does not depend on the
    rest of the stack.
    """
    B = X0.shape[0]
    steps = steps0.copy()

    X = X0.copy()
    f = value(X)
    status = np.empty(B, dtype=object)
    status[:] = Status.MAX_ITERS
    iters = np.full(B, max_iters, dtype=int)
    grad_norms = np.zeros(B)
    active = np.ones(B, dtype=bool)
    since_growth = np.zeros(B, dtype=int)
    no_progress = np.zeros(B, dtype=int)

    for it in range(max_iters):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        Xa = X[idx]
        G = grad(Xa)
        gn = np.sqrt(_sq_norms(G))
        grad_norms[idx] = gn

        done = gn <= grad_tol
        if done.any():
            d = idx[done]
            status[d] = Status.CONVERGED
            iters[d] = it
            active[d] = False
            idx = idx[~done]
            if idx.size == 0:
                continue
            Xa, G = Xa[~done], G[~done]

        Xnew = Xa - steps[idx, None, None] * G
        fnew = value(Xnew)
        increased = fnew > f[idx]
        improved = fnew < f[idx]
        ok = ~increased
        ok_idx = idx[ok]
        X[ok_idx] = Xnew[ok]
        f[ok_idx] = fnew[ok]
        since_growth[ok_idx] += 1
        steps[idx[increased]] *= 0.5
        since_growth[idx[increased]] = 0
        # Once the value stops strictly decreasing for a long stretch, the
        # iterate sits at the resolution floor of double precision; further
        # iterations cannot reach grad_tol, so the sample is cut off early.
        no_progress[idx] += 1
        no_progress[idx[improved]] = 0
        stalled = idx[no_progress[idx] >= STALL_LIMIT]
        if stalled.size:
            iters[stalled] = it
            active[stalled] = False

        grow = since_growth[ok_idx] >= STEP_GROWTH_EVERY
        if grow.any():
            gidx = ok_idx[grow]
            steps[gidx] = np.minimum(steps[gidx] * STEP_GROWTH, STEP_GROWTH_CAP * steps0[gidx])
            since_growth[gidx] = 0

        diverged = np.sqrt(_sq_norms(X[ok_idx])) > divergence_bound
        if diverged.any():
            d = ok_idx[diverged]
            status[d] = Status.DIVERGED
            iters[d] = it
            active[d] = False

    still = np.nonzero(active)[0]
    if still.size:
        grad_norms[still] = np.sqrt(_sq_norms(grad(X[still])))
    return BatchResult(X, value(X), grad_norms, iters, status)


def gradient_descent_batch(
    inst: McInstance, loss: LossSpec, X0: np.ndarray, cfg: GdConfig
) -> BatchResult:
    """``descend_batch`` on the factorized objective of ``inst``."""
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim == 2:
        X0 = X0[None]
    cfg = cfg.resolved(inst, X0)
    steps0 = np.full(X0.shape[0], cfg.step) if cfg.step is not None else _auto_steps(inst, X0)
    # Looked up per call, so wrappers installed on these module names see each one.
    return descend_batch(
        lambda X: objective(inst, loss, X),
        lambda X: gradient(inst, loss, X),
        X0, steps0, cfg.max_iters, cfg.grad_tol, cfg.divergence_bound,
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


def run_batch_chunked(inst, loss, X0, cfg, threads: int = 1, chunk_size: int = 4096):
    """Chunked batch runner; chunk boundaries are fixed independently of the
    thread count, so outputs are identical for any parallelism degree."""
    X0 = np.asarray(X0, dtype=float)
    B = X0.shape[0]
    bounds = [(lo, min(lo + chunk_size, B)) for lo in range(0, B, chunk_size)]
    if threads <= 1 or len(bounds) == 1:
        parts = [gradient_descent_batch(inst, loss, X0[lo:hi], cfg) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(gradient_descent_batch, inst, loss, X0[lo:hi], cfg)
                for lo, hi in bounds
            ]
            parts = [fut.result() for fut in futures]
    return BatchResult(
        *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(BatchResult))
    )


def _solve_newton_step(H: np.ndarray, g: np.ndarray, r: int):
    """Newton step restricted to the well-conditioned eigenspace.

    Eigenvalues below 1e-8 of the spectral radius are dropped: they span
    orbit directions, flat manifold directions at degenerate minima, or
    noise, and the gradient has no meaningful component there.
    """
    vals, vecs = np.linalg.eigh(H)
    absvals = np.abs(vals)
    vmax = absvals.max(initial=0.0)
    if vmax == 0.0:
        raise SingularHessian("Hessian is zero")
    keep = absvals >= 1e-8 * vmax
    keep[np.argsort(absvals)[: r * (r - 1) // 2]] = False  # orbit null space
    if not keep.any():
        raise SingularHessian("no well-conditioned Hessian directions")
    inv = np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)
    return -vecs @ (inv * (vecs.T @ g))


def newton_refine(
    inst: McInstance,
    loss: LossSpec,
    x: np.ndarray,
    tol: float | None = None,
    coarse_tol: float | None = None,
    max_steps: int = 50,
) -> np.ndarray:
    """Damped Newton polish of an approximately critical point.

    For r > 1, directions along the orthogonal-orbit null space are excluded
    from the step (the gradient has no component there).
    """
    scale = 1.0 + inst.omega_scale()
    tol = tol if tol is not None else 1e-12 * scale
    coarse_tol = coarse_tol if coarse_tol is not None else 1e-3 * scale
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, r = inst.n, inst.r

    g = gradient(inst, loss, x)
    gn = float(np.linalg.norm(g))
    if gn > coarse_tol:
        raise NotNearCritical(f"gradient norm {gn:.3e} above {coarse_tol:.3e}")
    for _ in range(max_steps):
        if gn <= tol:
            break
        step = _solve_newton_step(dense_hessian(inst, loss, x), g.reshape(-1), r)
        damping = 1.0
        for _ in range(25):
            cand = x + damping * step.reshape(n, r)
            g_cand = gradient(inst, loss, cand)
            gn_cand = float(np.linalg.norm(g_cand))
            if gn_cand < gn:
                x, g, gn = cand, g_cand, gn_cand
                break
            damping *= 0.5
        else:
            break  # no productive damping left
    if gn > tol:
        # The quadratic model breaks down near degenerate (e.g. quartic-flat)
        # minima; a trust-region polish of the objective handles those.
        x = _trust_region_polish(inst, loss, x, gn, tol)
    return x


def _trust_region_polish(
    inst: McInstance, loss: LossSpec, x: np.ndarray, gn: float, tol: float
) -> np.ndarray:
    from scipy import optimize as _sopt

    n, r = inst.n, inst.r
    res = _sopt.minimize(
        lambda v: objective(inst, loss, v.reshape(n, r)),
        x.reshape(-1),
        jac=lambda v: gradient(inst, loss, v.reshape(n, r)).reshape(-1),
        hess=lambda v: dense_hessian(inst, loss, v.reshape(n, r)),
        method="trust-exact",
        options={"gtol": tol, "maxiter": 200},
    )
    if float(np.linalg.norm(res.jac)) < gn:
        return res.x.reshape(n, r)
    return x


@dataclass(frozen=True)
class ClassifyTols:
    crit_tol: float = 1e-8
    global_tol: float | None = None  # default 1e-8 * ||M*_Omega||_F^2
    eig_tol: float | None = None  # default 1e-7 * trace scale

    def resolved(self, inst: McInstance, H: np.ndarray) -> "ClassifyTols":
        scale2 = inst.omega_scale() ** 2
        global_tol = self.global_tol if self.global_tol is not None else 1e-8 * max(scale2, 1.0)
        trace_scale = max(1.0, abs(np.trace(H)) / H.shape[0])
        eig_tol = self.eig_tol if self.eig_tol is not None else 1e-7 * trace_scale
        return replace(self, global_tol=global_tol, eig_tol=eig_tol)


@dataclass(frozen=True)
class ClassifiedPoint:
    """Verdict on a point with the quantities it rests on."""

    kind: Classification
    objective: float
    grad_norm: float
    lambda_min: float


def classify_critical_point(
    inst: McInstance,
    loss: LossSpec,
    x: np.ndarray,
    tols: ClassifyTols | None = None,
) -> ClassifiedPoint:
    """First-order check, then spectral second-order classification, from
    one gradient, one dense Hessian and one eigensolve. The point is
    canonicalized and judged on the lower-triangular tangent."""
    tols = tols or ClassifyTols()
    # At r=1 this only flips signs, and the tangent is the whole space.
    x = canonicalize(x)
    gn = float(np.linalg.norm(gradient(inst, loss, x)))
    H = dense_hessian(inst, loss, x)
    idx = tangent_indices(inst.n, inst.r)
    lam_min = float(np.linalg.eigh(H[np.ix_(idx, idx)])[0][0])
    f = float(objective(inst, loss, x))
    tols = tols.resolved(inst, H)
    if gn > tols.crit_tol:
        kind = Classification.NOT_CRITICAL
    elif f <= tols.global_tol:
        kind = Classification.GLOBAL_MIN
    elif lam_min < -tols.eig_tol:
        kind = Classification.STRICT_SADDLE
    elif lam_min > tols.eig_tol:
        kind = Classification.SPURIOUS_LOCAL_MIN
    else:
        kind = Classification.DEGENERATE
    return ClassifiedPoint(kind=kind, objective=f, grad_norm=gn, lambda_min=lam_min)


def is_success(inst: McInstance, x_hat: np.ndarray, rel_tol: float = 1e-4) -> bool:
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.ndim == 1:
        x_hat = x_hat[:, None]
    M = inst.m_star()
    err = np.linalg.norm(x_hat @ x_hat.T - M)
    return bool(err <= rel_tol * np.linalg.norm(M))


def is_success_batch(inst: McInstance, X: np.ndarray, rel_tol: float = 1e-4) -> np.ndarray:
    M = inst.m_star()
    diff = np.einsum("bir,bjr->bij", X, X) - M
    errs = np.sqrt(np.einsum("bij,bij->b", diff, diff))
    return errs <= rel_tol * np.linalg.norm(M)
