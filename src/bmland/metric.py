"""Heuristic upper bound on the distance from the observed measurements to the
set of measurements that admit more than one rank-r completion.

The set is parametrized by pairs (X1, X2) whose Gram matrices agree on the
observed entries but differ by at least ``separation`` in Frobenius norm. We
minimize a penalty objective over pairs of the unclassified candidates of the
census's endpoint stage (X1 the lower-objective one), and report the best
feasible pair after the final polish — an upper bound only; infeasibility
within budget is reported as "no pair found", never as a proof that none
exists.

The penalty is a sum of squared residuals, so each penalty round, and the
polish, is one damped Gauss-Newton solve of the whole pair stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .census import _endpoints
from .errors import DimensionMismatch
from .instances import McInstance
from .landscape import LossSpec
from .optimize import _damped_newton, _sq_norms

RHO_ROUNDS = 5
RHO_GROWTH = 10.0


@dataclass
class MetricEstimate:
    value: float | None = None  # None means no feasible pair found within budget
    witness_pair: tuple | None = None
    separation_achieved: float | None = None

    @property
    def found(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class MetricBudget:
    restarts: int = 30  # starts of the endpoint stage
    iters: int = 2000  # most solver steps of each penalty round and of the polish

    def __post_init__(self):
        if self.restarts < 2 or self.iters < 1:
            raise DimensionMismatch("need restarts >= 2 and iters >= 1")


def _separation(Z: np.ndarray, r: int):
    """d = ||X1 X1^T - X2 X2^T||_F of a (P, n, 2r) stack of pairs [X1 | X2],
    and the gradient of d^2, from r x r Gram products in O(n r^2):
    d^2 = ||X1^T X1||^2 + ||X2^T X2||^2 - 2 ||X1^T X2||^2, clamped at 0."""
    X1, X2 = Z[..., :r], Z[..., r:]
    # Four products of one form, so that at X1 = X2 they have the same bits
    # and d is 0 (A^T A alone would take another BLAS path).
    T1, T2 = (np.ascontiguousarray(X.swapaxes(-1, -2)) for X in (X1, X2))
    G11, G12, G21, G22 = T1 @ X1, T1 @ X2, T2 @ X1, T2 @ X2
    d2 = _sq_norms(G11) + _sq_norms(G22) - 2.0 * _sq_norms(G12)
    grad = 4.0 * np.concatenate([X1 @ G11 - X2 @ G21, X2 @ G22 - X1 @ G12], axis=-1)
    return np.sqrt(np.maximum(d2, 0.0)), grad


@dataclass(frozen=True)
class _PairPenalty:
    """w0 ||r0||^2 + rho ||r2||^2 + rho_sep gap^2, gap = max(separation - d, 0),
    of a (P, n, 2r) stack of pairs Z = [X1 | X2]: the squared norm of the
    residuals res = (sqrt(w0) r0, sqrt(rho) r2, sqrt(rho_sep) gap), with
    r0 = X1 X1^T - M* and r2 = X1 X1^T - X2 X2^T on Omega's observed entries
    and d from ``_separation``. The value is ||res||^2, the gradient
    2 J^T res and the curvature 2 J^T J, J the exact Jacobian of res."""

    inst: McInstance
    w0: float
    rho: float
    rho_sep: float
    separation: float

    @cached_property
    def _entries(self):
        """The m observed entries (i, j) of Omega, in row-major order, and M*
        on them, formed by ``residuals``' own product of the ground truth, so
        that r0 is exactly 0 at X1 = x*."""
        i, j = np.nonzero(self.inst.omega.mask())
        x = self.inst.x_star
        return i, j, np.sum(x[i] * x[j], axis=-1)

    def residuals(self, Z: np.ndarray):
        """res, (P, 2m + 1) over the m observed entries, its (P, 2m + 1, 2nr)
        Jacobian, and d."""
        r = self.inst.r
        i, j, target = self._entries
        m, e = len(i), np.arange(len(i))
        J = np.zeros((len(Z), 2 * m + 1) + Z.shape[1:])
        prods = []
        for half in (slice(0, r), slice(r, 2 * r)):
            # The products X_i . X_j and their derivatives, X_j on row i and
            # X_i on row j.
            X = Z[..., half]
            prods.append(np.sum(X[:, i] * X[:, j], axis=-1))
            J[:, m + e, i, half] = X[:, j]
            J[:, m + e, j, half] += X[:, i]
        J[:, m:-1, :, r:] *= -1.0
        J[:, :m, :, :r] = J[:, m:-1, :, :r]
        d, grad = _separation(Z, r)
        gap = np.maximum(self.separation - d, 0.0)
        # d gap / dZ = -grad / (2 d) while the gap is active.
        active = ((gap > 0) & (d > 0))[:, None, None]
        np.divide(grad, -2.0 * d[:, None, None], out=J[:, -1], where=active)
        res = np.concatenate([prods[0] - target, prods[0] - prods[1], gap[:, None]], axis=1)
        w = np.sqrt(np.repeat([self.w0, self.rho, self.rho_sep], [m, m, 1]))
        return res * w, J.reshape(len(Z), 2 * m + 1, -1) * w[:, None], d

    def value_and_grad(self, Z: np.ndarray):
        res, J, _ = self.residuals(Z)
        return np.einsum("pm,pm->p", res, res), 2.0 * (res[:, None] @ J).reshape(Z.shape)

    def curvature(self, Z: np.ndarray) -> np.ndarray:
        J = self.residuals(Z)[1]
        return 2.0 * (J.swapaxes(-1, -2) @ J)

    def solve(self, Z: np.ndarray, iters: int, grad_tol: float) -> np.ndarray:
        """One damped Gauss-Newton solve of every pair, to a gradient of
        ``grad_tol`` max(w0, rho, rho_sep), in at most ``iters`` steps."""
        tol = grad_tol * max(self.w0, self.rho, self.rho_sep)
        return _damped_newton(
            self.value_and_grad, self.curvature, Z, self.value_and_grad(Z), tol, iters
        )[0]


def estimate_complexity_metric(
    inst: McInstance,
    budget: MetricBudget,
    separation: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> MetricEstimate:
    """Best polished pair, an upper bound on the ambiguity distance of the
    observed entries; monotone non-increasing in the restart budget at fixed seed."""
    # Written so that NaN fails too.
    if separation is not None and not 0 < separation < np.inf:
        raise DimensionMismatch(f"separation must be positive and finite, got {separation!r}")
    if separation is None:
        separation = 1e-3 * float(np.linalg.norm(inst.m_star()))
    reps = _endpoints(inst, LossSpec.l2(), budget.restarts, seed, threads=threads)[0]
    if len(reps) < 2:
        return MetricEstimate()
    return _best_pair(inst, reps, separation, budget.iters)


def _best_pair(inst: McInstance, reps: np.ndarray, separation: float, iters: int) -> MetricEstimate:
    """Solve every pair of candidates (the earlier one as X1) through the
    penalty rounds, each one ``_PairPenalty.solve`` of the whole pair stack,
    then report the feasible polished pair of least fit residual: ties go to
    the earlier pair."""
    feas_tol = 1e-6 * (1.0 + inst.omega_scale())
    grad_tol = 1e-12 * (1.0 + inst.omega_scale()) ** 2
    rounds = [(1.0, RHO_GROWTH**k, RHO_GROWTH**k) for k in range(1, RHO_ROUNDS + 1)]
    # Feasibility polish: drive the on-support mismatch to roundoff while the
    # fit term is left out entirely.
    rounds.append((0.0, 1.0, 1.0))
    Z = np.stack([np.concatenate(pair, axis=1) for pair in itertools.combinations(reps, 2)])
    for w0, rho, rho_sep in rounds:
        Z = _PairPenalty(inst, w0, rho, rho_sep, separation).solve(Z, iters, grad_tol)

    res, _, d = _PairPenalty(inst, 1.0, 1.0, 0.0, separation).residuals(Z)
    fit, mismatch = np.split(res[:, :-1], 2, axis=1)
    feasible = (np.linalg.norm(mismatch, axis=-1) <= feas_tol) & (d >= separation)
    values = np.where(feasible, np.linalg.norm(fit, axis=-1), np.inf)
    k = int(np.argmin(values))
    if not feasible[k]:
        return MetricEstimate()
    return MetricEstimate(
        value=float(values[k]),
        witness_pair=(Z[k, :, : inst.r].copy(), Z[k, :, inst.r :].copy()),
        separation_achieved=float(d[k]),
    )
