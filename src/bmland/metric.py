"""Heuristic upper bound on the distance from the observed measurements to the
set of measurements that admit more than one rank-r completion.

The set is parametrized by pairs (X1, X2) whose Gram matrices agree on the
observed entries but differ by at least ``separation`` in Frobenius norm. We
minimize a penalty objective over pairs of the unclassified candidates of the
census's endpoint stage (X1 the lower-objective one), and report the best
feasible pair after the final polish — an upper bound only; infeasibility
within budget is reported as "no pair found", never as a proof that none
exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .census import _endpoints
from .errors import DimensionMismatch
from .instances import McInstance
from .landscape import LossSpec
from .optimize import _sq_norms, descend_batch

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
    restarts: int = 30
    iters: int = 2000

    def __post_init__(self):
        if self.restarts < 2 or self.iters < 1:
            raise DimensionMismatch("need restarts >= 2 and iters >= 1")


def _terms(inst: McInstance, Z: np.ndarray):
    """Fit residual, on-support mismatch, full Gram difference and its norm
    for a (P, n, 2r) stack of pairs Z = [X1 | X2]."""
    r = inst.r
    X1, X2 = Z[..., :r], Z[..., r:]
    W = inst.omega.mask()
    g1 = X1 @ X1.swapaxes(-1, -2)
    delta = g1 - X2 @ X2.swapaxes(-1, -2)
    r0 = g1 * W - inst.m_star_omega()
    r2 = delta * W
    return X1, X2, r0, r2, delta, np.sqrt(_sq_norms(delta))


@dataclass(frozen=True)
class _PairPenalty:
    """w0 ||r0||^2 + rho ||r2||^2 + rho_sep max(separation - d, 0)^2, batched
    over a (P, n, 2r) stack of pairs."""

    inst: McInstance
    w0: float
    rho: float
    rho_sep: float
    separation: float

    def value_and_grad(self, Z: np.ndarray):
        X1, X2, r0, r2, delta, d = _terms(self.inst, Z)
        gap = np.maximum(self.separation - d, 0.0)
        value = self.w0 * _sq_norms(r0) + self.rho * _sq_norms(r2) + self.rho_sep * gap * gap
        coef = np.divide(2.0 * self.rho_sep * gap, d, out=np.zeros_like(d), where=d > 0)
        A = 4.0 * self.rho * r2 - 2.0 * coef[:, None, None] * delta
        return value, np.concatenate([(4.0 * self.w0 * r0 + A) @ X1, -A @ X2], axis=-1)

    def descend(self, Z: np.ndarray, iters: int, grad_tol: float) -> np.ndarray:
        """Monotone descent of every pair from a step set by its start."""
        r = self.inst.r
        sizes = np.maximum(_sq_norms(Z[..., :r]), _sq_norms(Z[..., r:]))
        scale = self.inst.omega_scale() + 3.0 * np.maximum(sizes, 1.0)
        steps0 = 0.25 / (4.0 * (self.w0 + self.rho) * scale)
        return descend_batch(
            lambda Z, idx: self.value_and_grad(Z), Z, steps0, iters, grad_tol, np.inf
        ).points


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
    if separation is not None and not separation > 0:
        raise DimensionMismatch(f"separation must be positive, got {separation!r}")
    if separation is None:
        separation = 1e-3 * float(np.linalg.norm(inst.m_star()))
    reps = _endpoints(inst, LossSpec.l2(), budget.restarts, seed, threads=threads)[0]
    if len(reps) < 2:
        return MetricEstimate()
    return _best_pair(inst, reps, separation, budget.iters)


def _best_pair(inst: McInstance, reps: np.ndarray, separation: float, iters: int) -> MetricEstimate:
    """Descend every pair of candidates (the earlier one as X1) through the
    penalty rounds, then report the feasible polished pair of least fit
    residual: ties go to the earlier pair."""
    feas_tol = 1e-6 * (1.0 + inst.omega_scale())
    grad_tol = 1e-12 * (1.0 + inst.omega_scale()) ** 2
    rounds = [(1.0, RHO_GROWTH**k, RHO_GROWTH**k) for k in range(1, RHO_ROUNDS + 1)]
    # Feasibility polish: drive the on-support mismatch to roundoff while the
    # fit term is left out entirely.
    rounds.append((0.0, 1.0, 1.0))
    Z = np.stack([np.concatenate(pair, axis=1) for pair in itertools.combinations(reps, 2)])
    for w0, rho, rho_sep in rounds:
        Z = _PairPenalty(inst, w0, rho, rho_sep, separation).descend(Z, iters, grad_tol)

    X1, X2, r0, r2, _, d = _terms(inst, Z)
    feasible = (np.sqrt(_sq_norms(r2)) <= feas_tol) & (d >= separation)
    values = np.where(feasible, np.sqrt(_sq_norms(r0)), np.inf)
    k = int(np.argmin(values))
    if not feasible[k]:
        return MetricEstimate()
    return MetricEstimate(
        value=float(values[k]),
        witness_pair=(X1[k].copy(), X2[k].copy()),
        separation_achieved=float(d[k]),
    )
