"""Factorized objective, analytic derivatives, and orbit canonicalization.

The objective is f(X) = g[(X X^T - M*)_Omega] with the l2 loss
g(R) = ||R||_F^2, optionally plus the row-norm regularizer
Q(X) = lambda * sum_i (||X_i|| - alpha)_+^4.

``value_and_gradient`` is the one objective kernel: it forms the masked
residual once, with batched matmul, and returns the value and the gradient
from it; ``objective`` and ``gradient`` are its two halves. It broadcasts over
leading batch axes, so a stack of factors of shape (B, n, r) is processed in
one call, and so do the orbit maps ``restriction_map`` and ``canonicalize``.
Each point's result has the same bits whatever stack it is part of. Hessian
routines operate on a single point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .instances import McInstance

SIGN_TOL = 1e-9


@dataclass(frozen=True)
class LossSpec:
    """l2 loss, optionally with the quartic row-norm regularizer."""

    lam: float = 0.0
    alpha: float = 0.0

    @classmethod
    def l2(cls) -> "LossSpec":
        return cls()

    @classmethod
    def l2_regularized(cls, lam: float, alpha: float) -> "LossSpec":
        if lam <= 0 or alpha <= 0:
            raise DimensionMismatch("lambda and alpha must be positive")
        return cls(lam=lam, alpha=alpha)

    @property
    def regularized(self) -> bool:
        return self.lam > 0.0


def _check_shape(inst: McInstance, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[-2:] != (inst.n, inst.r):
        raise DimensionMismatch(
            f"factor shape {X.shape[-2:]} != ({inst.n}, {inst.r})"
        )
    return X


def masked_residual(inst: McInstance, X: np.ndarray) -> np.ndarray:
    """(X X^T - M*)_Omega, batched."""
    X = _check_shape(inst, X)
    R = X @ X.swapaxes(-1, -2)
    R *= inst.omega.mask()
    R -= inst.m_star_omega()
    return R


def value_and_gradient(inst: McInstance, loss: LossSpec, X: np.ndarray):
    """Objective and gradient from one masked residual, batched: the value is
    sum(R^2) and the gradient 4 R X, plus the regularizer's terms."""
    X = _check_shape(inst, X)
    R = masked_residual(inst, X)
    val = np.einsum("...ij,...ij->...", R, R)
    G = R @ X
    G *= 4.0
    if loss.regularized:
        t = np.linalg.norm(X, axis=-1)
        excess = np.maximum(t - loss.alpha, 0.0)
        val = val + loss.lam * np.sum(excess**4, axis=-1)
        coef = np.where(excess > 0, 4.0 * loss.lam * excess**3 / np.maximum(t, 1e-300), 0.0)
        G += coef[..., None] * X
    return (float(val) if val.ndim == 0 else val), G


def objective(inst: McInstance, loss: LossSpec, X: np.ndarray):
    return value_and_gradient(inst, loss, X)[0]


def gradient(inst: McInstance, loss: LossSpec, X: np.ndarray) -> np.ndarray:
    return value_and_gradient(inst, loss, X)[1]


def hessian_quadratic(
    inst: McInstance, loss: LossSpec, X: np.ndarray, delta: np.ndarray
) -> float:
    """Exact quadratic form of the Hessian at X along delta."""
    X = _check_shape(inst, X)
    D = _check_shape(inst, delta)
    W = inst.omega.mask()
    R = masked_residual(inst, X)
    S = (X @ D.T + D @ X.T) * W
    val = 4.0 * np.sum(R * (D @ D.T)) + 2.0 * np.sum(S * S)
    if loss.regularized:
        t = np.linalg.norm(X, axis=-1)
        excess = np.maximum(t - loss.alpha, 0.0)
        xd = np.sum(X * D, axis=-1)
        dd = np.sum(D * D, axis=-1)
        active = excess > 0
        ts = np.maximum(t, 1e-300)
        row_quad = 4.0 * loss.lam * (
            3.0 * excess**2 * xd**2 / ts**2
            + excess**3 * (dd / ts - xd**2 / ts**3)
        )
        val += float(np.sum(row_quad[active]))
    return float(val)


def dense_hessian(inst: McInstance, loss: LossSpec, X: np.ndarray) -> np.ndarray:
    """Symmetric (n*r) x (n*r) Hessian in row-major vec(X) coordinates."""
    X = _check_shape(inst, X)
    n, r = inst.n, inst.r
    W = inst.omega.mask()
    R = masked_residual(inst, X)

    H = 4.0 * np.einsum("ij,ab->iajb", R, np.eye(r))
    # self terms: 4 * sum_i W_ij X_ia X_ib on block (j, j)
    diag = 4.0 * np.einsum("ij,ia,ib->jab", W, X, X)
    idx = np.arange(n)
    H[idx, :, idx, :] += diag
    # cross terms: 4 * W_pq X_qa X_pb on block (p, q)
    H += 4.0 * np.einsum("pq,qa,pb->paqb", W, X, X)

    if loss.regularized:
        t = np.linalg.norm(X, axis=-1)
        excess = np.maximum(t - loss.alpha, 0.0)
        for i in np.nonzero(excess > 0)[0]:
            x = X[i]
            ti, ei = t[i], excess[i]
            outer = np.outer(x, x)
            H[i, :, i, :] += 4.0 * loss.lam * (
                3.0 * ei**2 * outer / ti**2
                + ei**3 * (np.eye(r) / ti - outer / ti**3)
            )
    return H.reshape(n * r, n * r)


def tangent_indices(n: int, r: int) -> np.ndarray:
    """Row-major vec indices of the lower-triangular tangent subspace (entries
    (i, a) with i < a among the first r rows removed)."""
    i, a = np.divmod(np.arange(n * r), r)
    return np.nonzero(i >= a)[0]


def min_hessian_eigen(
    inst: McInstance,
    loss: LossSpec,
    X: np.ndarray,
    subspace: str = "full",
) -> tuple[float, np.ndarray]:
    """Minimal eigenvalue and eigen-direction of the dense Hessian, optionally
    restricted to the lower-triangular tangent subspace."""
    X = _check_shape(inst, X)
    n, r = inst.n, inst.r
    H = dense_hessian(inst, loss, X)
    if subspace == "lower_triangular_tangent":
        idx = tangent_indices(n, r)
        H = H[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(H)
        direction = np.zeros(n * r)
        direction[idx] = vecs[:, 0]
    elif subspace == "full":
        vals, vecs = np.linalg.eigh(H)
        direction = vecs[:, 0]
    else:
        raise DimensionMismatch(f"unknown subspace {subspace!r}")
    return float(vals[0]), direction.reshape(n, r)


def restriction_map(X: np.ndarray) -> np.ndarray:
    """Orbit representative R with R Q = X, rows 1..r lower triangular and
    nonnegative diagonal (RQ decomposition of the leading block), batched."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    r = X.shape[-1]
    q, rt = np.linalg.qr(X[..., :r, :].swapaxes(-1, -2))  # x1^T = q rt, rt upper triangular
    signs = np.sign(np.diagonal(rt, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    # X = (X q S)(S q^T) with S q^T orthogonal; leading block of X q S is
    # rt^T S: lower triangular with nonnegative diagonal.
    return X @ q * signs[..., None, :]


def canonicalize(X: np.ndarray, tol: float = SIGN_TOL) -> np.ndarray:
    """Deterministic orbit representative, batched: restriction map, then each
    column's sign fixed so its first entry above ``tol`` is positive."""
    out = restriction_map(X)
    big = np.abs(out) > tol
    first = np.take_along_axis(out, np.argmax(big, axis=-2)[..., None, :], axis=-2)
    flip = big.any(axis=-2, keepdims=True) & (first < 0)
    return np.where(flip, -out, out)
