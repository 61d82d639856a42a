"""Factorized objective, analytic derivatives, and orbit canonicalization.

The objective is f(X) = g[(X X^T - M*)_Omega] with the l2 loss
g(R) = ||R||_F^2, optionally plus the row-norm regularizer
Q(X) = lambda * sum_i (||X_i|| - alpha)_+^4.

``value_and_gradient`` is the one objective kernel: it forms the masked
residual once and returns the value and the gradient from it; ``objective``
and ``gradient`` are its two halves. It reads Omega as padded row neighbor
lists (``MeasurementSet.cols``, (n, d) with d the largest row degree), so a
point costs O(n d r), not O(n^2 r). When 2d > n (``MeasurementSet.dense``)
the kernel forms the dense (n, n) residual on the mask instead: X X^T (an
elementwise product at r = 1, otherwise a batched matmul with a contiguous
copy of X^T as its right operand, ``MeasurementSet.dense_products``), with an
einsum value. On the row lists it gathers the observed rows and works
neighbor-major and batch-last, on (d, n, b) arrays for a stack of b points,
and sums both the gradient and the value by pairwise halving in elementwise
adds, the same way for a point alone as in a stack. Either way the observed
targets are the kernel's own products of the ground truth
(``McInstance.observed_targets``), so the residual at the truth is an exact
zero. It broadcasts over leading batch axes, so a stack of factors of shape
(B, n, r) is processed in one call, and so do the orbit maps
``restriction_map`` and ``canonicalize``. Its arithmetic lives in
``_value_and_gradient``, which also takes a stack of per-point targets,
batch-last on the row lists, so one descent can carry the starts of several
instances over one Omega. Each point's result has the same bits whatever
stack it is part of. The kernel writes its large per-step arrays (padded
rows, gathered rows and residual on the row lists; products, residual and
the copy of X^T where it is dense) into a caller's ``StepBuffers``, or
into its own when given none. One descent call passes one set to every
step, so the kernel reuses the same pages from step to step, and on the row
lists it keeps a plan for each working set in it (``_row_list_terms``):
its views, its zeroed padding row and the layout of its halving sums are
made once while the working set keeps its shape and target, not every step.
``masked_residual`` and the Hessian routines work on the dense mask;
``dense_hessian`` and ``min_hessian_eigen`` take a point or a stack, and a
point's Hessian has the same bits alone as in a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graphs import MeasurementSet, RowProducts, StepBuffers
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
        # Written so that NaN fails too.
        if not 0 < lam < np.inf or not 0 < alpha < np.inf:
            raise DimensionMismatch("lambda and alpha must be positive and finite")
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


def _residual(
    omega: MeasurementSet, target: np.ndarray, X: np.ndarray, bufs: StepBuffers | None = None
) -> np.ndarray:
    """Dense (..., n, n) residual (X X^T) * mask - target, in a view of
    ``bufs`` when it is given."""
    R = omega.dense_products(X, bufs)
    R -= target
    return R


def masked_residual(inst: McInstance, X: np.ndarray) -> np.ndarray:
    """(X X^T - M*)_Omega, batched, as a dense (..., n, n) array. M*_Omega
    (``McInstance.m_star_omega``) is formed by the same product as X X^T, so
    the residual at the truth is an exact zero, as in the kernel."""
    X = _check_shape(inst, X)
    return _residual(inst.omega, inst.m_star_omega(), X)


def value_and_gradient(inst: McInstance, loss: LossSpec, X: np.ndarray):
    """Objective and gradient from one masked residual, batched: the value is
    sum(R^2) and the gradient 4 R X, plus the regularizer's terms."""
    X = _check_shape(inst, X)
    return _value_and_gradient(inst.omega, inst.observed_targets(), loss, X)


def _value_and_gradient(
    omega: MeasurementSet, target: np.ndarray, loss: LossSpec, X: np.ndarray,
    bufs: StepBuffers | None = None,
):
    """``value_and_gradient`` of a checked (..., n, r) stack against observed
    targets in ``omega``'s layout (``McInstance.observed_targets``): one
    target for every point, or a stack of per-point targets over the same
    Omega, batch-last on the row lists, (d, n, b), and (b, n, n) where the
    kernel is dense, for the b points of the stack. A point's bits do not
    depend on which of the two forms carries its target, nor on the rest of
    the stack. ``bufs`` (``StepBuffers``) holds the kernel's per-step
    arrays: the residual, the products and the copy of X^T where the kernel
    is dense, the row-list kernel's plan (``_row_list_terms``) otherwise. The
    value and gradient come back as fresh arrays."""
    if omega.dense:
        R = _residual(omega, target, X, bufs)
        val = np.einsum("...ij,...ij->...", R, R)
        G = R @ X
    else:
        val, G = _row_list_terms(omega, target, X, bufs)
    G *= 4.0
    if loss.regularized:
        t = np.linalg.norm(X, axis=-1)
        excess = np.maximum(t - loss.alpha, 0.0)
        val = val + loss.lam * np.sum(excess**4, axis=-1)
        coef = np.where(excess > 0, 4.0 * loss.lam * excess**3 / np.maximum(t, 1e-300), 0.0)
        G += coef[..., None] * X
    return (float(val) if val.ndim == 0 else val), G


def _row_list_terms(
    omega: MeasurementSet, target: np.ndarray, X: np.ndarray, bufs: StepBuffers | None = None
):
    """sum(R^2) and sum_k R[i, k] X_cols[i, k] of the residual on Omega's
    padded row lists, R[i, k] = X_i . X_cols[i, k] - M*[i, cols[i, k]], in
    O(n d r) per point.

    The arithmetic runs neighbor-major and batch-last, on (d, n, b) arrays
    (``RowProducts``), so that each operation sweeps the stack in long loops
    even when n and d are small, and the gradient's sum over k adds
    contiguous (n, r, b) slabs. ``target`` is the (d, n)
    ``observed_targets`` of one instance, or a (d, n, b) stack of them, one
    per point. Each entry of R and of the gradient is an elementwise sum in
    a fixed order, and the value is the halving sum of a point's n d squares
    R^2 in (k, i) order, squared in place once the gradient is formed, so a
    point's bits do not depend on the stack around it.

    The call runs the plan ``bufs.plan`` (``StepBuffers``, a fresh set when
    it is None), and makes it first when the stack's shape, the target
    object or Omega differs from the plan's: a descent that passes one set
    to every call makes one plan per working set and reuses its views and
    its pages from step to step. The value and gradient come back as fresh
    arrays."""
    lead, (n, r) = X.shape[:-2], X.shape[-2:]
    X = X.reshape(-1, n, r)
    bufs = StepBuffers() if bufs is None else bufs
    plan = bufs.plan
    if plan is None or plan.omega is not omega or plan.target is not target or plan.shape != X.shape:
        plan = bufs.plan = _RowListPlan(omega, target, X.shape, bufs)
    val, G = plan(X)
    return val.reshape(lead), G.reshape(lead + (n, r))


class _RowListPlan:
    """``_row_list_terms`` for one working set: the ``RowProducts`` of its
    shape, the target as the residual subtracts it, and the in-place adds of
    both halving sums (over k for the gradient, over (k, i) for the value)
    as pairs of fixed views, all views of ``bufs``."""

    def __init__(self, omega: MeasurementSet, target: np.ndarray, shape: tuple, bufs: StepBuffers):
        self.omega, self.target, self.shape = omega, target, shape
        self.products = RowProducts(omega, shape, bufs)
        Xg, R = self.products.Xg, self.products.P
        d, n, b = R.shape
        self.subtrahend = target[..., None] if target.ndim == 2 else target
        self.weights = R[:, :, None]
        self.grad_adds, G = _halving_adds(Xg)
        self.grad = G.transpose(2, 0, 1)
        self.value_adds, self.value = _halving_adds(R.reshape(d * n, b))

    def __call__(self, X: np.ndarray):
        Xg, R = self.products(X)
        R -= self.subtrahend
        # Row i of the gradient sums R[i, k] Xg[k, i] over k: the products
        # are formed in place, then summed by pairwise halving. Nothing reads
        # R after that, so it is squared in place and summed the same way.
        Xg *= self.weights
        for dst, src in self.grad_adds:
            dst += src
        G = self.grad.copy()
        R *= R
        for dst, src in self.value_adds:
            dst += src
        return self.value.copy(), G


def _halving_adds(A: np.ndarray):
    """The sum of A over its first axis by pairwise halving, laid out once
    for A's buffer: the (dst, src) view pairs whose in-place adds
    ``dst += src``, made in order, leave the sum in the returned view A[0]
    (zeros when the axis is empty). They are elementwise adds only, so each entry's bits do not depend on the
    sizes of the other axes: the row-list kernel's sum of the gradient over a
    row's neighbors, and of a point's squared residuals. Its error bound is
    O(eps log L) for L terms, as for numpy's pairwise sum."""
    adds = []
    while len(A) > 1:
        h, odd = divmod(len(A), 2)
        adds.append((A[:h], A[h : 2 * h]))
        if odd:
            adds.append((A[h - 1], A[-1]))
        A = A[:h]
    return adds, A[0] if len(A) else np.zeros(A.shape[1:])


def objective(inst: McInstance, loss: LossSpec, X: np.ndarray):
    return value_and_gradient(inst, loss, X)[0]


def gradient(inst: McInstance, loss: LossSpec, X: np.ndarray) -> np.ndarray:
    return value_and_gradient(inst, loss, X)[1]


def dense_hessian(inst: McInstance, loss: LossSpec, X: np.ndarray) -> np.ndarray:
    """Symmetric (n*r) x (n*r) Hessian in row-major vec(X) coordinates, of a
    point, or (K, n*r, n*r) of a (K, n, r) stack. A point's Hessian has the
    same bits alone as in a stack."""
    X = _check_shape(inst, X)
    n, r = inst.n, inst.r
    single = X.ndim == 2
    X = X[None] if single else X
    W = inst.omega.mask()
    R = masked_residual(inst, X)

    H = 4.0 * np.einsum("...ij,ab->...iajb", R, np.eye(r))
    # self terms: 4 * sum_i W_ij X_ia X_ib on block (j, j)
    diag = 4.0 * np.einsum("ij,...ia,...ib->...jab", W, X, X)
    H[np.arange(len(X))[:, None], np.arange(n), :, np.arange(n), :] += diag
    # cross terms: 4 * W_pq X_qa X_pb on block (p, q)
    H += 4.0 * np.einsum("pq,...qa,...pb->...paqb", W, X, X)

    if loss.regularized:
        t = np.linalg.norm(X, axis=-1)
        # The blocks of the rows with ||X_i|| > alpha, as an (m, r, r) stack.
        k, i = np.nonzero(t > loss.alpha)
        x, ti = X[k, i], t[k, i, None, None]
        ei = ti - loss.alpha
        outer = x[:, :, None] * x[:, None, :]
        H[k, i, :, i, :] += 4.0 * loss.lam * (
            3.0 * ei**2 * outer / ti**2
            + ei**3 * (np.eye(r) / ti - outer / ti**3)
        )
    H = H.reshape(len(X), n * r, n * r)
    return H[0] if single else H


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
    restricted to the lower-triangular tangent subspace; of a (K, n, r)
    stack, (K,) eigenvalues and (K, n, r) directions."""
    lam, direction = _min_eigen(dense_hessian(inst, loss, X), inst.n, inst.r, subspace)
    return (float(lam), direction) if lam.ndim == 0 else (lam, direction)


def _min_eigen(H: np.ndarray, n: int, r: int, subspace: str):
    """``min_hessian_eigen`` of given (..., n*r, n*r) Hessians, from one
    batched ``eigh``: the (...) minimal eigenvalues and (..., n, r)
    eigen-directions."""
    if subspace == "lower_triangular_tangent":
        idx = tangent_indices(n, r)
        vals, vecs = np.linalg.eigh(H[..., idx[:, None], idx])
        direction = np.zeros(H.shape[:-1])
        direction[..., idx] = vecs[..., 0]
    elif subspace == "full":
        vals, vecs = np.linalg.eigh(H)
        direction = vecs[..., 0]
    else:
        raise DimensionMismatch(f"unknown subspace {subspace!r}")
    return vals[..., 0], direction.reshape(H.shape[:-2] + (n, r))


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


def canonicalize(X: np.ndarray) -> np.ndarray:
    """Deterministic orbit representative, batched: restriction map, then each
    column's sign fixed so its first entry above ``SIGN_TOL`` is positive."""
    out = restriction_map(X)
    big = np.abs(out) > SIGN_TOL
    first = np.take_along_axis(out, np.argmax(big, axis=-2)[..., None, :], axis=-2)
    flip = big.any(axis=-2, keepdims=True) & (first < 0)
    return np.where(flip, -out, out)
