"""Ground-truth factors, perturbations, and MC instance assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidS, MissingGraph, ZeroMatrix
from .graphs import BlockSparsityGraph, MeasurementSet, analyze_graph, gram


@dataclass
class McInstance:
    """A matrix-completion instance with PSD rank-<=r ground truth X* X*^T.

    The ground truth is stored as its factor; the full matrix is only
    materialized on demand. ``s_vertices`` records the independent set used by
    the canonical construction, when applicable.
    """

    n: int
    r: int
    x_star: np.ndarray
    omega: MeasurementSet
    graph: BlockSparsityGraph | None = None
    s_vertices: frozenset | None = None

    def __post_init__(self):
        self.x_star = np.asarray(self.x_star, dtype=float)
        if self.x_star.shape != (self.n, self.r):
            raise DimensionMismatch(
                f"factor shape {self.x_star.shape} != ({self.n}, {self.r})"
            )
        if not np.all(np.isfinite(self.x_star)):
            raise DimensionMismatch("factor has non-finite entries")
        if self.omega.n != self.n:
            raise DimensionMismatch(
                f"omega is over [{self.omega.n}]^2, instance has n={self.n}"
            )
        self._m_omega = None
        self._targets = None

    def m_star(self) -> np.ndarray:
        """M* = X* X*^T, formed as the kernel forms its products (``gram``)."""
        return gram(self.x_star)

    def m_star_omega(self) -> np.ndarray:
        """Observed entries of M*, the kernel's dense products, cached (write-once)."""
        if self._m_omega is None:
            mo = self.omega.dense_products(self.x_star)
            mo.setflags(write=False)
            self._m_omega = mo
        return self._m_omega

    def observed_targets(self) -> np.ndarray:
        """Observed entries of M* in Omega's (n, d) row-list layout, cached
        (write-once). On either layout they are the objective kernel's own
        products of the ground truth, so that its residual there is exactly
        zero; on the identity layout they are ``m_star_omega()``."""
        if self._targets is None:
            if self.omega.dense:
                t = self.m_star_omega()
            else:
                t = self.omega.row_products(self.x_star[None])[1][..., 0]
            t.setflags(write=False)
            self._targets = t
        return self._targets

    def omega_scale(self) -> float:
        return float(np.linalg.norm(self.m_star_omega()))


@dataclass(frozen=True)
class MembershipReport:
    psd_rank_r: bool
    all_blocks_full_rank: bool
    g1_connected_nonbipartite: bool

    @property
    def in_class(self) -> bool:
        return (
            self.psd_rank_r
            and self.all_blocks_full_rank
            and self.g1_connected_nonbipartite
        )


def build_canonical_ground_truth(
    g: BlockSparsityGraph, S, n: int, r: int
) -> np.ndarray:
    """Factor with identity blocks on S and zero blocks elsewhere (n = m*r)."""
    S = frozenset(int(v) for v in S)
    if not S <= set(range(1, g.m + 1)):
        raise InvalidS("S must be a subset of [1, m]")
    if n != g.m * r:
        raise DimensionMismatch(f"canonical construction needs n = m*r = {g.m * r}")
    x = np.zeros((n, r))
    for v in S:
        x[(v - 1) * r : v * r, :] = np.eye(r)
    return x


def perturb(x_star: np.ndarray, gamma: float, seed: int) -> np.ndarray:
    """x* + gamma * eps with eps Gaussian, normalized to unit Frobenius norm."""
    # Written so that NaN fails too.
    if not gamma >= 0:
        raise DimensionMismatch("gamma must be nonnegative")
    x_star = np.asarray(x_star, dtype=float)
    if gamma == 0.0:
        return x_star.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eps = rng.standard_normal(x_star.shape)
    eps /= np.linalg.norm(eps)
    return x_star + gamma * eps


def assemble_instance(
    x_star_eps: np.ndarray,
    omega: MeasurementSet,
    graph: BlockSparsityGraph | None = None,
    s_vertices=None,
) -> McInstance:
    x = np.asarray(x_star_eps, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, r = x.shape
    if omega.n != n:
        raise DimensionMismatch(f"omega n={omega.n} but factor has n={n}")
    return McInstance(
        n=n,
        r=r,
        x_star=x,
        omega=omega,
        graph=graph,
        s_vertices=frozenset(int(v) for v in s_vertices) if s_vertices else None,
    )


def check_class_membership(inst: McInstance, rank_tol: float = 1e-10) -> MembershipReport:
    """Low-complexity-class conditions: rank-r PSD ground truth, full-rank
    blocks, connected non-bipartite G1."""
    if inst.graph is None:
        raise MissingGraph("instance has no generating graph attached")
    m, r = inst.graph.m, inst.r
    M = inst.m_star()
    sigma_scale = float(np.linalg.norm(M, 2))
    threshold = rank_tol * max(sigma_scale, 1e-300)

    svals = np.linalg.svd(inst.x_star, compute_uv=False)
    psd_rank_r = bool(svals.min(initial=np.inf) ** 2 > threshold) and inst.x_star.shape[1] == r

    blocks_ok = True
    for i in range(m):
        for j in range(m):
            block = M[i * r : (i + 1) * r, j * r : (j + 1) * r]
            if np.linalg.svd(block, compute_uv=False).min() <= threshold:
                blocks_ok = False
                break
        if not blocks_ok:
            break

    ga = analyze_graph(inst.graph)
    return MembershipReport(
        psd_rank_r=psd_rank_r,
        all_blocks_full_rank=blocks_ok,
        g1_connected_nonbipartite=ga.connected and ga.nonbipartite,
    )


def compute_incoherence(inst: McInstance) -> float:
    """mu = (n/r) * max_i ||row i of U||^2, U an orthonormal column-space basis."""
    u, s, _ = np.linalg.svd(inst.x_star, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(s.max(initial=0.0), 1e-300)))
    if rank == 0:
        raise ZeroMatrix("ground truth is the zero matrix")
    u = u[:, :rank]
    row_norms = np.sum(u * u, axis=1)
    return float(inst.n / rank * row_norms.max())


def random_block_factor(m: int, r: int, seed: int, n: int | None = None) -> np.ndarray:
    """Gaussian factor; generic, so all r x r blocks are full rank."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = m * r if n is None else n
    return rng.standard_normal((n, r))
