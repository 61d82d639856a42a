"""Exact recovery of M* from a graph-induced measurement set.

The solver chains observed blocks around an odd cycle of G1 to obtain
X_1 X_1^T, Cholesky-factors it, and then propagates block factors over a BFS
tree of G1. Trailing rows beyond m*r are read from the fully observed border.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, MissingGraph, NoOddCycle, NotPSD, SingularBlock
from .graphs import analyze_graph
from .instances import McInstance

SINGULAR_REL_TOL = 1e-12


@dataclass
class CompletionResult:
    recovered_factor: np.ndarray
    operations_estimate: int


def _checked(block: np.ndarray, what: str) -> np.ndarray:
    svals = np.linalg.svd(block, compute_uv=False)
    if svals.min() <= SINGULAR_REL_TOL * max(svals.max(), 1e-300):
        raise SingularBlock(f"{what} is rank-deficient")
    return block


def solve_by_propagation(inst: McInstance) -> CompletionResult:
    """Recover a factor X with X X^T = M* exactly (up to rounding), using only
    blocks observed under the instance graph."""
    if inst.graph is None:
        raise MissingGraph("propagation solver needs the generating graph")
    g = inst.graph
    m, r, n = g.m, inst.r, inst.n
    analysis = analyze_graph(g)
    if not analysis.connected:
        raise Disconnected("G1 is not connected")
    if not analysis.nonbipartite:
        raise NoOddCycle("G1 is bipartite; no odd cycle exists")
    cycle = analysis.odd_cycle
    ops = g.m * g.m  # BFS / bookkeeping scale
    M = inst.m_star()

    def block(i: int, j: int) -> np.ndarray:
        """Observed block M*_{i,j} (1-based block indices), checked full rank."""
        return _checked(M[(i - 1) * r : i * r, (j - 1) * r : j * r], f"block ({i},{j})")

    # Chain the odd cycle c1..c_{2k+1}: the product
    # [prod_i M_{c(2i-1),c(2i)} M_{c(2i),c(2i+1)}^{-T}] M_{c(2k+1),c1}
    # equals X_{c1} X_{c1}^T using observed blocks only.
    anchor = cycle[0]
    prod = np.eye(r)
    k = (len(cycle) - 1) // 2
    for i in range(k):
        a, b, c = cycle[2 * i], cycle[2 * i + 1], cycle[2 * i + 2]
        mab, mbc = block(a, b), block(b, c)
        # mab @ mbc^{-T} via a pivoted solve on mbc^T
        prod = prod @ np.linalg.solve(mbc, mab.T).T
        ops += 2 * r**3
    gram = prod @ block(cycle[-1], anchor)
    gram = 0.5 * (gram + gram.T)
    _checked(gram, "chained anchor Gram matrix")
    try:
        anchor_factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NotPSD("chained anchor Gram matrix is not PSD") from exc
    ops += r**3

    # BFS over G1 recovering X_j R from M_{j,i} = (X_j R)(X_i R)^T.
    blocks = {anchor: anchor_factor}
    adj = g.adjacency()
    queue = deque([anchor])
    while queue:
        i = queue.popleft()
        xi = blocks[i]
        for j in adj[i]:
            if j in blocks:
                continue
            blocks[j] = np.linalg.solve(xi, block(j, i).T).T
            ops += r**3
            queue.append(j)
    if len(blocks) != m:
        raise Disconnected("BFS did not reach every block vertex")

    x_hat = np.zeros((n, r))
    for i in range(1, m + 1):
        x_hat[(i - 1) * r : i * r, :] = blocks[i]
    if n > m * r:
        # Trailing rows are fully observed: solve against the anchor block.
        tail = M[m * r :, (anchor - 1) * r : anchor * r]
        x_hat[m * r :, :] = np.linalg.solve(anchor_factor, tail.T).T
        ops += (n - m * r) * r * r
    return CompletionResult(recovered_factor=x_hat, operations_estimate=ops)
