"""Block sparsity graphs and the measurement sets they induce.

Vertices are 1-based (``1..m``) everywhere in this module, matching the
on-disk JSON format. An edge in ``e1`` observes the whole r x r block of the
ground truth matrix; an edge in ``e2`` observes only the off-diagonal entries
of its block. Self-loops are legal in ``e1`` only and are always stored
explicitly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyS,
    InvalidParams,
    SNotRealizable,
    UnknownPattern,
)

Edge = tuple[int, int]


def _norm(i: int, j: int) -> Edge:
    return (i, j) if i <= j else (j, i)


def gram(X: np.ndarray) -> np.ndarray:
    """X X^T of a (..., n, r) stack, (..., n, n): an elementwise outer
    product at r = 1, otherwise a batched matmul whose right operand is a
    contiguous copy of X^T. A transposed view there is several times slower,
    and at some n its rounding differs from the contiguous form's; the
    contiguous product has the same bits for a point alone as in a stack."""
    if X.shape[-1] == 1:
        return X * X.swapaxes(-1, -2)
    return X @ np.ascontiguousarray(X.swapaxes(-1, -2))


@dataclass(frozen=True)
class BlockSparsityGraph:
    """Pair of edge sets over m block-vertices."""

    m: int
    e1: frozenset
    e2: frozenset

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParams("m must be >= 1")
        e1 = frozenset(_norm(*e) for e in self.e1)
        e2 = frozenset(_norm(*e) for e in self.e2)
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
        for (i, j) in e1 | e2:
            if not (1 <= i <= self.m and 1 <= j <= self.m):
                raise InvalidParams(f"edge ({i},{j}) outside [1,{self.m}]")
        if e1 & e2:
            raise InvalidParams("e1 and e2 must be disjoint")
        if any(i == j for (i, j) in e2):
            raise InvalidParams("e2 must not contain self-loops")

    def self_loops(self) -> set:
        return {i for (i, j) in self.e1 if i == j}

    def adjacency(self) -> dict:
        """Neighbor lists over e1, self-loops excluded."""
        adj = {v: [] for v in range(1, self.m + 1)}
        for (i, j) in sorted(self.e1):
            if i != j:
                adj[i].append(j)
                adj[j].append(i)
        return adj

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "e1": sorted(list(e) for e in self.e1),
            "e2": sorted(list(e) for e in self.e2),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockSparsityGraph":
        return cls(
            m=int(obj["m"]),
            e1=frozenset(tuple(e) for e in obj["e1"]),
            e2=frozenset(tuple(e) for e in obj["e2"]),
        )


class MeasurementSet:
    """Symmetric set of observed entries of an n x n matrix, held as a
    read-only 0/1 mask; ``entries`` lists them 1-based.

    The objective kernel reads Omega as padded row neighbor lists, built
    from the mask on first use and cached (read-only): row i observes the
    columns ``cols[i, k]`` with ``valid[i, k] = 1``, in increasing order, and
    the (n, d) arrays are padded to the largest row degree d. A padding
    entry has ``valid`` 0 and names column n, which does not exist:
    ``row_products`` reads it as a zero row. When 2d > n the lists are the
    identity layout instead (``dense``): d = n, ``cols[i] = arange(n)``, and
    ``valid`` is the mask itself.
    """

    def __init__(self, n: int, r: int, mask: np.ndarray):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (n, n):
            raise InvalidParams(f"mask shape {mask.shape} != ({n}, {n})")
        asym = np.argwhere(mask & ~mask.T)
        if asym.size:
            i, j = asym[0] + 1
            raise InvalidParams(f"entry ({i},{j}) present without ({j},{i})")
        # Kernels multiply by the mask, and a float factor is cheaper there
        # than a boolean one.
        self.n, self.r, self._mask = n, r, mask.astype(float)
        self._mask.setflags(write=False)

    @classmethod
    def from_entries(cls, n: int, r: int, entries) -> "MeasurementSet":
        """Measurement set from 1-based (i, j) pairs, as stored on disk."""
        pairs = sorted(entries)
        ij = np.array(pairs, dtype=int).reshape(len(pairs), 2)
        outside = ij[((ij < 1) | (ij > n)).any(axis=1)]
        if outside.size:
            raise InvalidParams(f"entry ({outside[0, 0]},{outside[0, 1]}) outside [1,{n}]^2")
        mask = np.zeros((n, n), dtype=bool)
        mask[ij[:, 0] - 1, ij[:, 1] - 1] = True
        return cls(n, r, mask)

    def mask(self) -> np.ndarray:
        return self._mask

    @cached_property
    def _lists(self) -> tuple[np.ndarray, np.ndarray]:
        observed = self._mask > 0
        degree = np.count_nonzero(observed, axis=1)
        d = int(degree.max(initial=0))
        if 2 * d > self.n:
            cols, valid = np.tile(np.arange(self.n), (self.n, 1)), self._mask
        else:
            valid = (np.arange(d) < degree[:, None]).astype(float)
            valid.setflags(write=False)
            # A stable sort puts each row's observed columns first, in order;
            # padding entries name column n, which does not exist.
            cols = np.argsort(~observed, axis=1, kind="stable")[:, :d]
            cols = np.where(valid > 0, cols, self.n)
        cols.setflags(write=False)
        return cols, valid

    @property
    def cols(self) -> np.ndarray:
        return self._lists[0]

    @property
    def valid(self) -> np.ndarray:
        return self._lists[1]

    @property
    def dense(self) -> bool:
        """Whether the row lists are the identity layout, d = n."""
        return self.cols.shape[1] == self.n

    def dense_products(self, X: np.ndarray) -> np.ndarray:
        """The products ``gram(X) * mask`` of a (..., n, r) stack, (..., n, n)."""
        P = gram(X)
        P *= self._mask
        return P

    def row_products(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The products X_i . X_cols[i, k] of a (b, n, r) stack on the
        padded row lists, batch-last: the gathered rows Xg, (n, d, r, b),
        and the products, (n, d, b), with the rank summed in order and 0 on
        padding entries."""
        b, n, r = X.shape
        Xt = np.zeros((n + 1, r, b))
        Xt[:n] = X.transpose(1, 2, 0)
        Xg = Xt[self.cols]
        P = Xt[:n, None, 0] * Xg[:, :, 0]
        for a in range(1, r):
            P += Xt[:n, None, a] * Xg[:, :, a]
        return Xg, P

    @property
    def entries(self) -> frozenset:
        return frozenset(map(tuple, self.to_json()))

    def __len__(self):
        return int(np.count_nonzero(self._mask))

    def to_json(self) -> list:
        """Sorted 1-based [i, j] pairs."""
        return (np.argwhere(self._mask) + 1).tolist()


@dataclass(frozen=True)
class GraphAnalysis:
    connected: bool
    nonbipartite: bool
    odd_cycle: tuple | None
    max_independent_set: frozenset
    all_mis_have_self_loops: bool


def build_named_pattern(name: str, **params) -> BlockSparsityGraph:
    """Construct one of the fixed measurement patterns.

    ``example1_path`` and ``example2_even_cross`` take ``n`` (rank-1 block
    count); the others take ``m``, with ``cross``/``augmented_cross`` taking
    an additional hub index ``k``.
    """
    if name == "example1_path":
        n = _require_int(params, "n", minimum=2)
        e1 = {(i, i) for i in range(1, n + 1)} | {(i, i + 1) for i in range(1, n)}
        return BlockSparsityGraph(n, frozenset(e1), frozenset())
    if name == "example2_even_cross":
        n = _require_int(params, "n", minimum=2)
        e1 = {(i, i) for i in range(1, n + 1)}
        for k in range(1, n // 2 + 1):
            for i in range(1, n + 1):
                e1.add(_norm(i, 2 * k))
        return BlockSparsityGraph(n, frozenset(e1), frozenset())
    if name == "star":
        m = _require_int(params, "m", minimum=2)
        e1 = {(1, j) for j in range(2, m + 1)} | {(j, j) for j in range(2, m + 1)}
        return BlockSparsityGraph(m, frozenset(e1), frozenset())
    if name == "single_missing":
        m = _require_int(params, "n", minimum=3, alt="m")
        e1 = {(i, j) for i in range(1, m + 1) for j in range(i, m + 1)} - {(1, 2)}
        return BlockSparsityGraph(m, frozenset(e1), frozenset())
    if name == "single_missing_rank_r":
        m = _require_int(params, "m", minimum=3)
        e1 = {(i, j) for i in range(1, m + 1) for j in range(i, m + 1)} - {(1, 2)}
        return BlockSparsityGraph(m, frozenset(e1), frozenset({(1, 2)}))
    if name == "cross":
        m = _require_int(params, "m", minimum=2)
        k = _require_int(params, "k", minimum=1)
        if k > m:
            raise InvalidParams(f"k={k} not in [1,{m}]")
        e1 = {_norm(k, j) for j in range(1, m + 1)}
        return BlockSparsityGraph(m, frozenset(e1), frozenset())
    if name == "augmented_cross":
        m = _require_int(params, "m", minimum=2)
        k = _require_int(params, "k", minimum=1)
        if k > m:
            raise InvalidParams(f"k={k} not in [1,{m}]")
        e1 = {_norm(k, j) for j in range(1, m + 1)}
        e1 |= {(i, i) for i in range(1, m + 1)}
        # The induced measurement set needs disjoint edge sets; off-diagonal
        # pairs already observed in full via e1 are dropped from e2.
        e2 = {
            _norm(i, j)
            for i in range(1, m + 1)
            for j in range(1, m + 1)
            if i != j and _norm(i, j) not in e1
        }
        return BlockSparsityGraph(m, frozenset(e1), frozenset(e2))
    raise UnknownPattern(name)


def _require_int(params: dict, key: str, minimum: int, alt: str | None = None):
    val = params.get(key)
    if val is None and alt is not None:
        val = params.get(alt)
    if val is None:
        raise InvalidParams(f"missing parameter {key!r}")
    val = int(val)
    if val < minimum:
        raise InvalidParams(f"{key}={val} must be >= {minimum}")
    return val


def random_spanning_tree(vertices, rng) -> frozenset:
    """Prim's construction over a random vertex/edge order."""
    verts = sorted(vertices)
    if len(verts) <= 1:
        return frozenset()
    order = [verts[i] for i in rng.permutation(len(verts))]
    in_tree = [order[0]]
    edges = set()
    for v in order[1:]:
        partner = in_tree[int(rng.integers(len(in_tree)))]
        edges.add(_norm(v, partner))
        in_tree.append(v)
    return frozenset(edges)


def build_erdos_renyi(m: int, p: float, target_S, seed: int) -> BlockSparsityGraph:
    """G(m, p) on e1, repaired so target_S is a maximal independent set of
    self-loop vertices and the graph is connected; e2 is a random spanning
    tree on target_S.
    """
    S = frozenset(int(v) for v in target_S)
    if not S:
        raise EmptyS("target_S must be nonempty")
    if not S <= set(range(1, m + 1)):
        raise InvalidParams("target_S must be a subset of [1, m]")
    if not 0.0 <= p <= 1.0:
        raise InvalidParams(f"p={p} not in [0, 1]")
    if len(S) == m:
        raise SNotRealizable("|S| = m leaves no vertex to connect through")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    e1 = set()
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if rng.random() < p:
                e1.add((i, j))
    # S must be independent in G1.
    e1 = {e for e in e1 if not (e[0] in S and e[1] in S)}
    # Every S vertex carries a self-loop.
    e1 |= {(v, v) for v in sorted(S)}
    # Maximality: every vertex outside S must see S.
    adj = _adj(e1, m)
    s_min = min(S)
    for v in range(1, m + 1):
        if v not in S and not any(u in S for u in adj[v]):
            e1.add(_norm(v, s_min))
    # Connectivity: attach stray components through non-S vertices.
    adj = _adj(e1, m)
    comps = _components(adj, m)
    main = comps[0]
    anchor = min(v for v in range(1, m + 1) if v not in S)
    for comp in comps[1:]:
        non_s = sorted(v for v in comp if v not in S)
        if non_s:
            e1.add(_norm(non_s[0], min(main)))
        else:
            e1.add(_norm(min(comp), anchor))
        main = main | comp

    e2 = random_spanning_tree(S, rng)
    e2 = frozenset(e for e in e2 if _norm(*e) not in e1)
    return BlockSparsityGraph(m, frozenset(e1), e2)


def _adj(e1, m):
    adj = {v: set() for v in range(1, m + 1)}
    for (i, j) in e1:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def _components(adj, m):
    seen = set()
    comps = []
    for start in range(1, m + 1):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(comp)
    return comps


def analyze_graph(g: BlockSparsityGraph) -> GraphAnalysis:
    """Connectivity, bipartiteness witness, and a greedy maximal independent
    set preferring self-loop vertices in ascending index order."""
    adj = g.adjacency()
    comps = _components({v: set(a) for v, a in adj.items()}, g.m)
    connected = len(comps) == 1

    odd_cycle = _find_odd_cycle(g, adj)
    nonbipartite = odd_cycle is not None

    loops = g.self_loops()
    mis = []
    chosen = set()
    blocked = set()
    for v in sorted(loops) + sorted(set(range(1, g.m + 1)) - loops):
        if v not in blocked:
            chosen.add(v)
            mis.append(v)
            blocked.add(v)
            blocked.update(adj[v])
    mis_set = frozenset(chosen)
    return GraphAnalysis(
        connected=connected,
        nonbipartite=nonbipartite,
        odd_cycle=odd_cycle,
        max_independent_set=mis_set,
        all_mis_have_self_loops=mis_set <= loops,
    )


def _find_odd_cycle(g: BlockSparsityGraph, adj) -> tuple | None:
    loops = g.self_loops()
    if loops:
        return (min(loops),)
    color = {}
    for start in range(1, g.m + 1):
        if start in color:
            continue
        color[start] = 0
        parent = {start: None}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    parent[u] = v
                    queue.append(u)
                elif color[u] == color[v]:
                    return _cycle_from_conflict(v, u, parent)
    return None


def _cycle_from_conflict(v, u, parent):
    path_v, path_u = [v], [u]
    seen = {v: 0}
    x = v
    while parent[x] is not None:
        x = parent[x]
        seen[x] = len(path_v)
        path_v.append(x)
    x = u
    while x not in seen:
        x = parent[x]
        path_u.append(x)
    lca_idx = seen[x]
    cycle = path_v[: lca_idx + 1] + list(reversed(path_u[:-1]))
    return tuple(cycle)


def induce_measurement_set(g: BlockSparsityGraph, n: int, r: int) -> MeasurementSet:
    """Measurement set induced by the block sparsity graph: full blocks for
    e1, off-diagonal block entries for e2, trailing n - m*r rows and columns
    fully observed."""
    if n < g.m * r:
        raise DimensionMismatch(f"need n >= m*r = {g.m * r}, got n = {n}")
    w = np.zeros((n, n), dtype=bool)
    for (i, j) in g.e1:
        ri, rj = (i - 1) * r, (j - 1) * r
        w[ri : ri + r, rj : rj + r] = True
        w[rj : rj + r, ri : ri + r] = True
    offdiag = ~np.eye(r, dtype=bool)
    for (i, j) in g.e2:
        ri, rj = (i - 1) * r, (j - 1) * r
        w[ri : ri + r, rj : rj + r] |= offdiag
        w[rj : rj + r, ri : ri + r] |= offdiag
    mr = g.m * r
    if mr < n:
        w[mr:, :] = True
        w[:, mr:] = True
    return MeasurementSet(n, r, w)


def full_measurement_set(n: int, r: int = 1) -> MeasurementSet:
    return MeasurementSet(n, r, np.ones((n, n), dtype=bool))
