"""Block sparsity graphs and the measurement sets they induce.

Vertices are 1-based (``1..m``) everywhere in this module, matching the
on-disk JSON format. An edge in ``e1`` observes the whole r x r block of the
ground truth matrix; an edge in ``e2`` observes only the off-diagonal entries
of its block. Self-loops are legal in ``e1`` only and are always stored
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def gram(X: np.ndarray, bufs: StepBuffers | None = None) -> np.ndarray:
    """X X^T of a (..., n, r) stack, (..., n, n): an elementwise outer
    product at r = 1, otherwise a batched matmul whose right operand is a
    contiguous copy of X^T. A transposed view there is several times slower,
    and at some n its rounding differs from the contiguous form's; the
    contiguous product has the same bits for a point alone as in a stack.
    With ``bufs`` (``StepBuffers``) the product and the copy of X^T are
    views of its buffers, with the same bits as fresh arrays."""
    XT = X.swapaxes(-1, -2)
    out = None if bufs is None else bufs.take("gram", X.shape[:-1] + X.shape[-2:-1])
    if X.shape[-1] == 1:
        return np.multiply(X, XT, out=out)
    if bufs is None:
        XT = np.ascontiguousarray(XT)
    else:
        copy = bufs.take("gram_XT", XT.shape)
        copy[...] = XT
        XT = copy
    return np.matmul(X, XT, out=out)


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
        return _neighbors(self.e1, self.m)

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


class StepBuffers:
    """Flat float buffers, one per name, that the objective kernel writes its
    per-step arrays into, so that a descent reuses its pages from step to
    step instead of drawing fresh ones. ``take(name, shape)`` views the
    buffer as a contiguous array of ``shape``, growing it first if it is too
    small; the view holds whatever the buffer's last user left there.

    ``plan`` is the row-list kernel's plan for the working set it last saw
    (``landscape._row_list_terms``): views of these buffers that hold while
    the working set keeps its shape and target, so that a descent takes its
    views, zeroes its padding row and lays out its sums once per working
    set, not once per step."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}
        self.plan = None

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


class RowProducts:
    """The products X_i . X_cols[i, k] of (b, n, r) stacks on Omega's padded
    row lists, formed in fixed views of ``bufs`` (``StepBuffers``) for one
    stack shape: calling it with a stack returns the gathered rows Xg,
    (d, n, r, b) with ``Xg[k, i] = X_cols[i, k]``, and the products P,
    (d, n, b), with the rank summed in order and 0 on padding entries, both
    neighbor-major and batch-last. They hold until the next call, or until
    another user takes the same buffers."""

    def __init__(self, omega: MeasurementSet, shape: tuple, bufs: StepBuffers):
        b, n, r = shape
        self.cols_t = omega._lists[1]
        d = len(self.cols_t)
        # The transposed stack and a padding row, which calls never write:
        # it is zeroed here, once for this view.
        self.Xt = bufs.take("Xt", (n + 1, r, b))
        self.Xt[n] = 0.0
        self.rows = self.Xt[:n]
        self.Xg = bufs.take("Xg", (d, n, r, b))
        self.P = bufs.take("R", (d, n, b))
        # The factors of each rank's term, summed in order.
        ranks = [(self.rows[:, a], self.Xg[:, :, a]) for a in range(r)]
        self.first, self.rest = ranks[0], ranks[1:]
        self.term = bufs.take("term", (d, n, b)) if r > 1 else None

    def __call__(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        np.copyto(self.rows, X.transpose(1, 2, 0))
        # Every index is in range, so "clip" gathers exactly, and unlike the
        # default "raise" it writes straight into ``out``.
        self.Xt.take(self.cols_t, axis=0, out=self.Xg, mode="clip")
        np.multiply(*self.first, out=self.P)
        for x, g in self.rest:
            self.P += np.multiply(x, g, out=self.term)
        return self.Xg, self.P


class MeasurementSet:
    """Symmetric set of observed entries of an n x n matrix, held as a
    read-only 0/1 mask and as the padded row neighbor lists of the same
    entries, built from the mask on first use and cached (read-only): row i
    observes the columns ``cols[i, k]`` below n, in increasing order, and
    the (n, d) array is padded to the largest row degree d with column n,
    which does not exist (``RowProducts`` reads it as a zero row).

    ``dense`` (2d > n) says only which arithmetic the objective kernel uses:
    the dense (n, n) products on the mask (``dense_products``), or the row
    lists (``RowProducts``). That works neighbor-major and batch-last:
    entry (i, k) of the lists is element [k, i] of its (d, n, ...) arrays,
    so that slab k holds every row's k-th neighbor, for every point of the
    stack.
    """

    def __init__(self, n: int, mask: np.ndarray):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (n, n):
            raise InvalidParams(f"mask shape {mask.shape} != ({n}, {n})")
        asym = np.argwhere(mask & ~mask.T)
        if asym.size:
            i, j = asym[0] + 1
            raise InvalidParams(f"entry ({i},{j}) present without ({j},{i})")
        # Kernels multiply by the mask, and a float factor is cheaper there
        # than a boolean one.
        self.n, self._mask = n, mask.astype(float)
        self._mask.setflags(write=False)

    @classmethod
    def from_entries(cls, n: int, entries) -> "MeasurementSet":
        """Measurement set from 1-based (i, j) pairs, as stored on disk."""
        pairs = sorted(entries)
        ij = np.array(pairs, dtype=int).reshape(len(pairs), 2)
        outside = ij[((ij < 1) | (ij > n)).any(axis=1)]
        if outside.size:
            raise InvalidParams(f"entry ({outside[0, 0]},{outside[0, 1]}) outside [1,{n}]^2")
        mask = np.zeros((n, n), dtype=bool)
        mask[ij[:, 0] - 1, ij[:, 1] - 1] = True
        return cls(n, mask)

    def mask(self) -> np.ndarray:
        return self._mask

    @cached_property
    def _lists(self) -> tuple[np.ndarray, np.ndarray]:
        observed = self._mask > 0
        degree = np.count_nonzero(observed, axis=1)
        d = int(degree.max(initial=0))
        # A stable sort puts each row's observed columns first, in order;
        # padding entries name column n, which does not exist.
        cols = np.argsort(~observed, axis=1, kind="stable")[:, :d]
        cols = np.where(np.arange(d) < degree[:, None], cols, self.n)
        # The neighbor-major (d, n) copy that ``RowProducts`` gathers with.
        cols_t = np.ascontiguousarray(cols.T)
        for a in (cols, cols_t):
            a.setflags(write=False)
        return cols, cols_t

    @property
    def cols(self) -> np.ndarray:
        return self._lists[0]

    @cached_property
    def dense(self) -> bool:
        """Whether the kernel forms dense (n, n) products: 2d > n."""
        return 2 * self.cols.shape[1] > self.n

    def dense_products(self, X: np.ndarray, bufs: StepBuffers | None = None) -> np.ndarray:
        """The products ``gram(X) * mask`` of a (..., n, r) stack, (..., n, n),
        in a view of ``bufs`` when it is given."""
        P = gram(X, bufs)
        P *= self._mask
        return P

    def row_products(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``RowProducts`` of one (b, n, r) stack, in fresh buffers."""
        return RowProducts(self, X.shape, StepBuffers())(X)

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
    if name in ("cross", "augmented_cross"):
        m = _require_int(params, "m", minimum=2)
        k = _require_int(params, "k", minimum=1)
        if k > m:
            raise InvalidParams(f"k={k} not in [1,{m}]")
        e1 = {_norm(k, j) for j in range(1, m + 1)}
        if name == "cross":
            return BlockSparsityGraph(m, frozenset(e1), frozenset())
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
    adj = _neighbors(e1, m)
    s_min = min(S)
    for v in range(1, m + 1):
        if v not in S and not any(u in S for u in adj[v]):
            e1.add(_norm(v, s_min))
    # Connectivity: attach stray components through non-S vertices.
    comps, _ = _two_color(_neighbors(e1, m))
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


def _neighbors(e1, m: int) -> dict:
    """Sorted neighbor lists of vertices 1..m over e1, self-loops excluded."""
    adj = {v: [] for v in range(1, m + 1)}
    for (i, j) in e1:
        if i != j:
            adj[i].append(j)
            adj[j].append(i)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def _two_color(adj: dict) -> tuple[list, tuple | None]:
    """One breadth-first 2-coloring of a graph given by sorted neighbor
    lists, started from each unseen vertex in increasing order: its
    components, in that order, and the odd cycle closed by the first edge
    whose ends share a color (None when the graph is bipartite)."""
    color, parent = {}, {}
    comps, odd_cycle = [], None
    for start in adj:
        if start in color:
            continue
        color[start], parent[start] = 0, None
        # The walk appends to the list it iterates over: a FIFO queue.
        queue = [start]
        for v in queue:
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    parent[u] = v
                    queue.append(u)
                elif odd_cycle is None and color[u] == color[v]:
                    odd_cycle = _cycle_from_conflict(v, u, parent)
        comps.append(set(queue))
    return comps, odd_cycle


def analyze_graph(g: BlockSparsityGraph) -> GraphAnalysis:
    """Connectivity, bipartiteness witness, and a greedy maximal independent
    set preferring self-loop vertices in ascending index order."""
    adj = g.adjacency()
    comps, odd_cycle = _two_color(adj)
    loops = g.self_loops()
    if loops:
        odd_cycle = (min(loops),)
    chosen = set()
    blocked = set()
    for v in sorted(loops) + sorted(set(range(1, g.m + 1)) - loops):
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked.update(adj[v])
    mis_set = frozenset(chosen)
    return GraphAnalysis(
        connected=len(comps) == 1,
        nonbipartite=odd_cycle is not None,
        odd_cycle=odd_cycle,
        max_independent_set=mis_set,
        all_mis_have_self_loops=mis_set <= loops,
    )


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
    return MeasurementSet(n, w)


def full_measurement_set(n: int) -> MeasurementSet:
    return MeasurementSet(n, np.ones((n, n), dtype=bool))
