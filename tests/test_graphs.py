import numpy as np
import pytest

import bmland
from bmland.errors import EmptyS, InvalidParams, SNotRealizable, UnknownPattern


def test_path_pattern_edges():
    g = bmland.build_named_pattern("example1_path", n=4)
    assert g.m == 4
    assert g.e1 == frozenset({(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (3, 4)})
    assert g.e2 == frozenset()


def test_single_missing_entry_counts():
    for n in range(3, 13):
        g = bmland.build_named_pattern("single_missing", n=n)
        omega = bmland.induce_measurement_set(g, n, 1)
        assert len(omega) == n * n - 2


def test_single_missing_rank_r_entry_counts():
    for m, r in [(3, 2), (4, 2), (3, 3)]:
        g = bmland.build_named_pattern("single_missing_rank_r", m=m)
        omega = bmland.induce_measurement_set(g, m * r, r)
        assert len(omega) == (m * r) ** 2 - 2 * r


def test_cross_pattern_blocks():
    g = bmland.build_named_pattern("cross", m=3, k=2)
    assert g.e1 == frozenset({(1, 2), (2, 2), (2, 3)})
    omega = bmland.induce_measurement_set(g, 6, 2)
    # 5 observed blocks of 4 entries each: (1,2),(2,1),(2,2),(2,3),(3,2)
    assert len(omega) == 20


def test_e2_block_contributes_offdiagonal_entries_only():
    g = bmland.BlockSparsityGraph(
        3, frozenset({(1, 3), (2, 3)}), frozenset({(1, 2)})
    )
    omega = bmland.induce_measurement_set(g, 6, 2)
    mask = omega.mask()
    # e2 block (1,2) at r=2: off-diagonal entries only.
    assert mask[0, 2] == 0 and mask[1, 3] == 0
    assert mask[0, 3] == 1 and mask[1, 2] == 1
    assert mask[2, 0] == 0 and mask[3, 0] == 1  # symmetric counterpart


def test_augmented_cross_disjoint_edge_sets():
    g = bmland.build_named_pattern("augmented_cross", m=4, k=4)
    assert not (g.e1 & g.e2)
    assert g.self_loops() == {1, 2, 3, 4}
    # Every off-diagonal pair is covered by exactly one of the two sets.
    pairs = {(i, j) for i in range(1, 5) for j in range(i + 1, 5)}
    assert {e for e in g.e1 if e[0] != e[1]} | g.e2 == pairs


def test_graph_validation_errors():
    with pytest.raises(InvalidParams):
        bmland.BlockSparsityGraph(2, frozenset({(1, 3)}), frozenset())
    with pytest.raises(InvalidParams):
        bmland.BlockSparsityGraph(3, frozenset({(1, 2)}), frozenset({(1, 2)}))
    with pytest.raises(InvalidParams):
        bmland.BlockSparsityGraph(3, frozenset(), frozenset({(2, 2)}))
    with pytest.raises(UnknownPattern):
        bmland.build_named_pattern("no_such_pattern", n=4)


def test_measurement_set_symmetry_and_mask():
    g = bmland.build_named_pattern("example1_path", n=4)
    omega = bmland.induce_measurement_set(g, 4, 1)
    entries = set(map(tuple, omega.to_json()))
    assert all((j, i) in entries for (i, j) in entries)
    assert np.array_equal(omega.mask(), omega.mask().T)
    assert len(omega) == int(omega.mask().sum())


def test_measurement_set_row_lists():
    # Path with self-loops: row i observes i - 1, i and i + 1.
    omega = bmland.induce_measurement_set(bmland.build_named_pattern("example1_path", n=8), 8, 1)
    assert not omega.dense
    assert omega.cols.tolist()[:2] == [[0, 1, 8], [0, 1, 2]]  # 8 pads row 0
    assert np.array_equal(omega.cols, _lists_of(omega.mask()))
    assert len(omega) == int(np.count_nonzero(omega.cols < 8))
    # Largest degree 3 > 4 / 2: the kernel is dense, and the lists are still
    # the true ones, padded with column 4.
    small = bmland.induce_measurement_set(bmland.build_named_pattern("example1_path", n=4), 4, 1)
    assert small.dense
    assert small.cols.tolist() == [[0, 1, 4], [0, 1, 2], [1, 2, 3], [2, 3, 4]]
    assert np.array_equal(small.cols, _lists_of(small.mask()))
    # The dense flag holds iff 2d > n, d the largest row degree.
    for n in (2, 3, 4, 5, 8):
        path = bmland.induce_measurement_set(bmland.build_named_pattern("example1_path", n=n), n, 1)
        assert path.dense == (2 * path.cols.shape[1] > n) == (n <= 5)
    full = bmland.full_measurement_set(3)
    assert full.dense and full.cols.tolist() == [[0, 1, 2]] * 3


def _lists_of(mask):
    """Each row's observed columns in increasing order, padded with n to the
    largest row degree, and checked to hold every observed entry once."""
    n = len(mask)
    rows = [np.nonzero(row)[0].tolist() for row in mask]
    d = max(map(len, rows), default=0)
    assert sum(map(len, rows)) == int(np.count_nonzero(mask))
    return np.array([row + [n] * (d - len(row)) for row in rows], dtype=int).reshape(n, d)


def test_trailing_rows_fully_observed():
    g = bmland.build_named_pattern("example1_path", n=3)
    omega = bmland.induce_measurement_set(g, 5, 1)
    mask = omega.mask()
    assert mask[3:, :].all() and mask[:, 3:].all()


def test_analyze_graph_path():
    g = bmland.build_named_pattern("example1_path", n=4)
    ga = bmland.analyze_graph(g)
    assert ga.connected and ga.nonbipartite
    assert ga.odd_cycle == (1,)  # self-loop is a length-1 odd cycle
    assert ga.max_independent_set == frozenset({1, 3})
    assert ga.all_mis_have_self_loops


def test_analyze_graph_bipartite_cycle():
    g = bmland.BlockSparsityGraph(
        4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)}), frozenset()
    )
    ga = bmland.analyze_graph(g)
    assert ga.connected and not ga.nonbipartite and ga.odd_cycle is None


def test_analyze_graph_triangle_odd_cycle():
    g = bmland.BlockSparsityGraph(3, frozenset({(1, 2), (2, 3), (1, 3)}), frozenset())
    ga = bmland.analyze_graph(g)
    assert ga.nonbipartite
    cycle = ga.odd_cycle
    assert len(cycle) == 3 and len(set(cycle)) == 3
    # consecutive cycle vertices are adjacent
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert tuple(sorted((a, b))) in g.e1


def _random_graph(rng, m_max):
    m = int(rng.integers(1, m_max + 1))
    p, p_loop = rng.random(), rng.random() * rng.integers(0, 2)
    e1 = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < p}
    e1 |= {(i, i) for i in range(1, m + 1) if rng.random() < p_loop}
    return bmland.BlockSparsityGraph(m, frozenset(e1), frozenset())


def test_analyze_graph_against_brute_force():
    rng = np.random.default_rng(2021)
    for _ in range(300):
        g = _random_graph(rng, 9)
        m, loops = g.m, g.self_loops()
        edges = [(i, j) for (i, j) in g.e1 if i != j]
        ga = bmland.analyze_graph(g)

        root = list(range(m + 1))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for (i, j) in edges:
            root[find(i)] = find(j)
        assert ga.connected == (len({find(v) for v in range(1, m + 1)}) == 1)

        # Bit v - 1 of c is vertex v's color, over all 2^m colorings.
        c = np.arange(2**m)
        proper = np.ones(2**m, dtype=bool)
        for (i, j) in edges:
            proper &= (c >> (i - 1)) & 1 != (c >> (j - 1)) & 1
        assert ga.nonbipartite == (bool(loops) or not proper.any())

        cycle = ga.odd_cycle
        if not ga.nonbipartite:
            assert cycle is None
        elif len(cycle) == 1:
            assert cycle[0] in loops
        else:
            assert len(cycle) % 2 == 1 and len(set(cycle)) == len(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (min(a, b), max(a, b)) in g.e1 and a != b

        mis = ga.max_independent_set
        adj = {v: {u for e in edges for u in e if v in e and u != v} for v in range(1, m + 1)}
        assert not any(adj[v] & mis for v in mis)
        assert all(adj[v] & mis for v in range(1, m + 1) if v not in mis)
        # Self-loop vertices are taken first: one left out sees a chosen one.
        assert all(adj[v] & mis & loops for v in loops - mis)
        assert ga.all_mis_have_self_loops == (mis <= loops)


def test_erdos_renyi_repairs_and_determinism():
    s = [2, 5, 8]
    g1 = bmland.build_erdos_renyi(10, 0.0, s, seed=7)
    g2 = bmland.build_erdos_renyi(10, 0.0, s, seed=7)
    assert g1 == g2
    ga = bmland.analyze_graph(g1)
    assert ga.connected
    assert set(s) <= g1.self_loops()
    # S stays independent even at p=1
    dense = bmland.build_erdos_renyi(4, 1.0, [1, 3], seed=0)
    assert not any(i in {1, 3} and j in {1, 3} and i != j for (i, j) in dense.e1)


def test_erdos_renyi_class_conditions_over_seeds():
    s = [1, 4, 7]
    for seed in range(100):
        g = bmland.build_erdos_renyi(10, 0.3, s, seed=seed)
        ga = bmland.analyze_graph(g)
        assert ga.connected and ga.nonbipartite
        assert set(s) <= g.self_loops()
        adj = g.adjacency()
        # S independent and maximal: every outside vertex sees S.
        assert not any(u in s for v in s for u in adj[v])
        assert all(any(u in s for u in adj[v]) for v in range(1, 11) if v not in s)
        # e2 connects S and avoids e1
        assert not (g.e1 & g.e2)


def test_erdos_renyi_rejects_bad_s():
    with pytest.raises(EmptyS):
        bmland.build_erdos_renyi(5, 0.3, [], seed=0)
    with pytest.raises(SNotRealizable):
        bmland.build_erdos_renyi(3, 0.3, [1, 2, 3], seed=0)
    with pytest.raises(InvalidParams):
        bmland.build_erdos_renyi(3, 1.5, [1], seed=0)


def test_graph_json_roundtrip():
    g = bmland.build_named_pattern("augmented_cross", m=4, k=2)
    assert bmland.BlockSparsityGraph.from_json(g.to_json()) == g
