import numpy as np
import pytest

import bmland
from bmland.errors import Disconnected, MissingGraph, NoOddCycle, SingularBlock


def _path_instance_with_factor(values):
    n = len(values)
    g = bmland.build_named_pattern("example1_path", n=n)
    omega = bmland.induce_measurement_set(g, n, 1)
    return bmland.assemble_instance(np.asarray(values, dtype=float), omega, g)


def _rel_err(inst, x_hat):
    M = inst.m_star()
    return np.linalg.norm(x_hat @ x_hat.T - M) / np.linalg.norm(M)


def test_tridiagonal_rank1_recovery():
    inst = _path_instance_with_factor([1.0, 0.5, 2.0])
    result = bmland.solve_by_propagation(inst)
    assert _rel_err(inst, result.recovered_factor) <= 1e-10
    assert result.operations_estimate > 0


def test_rank2_recovery_random_blocks():
    g = bmland.build_named_pattern("single_missing_rank_r", m=4)
    omega = bmland.induce_measurement_set(g, 8, 2)
    x = bmland.random_block_factor(4, 2, seed=11)
    inst = bmland.assemble_instance(x, omega, g)
    x_hat = bmland.solve_by_propagation(inst).recovered_factor
    assert _rel_err(inst, x_hat) <= 1e-8


def test_trailing_rows_recovered():
    g = bmland.build_named_pattern("example1_path", n=3)
    omega = bmland.induce_measurement_set(g, 5, 1)
    x = bmland.random_block_factor(3, 1, seed=4, n=5)
    inst = bmland.assemble_instance(x, omega, g)
    x_hat = bmland.solve_by_propagation(inst).recovered_factor
    assert _rel_err(inst, x_hat) <= 1e-10


# Graphs without self-loops: the shortest odd cycle has 3 or 5 vertices, so
# the anchor's Gram matrix is chained around it from off-diagonal blocks.
LOOPLESS = {
    "triangle": {(1, 2), (2, 3), (1, 3)},
    "five_cycle": {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)},
    "triangle_with_pendant": {(1, 2), (2, 3), (1, 3), (3, 4)},
}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("edges", LOOPLESS.values(), ids=LOOPLESS.keys())
def test_odd_cycle_chain_recovers_loopless_graphs(edges, r):
    m = max(j for _, j in edges)
    g = bmland.BlockSparsityGraph(m, frozenset(edges), frozenset())
    assert len(bmland.analyze_graph(g).odd_cycle) in (3, 5)
    omega = bmland.induce_measurement_set(g, m * r, r)
    inst = bmland.assemble_instance(bmland.random_block_factor(m, r, seed=5), omega, g)
    assert _rel_err(inst, bmland.solve_by_propagation(inst).recovered_factor) <= 1e-12


@pytest.mark.parametrize("n", [5, 6])
def test_even_cross_pattern_edges_and_recovery(n):
    g = bmland.build_named_pattern("example2_even_cross", n=n)
    # A self-loop at every vertex, and an edge between any two vertices one of
    # which is even.
    assert g.e1 == {
        (i, j) for i in range(1, n + 1) for j in range(i, n + 1) if i == j or i % 2 == 0 or j % 2 == 0
    }
    assert g.e2 == frozenset()
    omega = bmland.induce_measurement_set(g, n, 1)
    inst = bmland.assemble_instance(bmland.random_block_factor(n, 1, seed=3), omega, g)
    assert _rel_err(inst, bmland.solve_by_propagation(inst).recovered_factor) <= 1e-12


def test_full_observation_idempotent():
    g = bmland.BlockSparsityGraph(
        3,
        frozenset({(i, j) for i in range(1, 4) for j in range(i, 4)}),
        frozenset(),
    )
    omega = bmland.induce_measurement_set(g, 3, 1)
    inst = bmland.assemble_instance(np.array([2.0, -1.0, 0.5]), omega, g)
    first = bmland.solve_by_propagation(inst).recovered_factor
    inst2 = bmland.assemble_instance(first, omega, g)
    second = bmland.solve_by_propagation(inst2).recovered_factor
    assert np.allclose(first, second)


def test_zero_block_raises_singular():
    inst = _path_instance_with_factor([1.0, 0.0, 2.0])
    with pytest.raises(SingularBlock):
        bmland.solve_by_propagation(inst)


def test_bipartite_graph_raises_no_odd_cycle():
    g = bmland.BlockSparsityGraph(3, frozenset({(1, 2), (2, 3)}), frozenset())
    omega = bmland.induce_measurement_set(g, 3, 1)
    inst = bmland.assemble_instance(np.array([1.0, 2.0, 3.0]), omega, g)
    with pytest.raises(NoOddCycle):
        bmland.solve_by_propagation(inst)


def test_disconnected_graph_raises():
    g = bmland.BlockSparsityGraph(
        4, frozenset({(1, 1), (1, 2), (3, 3), (3, 4)}), frozenset()
    )
    omega = bmland.induce_measurement_set(g, 4, 1)
    inst = bmland.assemble_instance(np.array([1.0, 2.0, 3.0, 4.0]), omega, g)
    with pytest.raises(Disconnected):
        bmland.solve_by_propagation(inst)


def test_solver_requires_graph():
    inst = bmland.assemble_instance(np.ones(3), bmland.full_measurement_set(3))
    with pytest.raises(MissingGraph):
        bmland.solve_by_propagation(inst)


def test_single_missing_pattern_recovery():
    g = bmland.build_named_pattern("single_missing", n=4)
    omega = bmland.induce_measurement_set(g, 4, 1)
    inst = bmland.assemble_instance(np.array([1.0, -2.0, 0.5, 3.0]), omega, g)
    x_hat = bmland.solve_by_propagation(inst).recovered_factor
    assert _rel_err(inst, x_hat) <= 1e-10
