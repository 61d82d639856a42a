import numpy as np
import pytest

import bmland
from bmland.errors import DimensionMismatch, InvalidS, MissingGraph, ZeroMatrix

import helpers


def test_canonical_ground_truth_rank1():
    g = bmland.build_named_pattern("example1_path", n=4)
    x = bmland.build_canonical_ground_truth(g, [1, 3], 4, 1)
    assert np.array_equal(x[:, 0], [1.0, 0.0, 1.0, 0.0])


def test_canonical_ground_truth_rank2_identity_blocks():
    g = bmland.build_named_pattern("star", m=3)
    x = bmland.build_canonical_ground_truth(g, [2, 3], 6, 2)
    assert np.array_equal(x[2:4], np.eye(2))
    assert np.array_equal(x[4:6], np.eye(2))
    assert not x[0:2].any()


def test_canonical_ground_truth_validation():
    g = bmland.build_named_pattern("example1_path", n=4)
    with pytest.raises(InvalidS):
        bmland.build_canonical_ground_truth(g, [5], 4, 1)
    with pytest.raises(DimensionMismatch):
        bmland.build_canonical_ground_truth(g, [1], 5, 1)


def test_perturb_properties():
    x = np.arange(8.0).reshape(4, 2)
    assert np.array_equal(bmland.perturb(x, 0.0, 3), x)
    y = bmland.perturb(x, 0.25, 3)
    assert np.isclose(np.linalg.norm(y - x), 0.25)
    assert np.array_equal(y, bmland.perturb(x, 0.25, 3))
    # same seed scales the same direction
    z = bmland.perturb(x, 0.5, 3)
    assert np.allclose(z - x, 2.0 * (y - x))
    for gamma in (-0.1, np.nan):
        with pytest.raises(DimensionMismatch, match="gamma"):
            bmland.perturb(x, gamma, 3)


def test_assemble_instance_shapes():
    g = bmland.build_named_pattern("example1_path", n=4)
    omega = bmland.induce_measurement_set(g, 4, 1)
    inst = bmland.assemble_instance(np.array([1.0, 0.0, 1.0, 0.0]), omega, g, [1, 3])
    assert inst.n == 4 and inst.r == 1
    assert np.allclose(np.diag(inst.m_star()), [1, 0, 1, 0])
    with pytest.raises(DimensionMismatch):
        bmland.assemble_instance(np.ones(5), omega)


def test_instance_rejects_graph_with_more_block_rows_than_n():
    # A 4-vertex path at r = 1 needs n >= 4: its blocks would overrun M*.
    g = bmland.build_named_pattern("example1_path", n=4)
    omega = bmland.full_measurement_set(3)
    with pytest.raises(DimensionMismatch, match="m\\*r = 4"):
        bmland.McInstance(3, 1, np.ones((3, 1)), omega, g)
    with pytest.raises(DimensionMismatch, match="m\\*r = 4"):
        bmland.assemble_instance(np.ones(3), omega, g)
    # An instance wider than its graph is valid.
    assert bmland.assemble_instance(np.ones(5), bmland.full_measurement_set(5), g).n == 5


def test_membership_unperturbed_canonical_fails_blocks():
    inst = helpers.path_instance(4)
    rep = bmland.check_class_membership(inst)
    assert rep.g1_connected_nonbipartite
    assert not rep.all_blocks_full_rank  # zero blocks off S
    assert not rep.in_class


def test_membership_generic_perturbation_is_in_class():
    inst = helpers.path_instance(4, gamma=0.3, seed=5)
    assert bmland.check_class_membership(inst).in_class


def test_membership_blocks_match_per_block_loop():
    # Reference: each r x r block of M* on its own, as a loop. Shrinking
    # block row 3 of the factor walks its blocks across the rank threshold.
    g = bmland.build_named_pattern("example1_path", n=5)
    for r in (1, 2, 3):
        omega = bmland.induce_measurement_set(g, 5 * r + 1, r)
        for seed in range(3):
            for k in (0, 3, 3.5, 4, 4.25, 5, 6, np.inf):
                x = bmland.random_block_factor(5, r, seed=seed, n=5 * r + 1)
                x[2 * r : 3 * r] *= 10.0**-k
                inst = bmland.assemble_instance(x, omega, g)
                M = inst.m_star()
                threshold = bmland.instances.RANK_TOL * np.linalg.norm(M, 2)
                want = all(
                    np.linalg.svd(M[i * r : (i + 1) * r, j * r : (j + 1) * r], compute_uv=False).min()
                    > threshold
                    for i in range(5)
                    for j in range(5)
                )
                assert bmland.check_class_membership(inst).all_blocks_full_rank == want, (r, seed, k)


def test_membership_bipartite_graph_fails():
    g = bmland.BlockSparsityGraph(3, frozenset({(1, 2), (2, 3)}), frozenset())
    omega = bmland.induce_measurement_set(g, 3, 1)
    inst = bmland.assemble_instance(np.array([1.0, 2.0, 3.0]), omega, g)
    rep = bmland.check_class_membership(inst)
    assert not rep.g1_connected_nonbipartite and not rep.in_class


def test_membership_requires_graph():
    omega = bmland.full_measurement_set(3)
    inst = bmland.assemble_instance(np.ones(3), omega)
    with pytest.raises(MissingGraph):
        bmland.check_class_membership(inst)


def test_incoherence_values():
    omega = bmland.full_measurement_set(4)
    ident = bmland.assemble_instance(np.eye(4), omega)
    assert np.isclose(bmland.compute_incoherence(ident), 1.0)

    omega1 = bmland.full_measurement_set(4)
    spread = bmland.assemble_instance(np.array([1.0, 0.0, 1.0, 0.0]), omega1)
    assert np.isclose(bmland.compute_incoherence(spread), 2.0)

    for n in (3, 5, 8):
        e1 = np.zeros(n)
        e1[0] = 1.0
        spiky = bmland.assemble_instance(e1, bmland.full_measurement_set(n))
        assert np.isclose(bmland.compute_incoherence(spiky), n)

    zero = bmland.assemble_instance(np.zeros(3), bmland.full_measurement_set(3))
    with pytest.raises(ZeroMatrix):
        bmland.compute_incoherence(zero)


def test_omega_scale_matches_norm():
    inst = helpers.path_instance(5, gamma=0.1, seed=2)
    assert np.isclose(inst.omega_scale(), np.linalg.norm(inst.m_star_omega()))


def test_m_star_matches_observed_products_bit_for_bit():
    # At r >= 2 a transposed-view right operand rounds differently at n = 12.
    g = bmland.build_erdos_renyi(6, 0.5, [1, 3, 5], seed=0)
    omega = bmland.induce_measurement_set(g, 12, 2)
    x = bmland.random_block_factor(6, 2, seed=0, n=12)
    inst = bmland.assemble_instance(x, omega, g, [1, 3, 5])
    observed = omega.mask() > 0
    assert np.array_equal(inst.m_star()[observed], inst.m_star_omega()[observed])
