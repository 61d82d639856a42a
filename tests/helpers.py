"""Shared fixture builders for the test suite."""

import numpy as np

import bmland
from bmland import LossSpec


def path_instance(n, gamma=0.0, seed=0):
    """Rank-1 instance on the path-with-self-loops pattern, optionally
    perturbed; S is the greedy maximal independent set (odd vertices)."""
    g = bmland.build_named_pattern("example1_path", n=n)
    omega = bmland.induce_measurement_set(g, n, 1)
    s = sorted(bmland.analyze_graph(g).max_independent_set)
    x0 = bmland.build_canonical_ground_truth(g, s, n, 1)
    x = bmland.perturb(x0, gamma, seed) if gamma else x0
    return bmland.assemble_instance(x, omega, g, s)


def star_ladder(k, gamma=0.05, seed=13):
    """Rung |S| = k of the star ladder: hub m = k + 1 joined to the leaves
    S = {1..k}, each with a self-loop, and an off-diagonal path on S; rank-2
    canonical ground truth on n = 2m, perturbed. The paper bounds its
    spurious classes below by 2^{2(k - 1)} - 1."""
    m = k + 1
    s = list(range(1, m))
    g = bmland.BlockSparsityGraph(
        m,
        frozenset({(i, m) for i in s} | {(i, i) for i in s}),
        frozenset({(i, i + 1) for i in s[:-1]}),
    )
    omega = bmland.induce_measurement_set(g, 2 * m, 2)
    x0 = bmland.build_canonical_ground_truth(g, s, 2 * m, 2)
    x = bmland.perturb(x0, gamma, seed) if gamma else x0
    return bmland.assemble_instance(x, omega, g, s)


def star_rank2_instance(gamma=0.05, seed=13):
    """m=4 star with hub 4, self-loops and a connected off-diagonal tree on
    S={1,2,3}; rank-2 canonical ground truth, perturbed: ladder rung 3."""
    return star_ladder(3, gamma, seed)


def random_instance(rng, n_max=30):
    """Random in-class instance with a generic factor, for derivative checks."""
    r = int(rng.integers(1, 4))
    m = int(rng.integers(3, max(4, n_max // r) + 1))
    n = m * r
    s_size = max(1, m // 3)
    s = sorted(rng.choice(np.arange(1, m + 1), size=s_size, replace=False).tolist())
    g = bmland.build_erdos_renyi(m, 0.4, s, seed=int(rng.integers(1 << 31)))
    omega = bmland.induce_measurement_set(g, n, r)
    x_star = bmland.random_block_factor(m, r, seed=int(rng.integers(1 << 31)), n=n)
    return bmland.assemble_instance(x_star, omega, g, s)


L2 = LossSpec.l2()
