import numpy as np
import pytest

import bmland
from bmland import LossSpec
from bmland.errors import DimensionMismatch
from bmland.landscape import SIGN_TOL

import helpers
from helpers import L2


def test_objective_zero_at_ground_truth():
    inst = helpers.path_instance(5, gamma=0.1, seed=1)
    assert bmland.objective(inst, L2, inst.x_star) == 0.0


def test_objective_known_value_full_observation():
    g = bmland.BlockSparsityGraph(1, frozenset({(1, 1)}), frozenset())
    omega = bmland.induce_measurement_set(g, 2, 2)
    inst = bmland.assemble_instance(np.eye(2), omega, g)
    X = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert bmland.objective(inst, L2, X) == pytest.approx(2.0)


def test_objective_batched_matches_loop():
    inst = helpers.path_instance(4, gamma=0.2, seed=8)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 4, 1))
    batched = bmland.objective(inst, L2, X)
    singles = [bmland.objective(inst, L2, X[b]) for b in range(7)]
    assert np.allclose(batched, singles)


def test_regularizer_inactive_below_alpha():
    inst = helpers.path_instance(4)
    reg = LossSpec.l2_regularized(2.0, 10.0)  # alpha above every row norm
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 1))
    assert bmland.objective(inst, reg, X) == pytest.approx(bmland.objective(inst, L2, X))
    tight = LossSpec.l2_regularized(2.0, 0.01)
    assert bmland.objective(inst, tight, X) > bmland.objective(inst, L2, X)
    with pytest.raises(DimensionMismatch):
        LossSpec.l2_regularized(-1.0, 1.0)


def test_gradient_zero_at_global_minimum():
    inst = helpers.path_instance(4, gamma=0.05, seed=2)
    assert np.linalg.norm(bmland.gradient(inst, L2, inst.x_star)) == 0.0


def test_gradient_finite_difference_property():
    rng = np.random.default_rng(99)
    for _ in range(30):
        inst = helpers.random_instance(rng, n_max=12)
        X = rng.standard_normal(inst.x_star.shape)
        d = rng.standard_normal(X.shape)
        d /= np.linalg.norm(d)
        h = 1e-6 * (1.0 + np.linalg.norm(X))
        fd = (bmland.objective(inst, L2, X + h * d) - bmland.objective(inst, L2, X - h * d)) / (2 * h)
        an = float(np.sum(bmland.gradient(inst, L2, X) * d))
        assert abs(fd - an) <= 1e-6 * max(abs(an), 1.0)


KERNEL_CASES = [
    (helpers.path_instance(5, gamma=0.1, seed=3), L2),
    (helpers.path_instance(5, gamma=0.1, seed=3), LossSpec.l2_regularized(0.7, 0.5)),
    (helpers.star_rank2_instance(), L2),
    (helpers.star_rank2_instance(), LossSpec.l2_regularized(0.7, 0.8)),
]


@pytest.mark.parametrize("inst, loss", KERNEL_CASES)
def test_value_and_gradient_kernel(inst, loss):
    rng = np.random.default_rng(inst.r)
    X = rng.standard_normal((6, inst.n, inst.r))
    if loss.regularized:  # some rows inside alpha, some outside
        assert 0 < np.count_nonzero(np.linalg.norm(X, axis=-1) > loss.alpha) < X[..., 0].size
    val, G = bmland.value_and_gradient(inst, loss, X)
    assert np.array_equal(val, bmland.objective(inst, loss, X))
    assert np.array_equal(G, bmland.gradient(inst, loss, X))
    # One point at a time gives the same bits as the stack.
    for b in range(len(X)):
        v, g = bmland.value_and_gradient(inst, loss, X[b])
        assert isinstance(v, float) and v == val[b]
        assert np.array_equal(g, G[b])
    D = rng.standard_normal(X.shape)
    h = 1e-6
    fd = (
        bmland.value_and_gradient(inst, loss, X + h * D)[0]
        - bmland.value_and_gradient(inst, loss, X - h * D)[0]
    ) / (2 * h)
    an = np.einsum("bij,bij->b", G, D)
    assert np.all(np.abs(fd - an) <= 1e-6 * np.maximum(np.abs(an), 1.0))


def test_hessian_quadratic_known_values():
    inst = helpers.path_instance(4)
    x_min = inst.x_star  # (1,0,1,0)
    e4 = np.zeros((4, 1))
    e4[3, 0] = 1.0
    assert bmland.hessian_quadratic(inst, L2, x_min, e4) == pytest.approx(4.0)
    zero = np.zeros((4, 1))
    assert bmland.hessian_quadratic(inst, L2, zero, x_min) == pytest.approx(-8.0)


def test_dense_hessian_matches_quadratic_form():
    rng = np.random.default_rng(5)
    inst = helpers.random_instance(rng, n_max=10)
    loss = LossSpec.l2_regularized(0.7, 0.3)
    X = rng.standard_normal(inst.x_star.shape)
    H = bmland.dense_hessian(inst, loss, X)
    assert np.allclose(H, H.T)
    for _ in range(5):
        d = rng.standard_normal(X.shape)
        quad = float(d.reshape(-1) @ H @ d.reshape(-1))
        assert abs(quad - bmland.hessian_quadratic(inst, loss, X, d)) <= 1e-10 * max(abs(quad), 1.0)


def test_orbit_invariance_of_objective():
    rng = np.random.default_rng(3)
    inst = helpers.star_rank2_instance(gamma=0.0)
    X = rng.standard_normal((8, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    assert bmland.objective(inst, L2, X @ q) == pytest.approx(bmland.objective(inst, L2, X))


def test_restriction_map_properties():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 3))
    R = bmland.restriction_map(X)
    lead = R[:3, :]
    assert np.allclose(lead, np.tril(lead))
    assert np.all(np.diag(lead) >= 0)
    assert np.allclose(R @ R.T, X @ X.T)
    assert np.allclose(bmland.restriction_map(R), R)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert np.allclose(bmland.restriction_map(X @ q), R)


def test_canonicalize_fixes_signs():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 1))
    assert np.array_equal(bmland.canonicalize(x), bmland.canonicalize(-x))
    assert bmland.canonicalize(x)[np.nonzero(bmland.canonicalize(x))[0][0]] > 0
    X = rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    assert np.allclose(bmland.canonicalize(X @ q), bmland.canonicalize(X))
    assert np.array_equal(bmland.canonicalize(np.zeros((4, 1))), np.zeros((4, 1)))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_orbit_maps_batched_match_per_point(r):
    X = np.random.default_rng(r).standard_normal((12, 7, r))
    X[0, :, -1] = 0.0  # a zero column
    X[1, :3, 0] = [0.0, -0.5 * SIGN_TOL, 0.3 * SIGN_TOL]  # tiny leading entries
    X[2] *= 0.5 * SIGN_TOL  # no entry above the sign tolerance
    X[3, 0] = 0.0  # zero top row
    for fn in (bmland.restriction_map, bmland.canonicalize):
        batched = fn(X)
        assert batched.shape == X.shape
        assert np.array_equal(batched, np.stack([fn(x) for x in X]))
        assert np.array_equal(fn(X.reshape(3, 4, 7, r)), batched.reshape(3, 4, 7, r))
    assert bmland.canonicalize(X[:0]).shape == (0, 7, r)


def test_min_hessian_eigen_subspaces():
    inst = helpers.star_rank2_instance(gamma=0.0)
    x = inst.x_star
    lam_full, _ = bmland.min_hessian_eigen(inst, L2, x, "full")
    lam_tan, direction = bmland.min_hessian_eigen(inst, L2, x, "lower_triangular_tangent")
    # The full space contains the orbit direction with zero curvature.
    assert lam_full <= lam_tan + 1e-9
    # Tangent directions have no component above the diagonal of the top block.
    assert abs(direction[0, 1]) <= 1e-12
    with pytest.raises(DimensionMismatch):
        bmland.min_hessian_eigen(inst, L2, x, "bogus")


def test_masked_residual_support():
    inst = helpers.path_instance(4, gamma=0.2, seed=9)
    rng = np.random.default_rng(0)
    R = bmland.masked_residual(inst, rng.standard_normal((4, 1)))
    assert not R[(inst.omega.mask() == 0)].any()
