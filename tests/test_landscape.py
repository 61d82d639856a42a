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
    # NaN used to give a spec whose regularizer was silently inactive, and an
    # infinite lambda gives a NaN value.
    for lam, alpha in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
        with pytest.raises(DimensionMismatch):
            LossSpec.l2_regularized(lam, alpha)


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


def _on_mask(mask, r, seed=0, gamma=0.3):
    """Instance with a generic factor observed on an arbitrary symmetric mask."""
    n = len(mask)
    x = np.random.default_rng(seed).standard_normal((n, r))
    return bmland.assemble_instance(x * gamma, bmland.MeasurementSet(n, mask))


def _pattern(name, r):
    """(instance, whether its kernel forms dense products)."""
    if name == "path-sparse":
        g = bmland.build_named_pattern("example1_path", n=8)
        dense = False
    elif name == "path-dense":
        g = bmland.build_named_pattern("example1_path", n=3)
        dense = True
    elif name == "er-sparse":
        g = bmland.build_erdos_renyi(20, 0.3, range(1, 20, 2), seed=101)  # largest degree 8
        dense = False
    else:  # er-dense
        g = bmland.build_erdos_renyi(5, 0.9, [1, 3], seed=4)
        dense = True
    n = g.m * r
    x = bmland.random_block_factor(g.m, r, seed=7)
    return bmland.assemble_instance(x, bmland.induce_measurement_set(g, n, r), g), dense


def _dense_reference(inst, loss, X):
    """f and its gradient written out on the dense mask: (X X^T - M*) o W,
    sum(R^2) and 4 R X, plus the regularizer."""
    W = inst.omega.mask()
    R = (X @ X.swapaxes(-1, -2) - inst.m_star()) * W
    val = np.sum(R * R, axis=(-2, -1))
    G = 4.0 * R @ X
    if loss.regularized:
        t = np.linalg.norm(X, axis=-1)
        excess = np.maximum(t - loss.alpha, 0.0)
        val = val + loss.lam * np.sum(excess**4, axis=-1)
        G = G + (4.0 * loss.lam * excess**3 / t)[..., None] * X
    return val, G


def _target_stack(insts, group):
    """The targets of ``insts[g]`` for each g in ``group``, stacked as the
    kernel reads per-point targets: batch-last, (d, n, b), on the row lists,
    and (b, n, n) where the kernel is dense."""
    targets = [inst.observed_targets() for inst in insts]
    if insts[0].omega.dense:
        return np.stack(targets)[group]
    return np.stack(targets, axis=-1)[..., group]


def _assert_close(val, G, ref_val, ref_G):
    assert np.all(np.abs(val - ref_val) <= 1e-12 * np.abs(ref_val))
    assert np.all(np.abs(G - ref_G) <= 1e-12 * np.abs(ref_G).max())


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", ["path-sparse", "path-dense", "er-sparse", "er-dense"])
@pytest.mark.parametrize("loss", [L2, LossSpec.l2_regularized(0.7, 0.8)], ids=["l2", "reg"])
def test_kernel_matches_dense_reference(name, r, loss):
    inst, dense = _pattern(name, r)
    d = int(inst.omega.mask().sum(axis=1).max())
    assert inst.omega.dense == dense == (2 * d > inst.n)
    assert inst.omega.cols.shape == (inst.n, d)
    X = np.random.default_rng(r).standard_normal((5, inst.n, inst.r))
    _assert_close(*bmland.value_and_gradient(inst, loss, X), *_dense_reference(inst, loss, X))
    # The targets are the kernel's own products: the truth is an exact zero.
    val, G = bmland.value_and_gradient(inst, L2, inst.x_star)
    assert val == 0.0 and not G.any()


def test_kernel_row_without_entries_and_empty_omega():
    mask = np.zeros((9, 9), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[1, 2] = mask[2, 1] = mask[3, 3] = True  # rows 4..8 observe nothing
    for r in (1, 2):
        inst = _on_mask(mask, r)
        assert not inst.omega.dense and inst.omega.cols.shape == (9, 2)
        X = np.random.default_rng(r).standard_normal((4, 9, r))
        val, G = bmland.value_and_gradient(inst, L2, X)
        _assert_close(val, G, *_dense_reference(inst, L2, X))
        assert not G[:, 4:].any()
        empty = _on_mask(np.zeros((9, 9), dtype=bool), r)
        assert empty.omega.cols.shape == (9, 0) and len(empty.omega) == 0
        for Xs in (X, X[0]):
            val, G = bmland.value_and_gradient(empty, L2, Xs)
            assert np.all(val == 0.0) and G.shape == Xs.shape and not G.any()


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("name", ["path-sparse", "er-sparse", "er-dense"])
def test_kernel_point_bits_independent_of_stack(name, r):
    from bmland.landscape import _value_and_gradient

    inst, _ = _pattern(name, r)
    other = bmland.assemble_instance(2.0 * inst.x_star, inst.omega, inst.graph)
    X = np.random.default_rng(3).standard_normal((37, inst.n, inst.r))
    stacked = bmland.value_and_gradient(inst, L2, X)
    # Alternate the two instances' targets along the stack.
    group = np.arange(37) % 2
    mixed = _value_and_gradient(inst.omega, _target_stack((inst, other), group), L2, X)
    for b in range(0, 37, 2):
        val, G = bmland.value_and_gradient(inst, L2, X[b])
        for v, g in (stacked, mixed):
            assert v[b] == val and np.array_equal(g[b], G)
    val, G = bmland.value_and_gradient(other, L2, X[1])
    assert mixed[0][1] == val and np.array_equal(mixed[1][1], G)
    refs = [_dense_reference((inst, other)[g], L2, X[b]) for b, g in enumerate(group)]
    _assert_close(*mixed, np.array([v for v, _ in refs]), np.stack([G for _, G in refs]))


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("name", ["path-sparse", "er-sparse", "diagonal", "empty"])
def test_kernel_point_bits_same_in_stacks_of_any_size(name, r):
    # The value and the gradient are summed by the same halving for a point
    # alone as in a stack, whatever its size; the n d entries per point are
    # 24 and 216 (path), 160 and 1440 (Erdos-Renyi), 5 and 45 (diagonal
    # blocks: row lists of width 1 and 3) and 0 (empty, d = 0).
    from bmland.landscape import _value_and_gradient

    if name == "diagonal":
        inst = _on_mask(np.eye(5, dtype=bool) if r == 1 else np.kron(np.eye(5), np.ones((3, 3))) > 0, r)
    elif name == "empty":
        inst = _on_mask(np.zeros((9, 9), dtype=bool), r)
    else:
        inst = _pattern(name, r)[0]
    other = bmland.assemble_instance(2.0 * inst.x_star, inst.omega, inst.graph)
    assert not inst.omega.dense
    X = np.random.default_rng(r).standard_normal((261, inst.n, inst.r))
    group = np.arange(261) % 3 == 1
    alone = [bmland.value_and_gradient(other if g else inst, L2, x) for g, x in zip(group, X)]
    for b in (1, 255, 256, 261):
        stacked = bmland.value_and_gradient(inst, L2, X[:b])
        mixed = _value_and_gradient(inst.omega, _target_stack((inst, other), group[:b].astype(int)), L2, X[:b])
        for k in range(b):
            val, G = alone[k]
            assert mixed[0][k] == val and np.array_equal(mixed[1][k], G)
            if not group[k]:
                assert stacked[0][k] == val and np.array_equal(stacked[1][k], G)
    _assert_close(*stacked, *_dense_reference(inst, L2, X))


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("name", ["path-sparse", "er-sparse"])
def test_kernel_step_buffers_reuse(name, r):
    # One buffer set, and the kernel's plan in it, through a working set that
    # keeps its size, with the same and then another target, shrinks, grows
    # back to a size it had, then past its first size, as a single-target and
    # as a mixed-target stack.
    from bmland.graphs import StepBuffers
    from bmland.landscape import _value_and_gradient

    inst, _ = _pattern(name, r)
    other = bmland.assemble_instance(2.0 * inst.x_star, inst.omega, inst.graph)
    X = np.random.default_rng(4).standard_normal((40, inst.n, inst.r))
    for mixed in (False, True):
        bufs, kept = StepBuffers(), []
        for j, b in enumerate((24, 24, 24, 17, 5, 1, 9, 17, 24, 40, 40)):
            swap = j % 3 == 2
            if mixed:
                target = _target_stack((inst, other), (np.arange(b) + swap) % 2)
            else:
                target = (other if swap else inst).observed_targets()
            out = _value_and_gradient(inst.omega, target, L2, X[:b], bufs)
            fresh = _value_and_gradient(inst.omega, target, L2, X[:b])
            assert np.array_equal(out[0], fresh[0]) and np.array_equal(out[1], fresh[1])
            kept.append((out, tuple(a.copy() for a in out)))
        for out, copies in kept:
            assert all(np.array_equal(a, c) for a, c in zip(out, copies))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n", [8, 12, 20])
def test_dense_product_bits_at_awkward_sizes(n, r):
    # At n = 12 and 20 a matmul with a transposed-view operand rounds
    # differently from the kernel's contiguous one.
    from bmland.landscape import _residual

    rng = np.random.default_rng(n * r)
    upper = np.triu(rng.random((n, n)) < 0.7)
    inst = _on_mask(upper | upper.T, r, seed=n)
    assert inst.omega.dense
    val, G = bmland.value_and_gradient(inst, L2, inst.x_star)
    assert val == 0.0 and not G.any()
    assert not bmland.masked_residual(inst, inst.x_star).any()
    X = rng.standard_normal((39, n, r))
    vals, Gs = bmland.value_and_gradient(inst, L2, X)
    for b in range(39):
        v, g = bmland.value_and_gradient(inst, L2, X[b])
        assert v == vals[b] and np.array_equal(g, Gs[b])
    R = _residual(inst.omega, inst.observed_targets(), X)
    assert np.array_equal(R, np.stack([_residual(inst.omega, inst.observed_targets(), x) for x in X]))


def test_hessian_quadratic_known_values():
    inst = helpers.path_instance(4)
    x_min = inst.x_star  # (1,0,1,0)
    e4 = np.zeros((4, 1))
    e4[3, 0] = 1.0
    assert helpers.hessian_quadratic(inst, L2, x_min, e4) == pytest.approx(4.0)
    zero = np.zeros((4, 1))
    assert helpers.hessian_quadratic(inst, L2, zero, x_min) == pytest.approx(-8.0)


def test_dense_hessian_matches_quadratic_form():
    rng = np.random.default_rng(5)
    inst = helpers.random_instance(rng, n_max=10)
    X = rng.standard_normal((4,) + inst.x_star.shape)
    X[1] = 0.0
    for loss in (L2, LossSpec.l2_regularized(0.7, 0.3)):
        stacked = bmland.dense_hessian(inst, loss, X)
        assert stacked.shape == (4, X[0].size, X[0].size)
        for x, H in zip(X, stacked):
            assert np.array_equal(H, bmland.dense_hessian(inst, loss, x))
            assert np.allclose(H, H.T)
            for _ in range(5):
                d = rng.standard_normal(x.shape)
                quad = float(d.reshape(-1) @ H @ d.reshape(-1))
                quad_form = helpers.hessian_quadratic(inst, loss, x, d)
                assert abs(quad - quad_form) <= 1e-10 * max(abs(quad), 1.0)


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
    X = np.stack([x, np.random.default_rng(0).standard_normal(x.shape)])
    for subspace in ("full", "lower_triangular_tangent"):
        lams, directions = bmland.min_hessian_eigen(inst, L2, X, subspace)
        for p, lam, direction in zip(X, lams, directions):
            lam_p, direction_p = bmland.min_hessian_eigen(inst, L2, p, subspace)
            assert lam == lam_p and np.array_equal(direction, direction_p)


def test_masked_residual_support():
    inst = helpers.path_instance(4, gamma=0.2, seed=9)
    rng = np.random.default_rng(0)
    R = bmland.masked_residual(inst, rng.standard_normal((4, 1)))
    assert not R[(inst.omega.mask() == 0)].any()
