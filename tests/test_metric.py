import numpy as np
import pytest

import bmland
from bmland.errors import DimensionMismatch
from bmland.census import _endpoints
from bmland.metric import _PairPenalty, _best_pair, _separation

import helpers


def test_full_observation_finds_no_pair():
    x = np.random.default_rng(2).standard_normal((4, 1))
    inst = bmland.assemble_instance(x, bmland.full_measurement_set(4))
    est = bmland.estimate_complexity_metric(inst, bmland.MetricBudget(10, 800), seed=1)
    assert not est.found
    assert est.value is None and est.witness_pair is None


def test_unperturbed_instance_has_zero_distance_witness():
    inst = helpers.path_instance(4)
    est = bmland.estimate_complexity_metric(inst, bmland.MetricBudget(15, 1000), seed=1)
    assert est.found and est.value <= 1e-6
    x1, x2 = est.witness_pair
    w = inst.omega.mask()
    # witness pair agrees on the observed entries but differs overall
    assert np.linalg.norm((x1 @ x1.T - x2 @ x2.T) * w) <= 1e-6 * (1 + inst.omega_scale())
    d = np.linalg.norm(x1 @ x1.T - x2 @ x2.T)
    assert est.separation_achieved == pytest.approx(d)
    assert d >= 1e-3 * np.linalg.norm(inst.m_star())


def test_budget_monotonicity():
    inst = helpers.path_instance(4, gamma=0.1, seed=9)
    small = bmland.estimate_complexity_metric(inst, bmland.MetricBudget(10, 800), seed=1)
    big = bmland.estimate_complexity_metric(inst, bmland.MetricBudget(20, 800), seed=1)
    if small.found:
        assert big.found
        assert big.value <= small.value + 1e-12


def test_budget_validation():
    with pytest.raises(DimensionMismatch):
        bmland.MetricBudget(restarts=1)
    with pytest.raises(DimensionMismatch):
        bmland.MetricBudget(iters=0)
    inst = helpers.path_instance(4)
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(DimensionMismatch, match="separation"):
            bmland.estimate_complexity_metric(inst, bmland.MetricBudget(), separation=bad)


def _dense_separation(Z, r):
    X1, X2 = Z[..., :r], Z[..., r:]
    return np.linalg.norm(X1 @ X1.swapaxes(1, 2) - X2 @ X2.swapaxes(1, 2), axis=(1, 2))


def _random_pairs(inst, size, seed):
    """(size, n, 2r) pairs and a separation that half of them fall short of."""
    Z = np.random.default_rng(seed).standard_normal((size, inst.n, 2 * inst.r))
    return Z, float(np.median(_dense_separation(Z, inst.r)))


INSTANCES = [helpers.path_instance(5, 0.1, 3), helpers.star_rank2_instance()]


@pytest.mark.parametrize("inst", INSTANCES)
def test_gram_separation_matches_dense(inst):
    Z = _random_pairs(inst, 8, seed=2)[0]
    d = _separation(Z, inst.r)[0]
    assert np.allclose(d, _dense_separation(Z, inst.r), rtol=1e-12, atol=0)
    same = np.concatenate([Z[..., : inst.r], Z[..., : inst.r]], axis=-1)
    d, grad = _separation(same, inst.r)
    assert np.all(d == 0.0) and np.all(grad == 0.0)


def _path_rank2_instance():
    """The n = 8 path at r = 2 (n = 16), a rank-2 Omega on row lists of width 6."""
    g = bmland.build_named_pattern("example1_path", n=8)
    x = bmland.random_block_factor(8, 2, seed=6)
    return bmland.assemble_instance(x, bmland.induce_measurement_set(g, 16, 2), g)


@pytest.mark.parametrize(
    "inst, dense", zip(INSTANCES + [_path_rank2_instance()], (True, True, False)),
    ids=["path-r1", "star-r2", "path-r2"],
)
def test_pair_fit_residual_exact_at_truth(inst, dense):
    # Whichever arithmetic the kernel uses on Omega, the fit residual reads M*
    # on the observed entries by its own products: an exact 0 at X1 = x*.
    assert inst.omega.dense == dense
    X2 = np.random.default_rng(7).standard_normal((3, inst.n, inst.r))
    Z = np.concatenate([np.broadcast_to(inst.x_star, X2.shape), X2], axis=-1)
    res = _PairPenalty(inst, 1.0, 1.0, 1.0, 1.0).residuals(Z)[0]
    m = len(inst.omega)
    assert res.shape == (3, 2 * m + 1)
    assert np.all(res[:, :m] == 0.0) and np.all(res[:, m:-1] != 0.0)


@pytest.mark.parametrize("inst", INSTANCES)
def test_pair_residual_jacobian_finite_difference(inst):
    Z, separation = _random_pairs(inst, 6, seed=4)
    D = np.random.default_rng(5).standard_normal(Z.shape)
    h = 1e-6
    r, W, target = inst.r, inst.omega.mask(), inst.m_star_omega()
    X1, X2 = Z[..., :r], Z[..., r:]
    g1, g2 = X1 @ X1.swapaxes(1, 2), X2 @ X2.swapaxes(1, 2)
    d = _dense_separation(Z, r)
    gap = np.maximum(separation - d, 0.0)
    assert np.any(gap > 0) and np.any(gap == 0)
    for w0, rho, rho_sep in ((1.0, 10.0, 100.0), (0.0, 1.0, 1.0)):
        pen = _PairPenalty(inst, w0, rho, rho_sep, separation)
        res, J, _ = pen.residuals(Z)
        fd = (pen.residuals(Z + h * D)[0] - pen.residuals(Z - h * D)[0]) / (2 * h)
        an = J @ D.reshape(len(Z), -1, 1)
        assert np.all(np.abs(fd - an[..., 0]) <= 1e-6 * np.maximum(np.abs(an[..., 0]), 1.0))
        # The value and 2 J^T res against the penalty's dense formula, for
        # pairs with the gap term active and inactive.
        R0, R2 = g1 * W - target, (g1 - g2) * W
        value = w0 * np.sum(R0**2, axis=(1, 2)) + rho * np.sum(R2**2, axis=(1, 2)) + rho_sep * gap**2
        A = 4.0 * rho * R2 - (4.0 * rho_sep * gap / d)[:, None, None] * (g1 - g2)
        grad = np.concatenate([(4.0 * w0 * R0 + A) @ X1, -A @ X2], axis=-1)
        assert np.allclose(pen.value_and_grad(Z)[0], value, rtol=1e-12, atol=0)
        jt_res = 2.0 * (res[:, None] @ J).reshape(Z.shape)
        assert np.allclose(jt_res, grad, rtol=1e-10, atol=1e-10 * np.abs(grad).max())


def test_pair_solve_alone_matches_batch():
    inst = helpers.path_instance(5, gamma=0.1, seed=3)
    Z, separation = _random_pairs(inst, 5, seed=6)
    # A fit round and the polish from random pairs, which take different
    # numbers of steps, so the stack around each pair shrinks while it solves.
    for w0, rho, rho_sep in ((1.0, 10.0, 10.0), (0.0, 1.0, 1.0)):
        pen = _PairPenalty(inst, w0, rho, rho_sep, separation)
        batch = pen.solve(Z, 200, 1e-10)
        for p in range(len(Z)):
            assert np.array_equal(pen.solve(Z[p : p + 1], 200, 1e-10)[0], batch[p])


def test_estimate_converged_on_star_rank2():
    # ``estimate_complexity_metric`` at acceptance 09's budget (20 restarts,
    # 1500 steps, seed 1) on the rank-2 star: more solver steps per round
    # change nothing, and the estimate is no higher than the first-order
    # rounds' 0.030787597215064504.
    inst = helpers.star_rank2_instance()
    reps = _endpoints(inst, bmland.LossSpec.l2(), 20, seed=1)[0]
    separation = 1e-3 * float(np.linalg.norm(inst.m_star()))
    short, long = (_best_pair(inst, reps, separation, iters) for iters in (1500, 6000))
    assert short.found and short.value == pytest.approx(long.value, rel=1e-10, abs=0)
    assert short.value <= 0.030787597215064504


def test_estimate_independent_of_threads():
    inst = helpers.path_instance(4, gamma=0.1, seed=9)
    one, two = (
        bmland.estimate_complexity_metric(inst, bmland.MetricBudget(10, 800), seed=1, threads=t)
        for t in (1, 2)
    )
    assert one.found and one.value == two.value
    assert one.separation_achieved == two.separation_achieved
    assert all(np.array_equal(a, b) for a, b in zip(one.witness_pair, two.witness_pair))


def test_estimate_independent_of_discovery_order():
    # Seeds 0 and 1 find the same candidates from different starts, in a
    # different order; the pairs are oriented by the census order instead.
    inst = helpers.path_instance(6, 0.05, 11)
    a, b = (
        bmland.estimate_complexity_metric(inst, bmland.MetricBudget(30, 2000), seed=s, threads=2)
        for s in (0, 1)
    )
    assert a.found and b.found
    assert a.value == pytest.approx(b.value, rel=1e-12, abs=0)
    assert a.separation_achieved == pytest.approx(b.separation_achieved, rel=1e-9, abs=0)


def test_polished_pair_independent_of_candidate_order():
    # Reversing the candidates swaps X1 and X2 in every pair; each pair's
    # polished point fits the observed entries equally well either way.
    inst = helpers.path_instance(6, 0.05, 11)
    reps = _endpoints(inst, bmland.LossSpec.l2(), 30, seed=1, threads=2)[0]
    assert len(reps) >= 2
    separation = 1e-3 * float(np.linalg.norm(inst.m_star()))
    fwd, rev = (_best_pair(inst, c, separation, 2000) for c in (reps, reps[::-1]))
    assert fwd.found and rev.found
    assert fwd.value == pytest.approx(rev.value, rel=1e-10, abs=0)


def test_estimate_classifies_nothing(monkeypatch):
    calls = []
    classify = bmland.census.classify_critical_point
    monkeypatch.setattr(
        bmland.census, "classify_critical_point", lambda *a: calls.append(1) or classify(*a)
    )
    inst = helpers.path_instance(6, 0.05, 11)
    est = bmland.estimate_complexity_metric(inst, bmland.MetricBudget(30, 2000), seed=1)
    assert est.found
    assert len(calls) == 0
