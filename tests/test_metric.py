import numpy as np
import pytest

import bmland
from bmland.errors import DimensionMismatch
from bmland.metric import _PairPenalty, _terms

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
    with pytest.raises(DimensionMismatch):
        bmland.estimate_complexity_metric(inst, bmland.MetricBudget(), separation=-1.0)


def _random_pairs(inst, size, seed):
    """(size, n, 2r) pairs and a separation that half of them fall short of."""
    Z = np.random.default_rng(seed).standard_normal((size, inst.n, 2 * inst.r))
    return Z, float(np.median(_terms(inst, Z)[-1]))


@pytest.mark.parametrize("inst", [helpers.path_instance(5, 0.1, 3), helpers.star_rank2_instance()])
def test_pair_penalty_gradient_finite_difference(inst):
    Z, separation = _random_pairs(inst, 6, seed=4)
    D = np.random.default_rng(5).standard_normal(Z.shape)
    h = 1e-6
    for w0, rho, rho_sep in ((1.0, 10.0, 100.0), (0.0, 1.0, 1.0)):
        pen = _PairPenalty(inst, w0, rho, rho_sep, separation)
        fd = (pen.value_and_grad(Z + h * D)[0] - pen.value_and_grad(Z - h * D)[0]) / (2 * h)
        an = np.einsum("pij,pij->p", pen.value_and_grad(Z)[1], D)
        assert np.all(np.abs(fd - an) <= 1e-6 * np.maximum(np.abs(an), 1.0))


def test_pair_descent_alone_matches_batch():
    inst = helpers.path_instance(5, gamma=0.1, seed=3)
    Z, separation = _random_pairs(inst, 5, seed=6)
    # The polish penalty: these pairs converge after 124 to 861 steps, so the
    # batch around each pair shrinks while it descends.
    pen = _PairPenalty(inst, 0.0, 1.0, 1.0, separation)
    batch = pen.descend(Z, 2000, 1e-10)
    for p in range(len(Z)):
        assert np.array_equal(pen.descend(Z[p : p + 1], 2000, 1e-10)[0], batch[p])


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
