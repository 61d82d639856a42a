import dataclasses

import numpy as np
import pytest

import bmland
from bmland import Classification, GdConfig, Status
from bmland.errors import DimensionMismatch, NotNearCritical
from bmland.optimize import run_batch_chunked

import helpers
from helpers import L2


def test_sample_radial_init_shapes_and_determinism():
    a = bmland.sample_radial_init("gaussian", 5, 2, seed=3, size=10)
    b = bmland.sample_radial_init("gaussian", 5, 2, seed=3, size=10)
    assert a.shape == (10, 5, 2) and np.array_equal(a, b)
    single = bmland.sample_radial_init("gaussian", 5, 2, seed=3)
    assert single.shape == (5, 2)


def test_sample_ball_within_radius():
    X = bmland.sample_radial_init("ball", 4, 1, seed=1, radius=0.7, size=500)
    norms = np.linalg.norm(X, axis=(1, 2))
    assert norms.max() <= 0.7 + 1e-12
    assert norms.min() > 0


def test_sample_init_rejects_bad_params():
    with pytest.raises(DimensionMismatch):
        bmland.sample_radial_init("gaussian", 4, 1, seed=0, sigma=-1.0)
    with pytest.raises(DimensionMismatch):
        bmland.sample_radial_init("cauchy", 4, 1, seed=0)


def test_gd_converges_on_unperturbed_instance():
    inst = helpers.path_instance(4)
    cfg = GdConfig().resolved(inst, None)
    for seed in range(5):
        x0 = bmland.sample_radial_init("gaussian", 4, 1, seed=seed)
        res = bmland.gradient_descent(inst, L2, x0)
        assert res.status == Status.CONVERGED
        assert res.final_grad_norm <= cfg.grad_tol
        assert res.final_objective <= 1e-10
        assert res.final_objective <= bmland.objective(inst, L2, x0)


def test_gd_diverged_status():
    inst = helpers.path_instance(3)
    inst = bmland.assemble_instance(10.0 * inst.x_star, inst.omega, inst.graph, [1, 3])
    x0 = 0.5 * inst.x_star  # descent moves outward toward the large truth
    res = bmland.gradient_descent(inst, L2, x0, GdConfig(divergence_bound=6.0))
    assert res.status == Status.DIVERGED


def test_gd_max_iters_status():
    inst = helpers.path_instance(4, gamma=0.3, seed=1)
    x0 = bmland.sample_radial_init("gaussian", 4, 1, seed=0)
    res = bmland.gradient_descent(inst, L2, x0, GdConfig(max_iters=3))
    assert res.status == Status.MAX_ITERS and res.iterations == 3


def test_gd_config_validation():
    with pytest.raises(DimensionMismatch):
        GdConfig(step=-1.0)
    with pytest.raises(DimensionMismatch):
        GdConfig(grad_tol=0.0)
    with pytest.raises(DimensionMismatch):
        GdConfig(max_iters=0)


def test_batch_matches_single_runs():
    inst = helpers.path_instance(4, gamma=0.1, seed=7)
    X0 = bmland.sample_radial_init("gaussian", 4, 1, seed=11, size=6)
    batch = bmland.gradient_descent_batch(inst, L2, X0, GdConfig())
    for b in range(6):
        res = bmland.gradient_descent(inst, L2, X0[b])
        assert np.array_equal(res.final_point, batch.points[b])
        assert res.final_objective == batch.values[b]
        assert res.status == batch.status[b]


def test_chunked_runner_invariant_to_threads():
    inst = helpers.path_instance(4)
    X0 = bmland.sample_radial_init("gaussian", 4, 1, seed=2, size=64)
    a = run_batch_chunked(inst, L2, X0, GdConfig(), threads=1, chunk_size=16)
    b = run_batch_chunked(inst, L2, X0, GdConfig(), threads=4, chunk_size=16)
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_newton_refine_polishes_gd_endpoint():
    inst = helpers.path_instance(4, gamma=0.05, seed=3)
    x0 = bmland.sample_radial_init("gaussian", 4, 1, seed=1)
    res = bmland.gradient_descent(inst, L2, x0)
    refined = bmland.newton_refine(inst, L2, res.final_point)
    scale = 1.0 + inst.omega_scale()
    assert np.linalg.norm(bmland.gradient(inst, L2, refined)) <= 1e-12 * scale


def test_newton_refine_rejects_far_point():
    inst = helpers.path_instance(4)
    far = 5.0 + np.arange(4.0).reshape(4, 1)
    with pytest.raises(NotNearCritical):
        bmland.newton_refine(inst, L2, far)


def test_classification_of_known_points():
    inst = helpers.path_instance(4)
    assert bmland.classify_critical_point(inst, L2, inst.x_star).kind == Classification.GLOBAL_MIN
    zero = np.zeros((4, 1))
    assert bmland.classify_critical_point(inst, L2, zero).kind == Classification.STRICT_SADDLE
    rng = np.random.default_rng(0)
    assert (
        bmland.classify_critical_point(inst, L2, rng.standard_normal((4, 1))).kind
        == Classification.NOT_CRITICAL
    )


def test_classification_stable_under_canonicalization():
    inst = helpers.star_rank2_instance(gamma=0.0)
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = inst.x_star @ q
    assert bmland.classify_critical_point(inst, L2, rotated).kind == Classification.GLOBAL_MIN


def test_is_success_sign_and_orbit_invariance():
    inst = helpers.path_instance(4)
    assert bmland.is_success(inst, inst.x_star)
    assert bmland.is_success(inst, -inst.x_star)
    assert not bmland.is_success(inst, inst.x_star + 0.5)
    inst2 = helpers.star_rank2_instance(gamma=0.0)
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
    assert bmland.is_success(inst2, inst2.x_star @ q)
