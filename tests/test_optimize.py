import dataclasses
import os

import numpy as np
import pytest

import bmland
from bmland import Classification, GdConfig, Status, optimize
from bmland.errors import DimensionMismatch, NotNearCritical, ValidationError
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
    for bad in (-1.0, 0.0, float("nan")):
        with pytest.raises(DimensionMismatch, match="sigma"):
            bmland.sample_radial_init("gaussian", 4, 1, seed=0, sigma=bad)
        with pytest.raises(DimensionMismatch, match="radius"):
            bmland.sample_radial_init("ball", 4, 1, seed=0, radius=bad)
    with pytest.raises(DimensionMismatch):
        bmland.sample_radial_init("cauchy", 4, 1, seed=0)


def test_gd_converges_on_unperturbed_instance():
    inst = helpers.path_instance(4)
    cfg = GdConfig().resolved(inst)
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
    # A non-positive divergence bound would mark every start diverged at
    # iteration 0, and NaN compares false against every bound.
    for name in ("step", "grad_tol", "divergence_bound"):
        for bad in (-1.0, 0.0, float("nan")):
            with pytest.raises(DimensionMismatch, match=name):
                GdConfig(**{name: bad})


def test_batch_matches_single_runs():
    inst = helpers.path_instance(4, gamma=0.1, seed=7)
    X0 = bmland.sample_radial_init("gaussian", 4, 1, seed=11, size=6)
    batch = bmland.gradient_descent_batch(inst, L2, X0, GdConfig())
    for b in range(6):
        res = bmland.gradient_descent(inst, L2, X0[b])
        assert np.array_equal(res.final_point, batch.points[b])
        assert res.final_objective == batch.values[b]
        assert res.status == batch.status[b]


def test_chunked_runner_invariant_to_threads(monkeypatch):
    inst = helpers.path_instance(4)
    X0 = bmland.sample_radial_init("gaussian", 4, 1, seed=2, size=64)
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 16)
    a = run_batch_chunked(inst, L2, X0, GdConfig(), threads=1)
    b = run_batch_chunked(inst, L2, X0, GdConfig(), threads=4)
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


def test_retiring_samples_match_single_runs():
    # Truth (1000, 0, 1000) on the path with self-loops. (1050, 0, 0) converges
    # to the saddle (1000, 0, 0), and (1000, 0, 0.1) escapes from it past the
    # divergence bound. Along (0, t, 0) the objective is quartic-flat: from
    # t = 0.5 the value still falls at max_iters, while from t = 0.1 its change
    # stays below one ulp of the value, so that start stalls. The fixed step is
    # long enough to be rejected at times, so some iterations accept the step
    # of one sample and reject another's.
    base = helpers.path_instance(3)
    inst = bmland.assemble_instance(1000.0 * base.x_star, base.omega, base.graph, [1, 3])
    X0 = np.array([[0, 0.5, 0], [1050, 0, 0], [0, 0.1, 0], [1000, 0, 0.1]])[..., None]
    cfg = GdConfig(step=3e-7, max_iters=600, divergence_bound=1200.0)
    batch = bmland.gradient_descent_batch(inst, L2, X0, cfg)
    assert list(batch.status) == [Status.MAX_ITERS, Status.CONVERGED, Status.STALLED, Status.DIVERGED]
    assert batch.iters[0] == 600 and 0 < batch.iters[2] < 600
    assert 0 < batch.iters[1] < 600 and 0 < batch.iters[3] < 600
    assert np.array_equal(batch.values, bmland.objective(inst, L2, batch.points))
    for b in range(len(X0)):
        alone = bmland.gradient_descent_batch(inst, L2, X0[b : b + 1], cfg)
        for field in dataclasses.fields(alone):
            assert np.array_equal(getattr(alone, field.name)[0], getattr(batch, field.name)[b])


def test_stacked_instances_match_each_block_alone(monkeypatch):
    # Two instances over one Omega whose resolved grad_tol (1.4e-3, 2.4e-9)
    # and divergence bound (14152, 24.1) differ: the truth (1000, 0, 1000) of
    # test_retiring_samples_match_single_runs, and (1, 0, 1). From (0, 200, 0)
    # the first step lands past the small instance's bound, and at
    # (1 + 1e-5, 0, 1) the gradient is below the large instance's grad_tol
    # but not the small one's.
    base = helpers.path_instance(3)
    big = bmland.assemble_instance(1000.0 * base.x_star, base.omega, base.graph, [1, 3])
    small = bmland.assemble_instance(base.x_star, base.omega, base.graph, [1, 3])
    blocks = [
        np.array([[0, 0.5, 0], [1050, 0, 0], [0, 0.1, 0], [1000, 0, 0.1]])[..., None],
        np.array([[0, 200, 0], [1.1, 0, 0.9], [0, 0.1, 0], [1 + 1e-5, 0, 1]])[..., None],
    ]
    # Chunks of three rows: one of them spans the two blocks.
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 3)
    # A fixed step, and the auto step each start takes from its instance.
    for cfg in (GdConfig(step=3e-7, max_iters=600), GdConfig(max_iters=600)):
        alone = [bmland.gradient_descent_batch(i, L2, X, cfg) for i, X in zip((big, small), blocks)]
        expected = {
            f.name: np.concatenate([getattr(a, f.name) for a in alone])
            for f in dataclasses.fields(alone[0])
        }
        stacked = [bmland.gradient_descent_batch([big, small], L2, blocks, cfg)]
        for threads in (1, 2):
            stacked.append(run_batch_chunked([big, small], L2, blocks, cfg, threads=threads))
        for res in stacked:
            for name, want in expected.items():
                assert np.array_equal(getattr(res, name), want), name
        if cfg.step is not None:
            assert list(expected["status"]) == [
                Status.MAX_ITERS, Status.CONVERGED, Status.STALLED, Status.CONVERGED,
                Status.DIVERGED, Status.MAX_ITERS, Status.MAX_ITERS, Status.MAX_ITERS,
            ]


@pytest.mark.parametrize("r", [1, 2])
def test_row_list_descent_independent_of_stack(monkeypatch, r):
    # Omega of a path with n = 8 blocks has row lists of width 3r <= 8r / 2,
    # so the descent runs on the row-list kernel, not the identity layout.
    g = bmland.build_named_pattern("example1_path", n=8)
    omega = bmland.induce_measurement_set(g, 8 * r, r)
    a = bmland.assemble_instance(bmland.random_block_factor(8, r, seed=1), omega, g)
    b = bmland.assemble_instance(bmland.random_block_factor(8, r, seed=2), omega, g)
    assert not omega.dense
    blocks = [bmland.sample_radial_init("gaussian", 8 * r, r, seed=s, size=37) for s in (3, 4)]
    # A loose grad_tol retires some starts early, so the working set shrinks.
    cfg = GdConfig(max_iters=400, grad_tol=0.1)
    stacked = [bmland.gradient_descent_batch([a, b], L2, blocks, cfg)]
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 5)  # chunks of 4 and 5 rows, some spanning both blocks
    for threads in (1, 2):
        stacked.append(run_batch_chunked([a, b], L2, blocks, cfg, threads=threads))
    # Each start alone, and each block alone, gives the same bits.
    alone = [bmland.gradient_descent_batch(a, L2, blocks[0][k : k + 1], cfg) for k in (0, 17, 36)]
    block = bmland.gradient_descent_batch(a, L2, blocks[0], cfg)
    other = bmland.gradient_descent_batch(b, L2, blocks[1], cfg)
    for res in stacked:
        for f in dataclasses.fields(block):
            got = getattr(res, f.name)
            assert np.array_equal(got[:37], getattr(block, f.name)), f.name
            assert np.array_equal(got[37:], getattr(other, f.name)), f.name
            for k, one in zip((0, 17, 36), alone):
                assert np.array_equal(got[k], getattr(one, f.name)[0]), f.name
    assert block.iters.min() < block.iters.max()


def _bowl(X, idx=None):
    """1000 + 2u^2 + v^4 - v^6/6 of a (b, 2, 1) stack of points (u, v), and its
    gradient: u contracts to 0, v is quartic-flat at 0 and falls without bound
    past |v| = 2, and the constant puts the value's rounding floor at 1e-13."""
    u, v = X[:, 0, 0], X[:, 1, 0]
    f = 1000.0 + 2.0 * u * u + v**4 - v**6 / 6.0
    return f, np.stack([4.0 * u, 4.0 * v**3 - v**5], axis=-1)[..., None]


def _reference_descent(value_and_grad, x0, step0, max_iters, grad_tol, bound):
    """One start's descent by the rules ``descend_batch`` documents, one point
    at a time: (point, value, gradient norm, iterations, status, halvings,
    whether the step reached its cap)."""
    def norm(a):
        return np.sqrt(optimize._sq_norms(a[None]))[0]

    x = x0
    f, g = (a[0] for a in value_and_grad(x[None], None))
    step, accepted, flat, halvings, capped = step0, 0, 0, 0, False
    for it in range(max_iters):
        gn = norm(g)
        if gn <= grad_tol:
            return x, f, gn, it, Status.CONVERGED, halvings, capped
        xnew = x - step * g
        fnew, gnew = (a[0] for a in value_and_grad(xnew[None], None))
        flat = 0 if fnew < f else flat + 1
        if fnew > f:
            step, accepted, halvings = step * 0.5, 0, halvings + 1
        else:
            x, f, g, accepted = xnew, fnew, gnew, accepted + 1
            if accepted == optimize.STEP_GROWTH_EVERY:
                cap = optimize.STEP_GROWTH_CAP * step0
                step, accepted = min(step * optimize.STEP_GROWTH, cap), 0
                capped |= step == cap
            if norm(x) > bound:
                return x, f, gn, it + 1, Status.DIVERGED, halvings, capped
        if flat >= optimize.STALL_LIMIT:
            return x, f, gn, it + 1, Status.STALLED, halvings, capped
    return x, f, norm(g), max_iters, Status.MAX_ITERS, halvings, capped


def test_descend_batch_matches_reference_loop():
    # From (1, 0) and (1, 1.9) u converges at grad_tol; from (0, 1e-4) the
    # value sits at its rounding floor and stalls; (0.3, 0.5) and (-0.7, 0.2)
    # still descend at max_iters; (0, 2.5) passes the bound. The step grows
    # until it overshoots in u, so steps are rejected, and halved, at times.
    # The last start begins past its bound, and its first two steps are
    # rejected: it diverges on the third, the first it accepts.
    X0 = np.array([[1, 0], [0, 1e-4], [0.3, 0.5], [0, 2.5], [1, 1.9], [-0.7, 0.2], [1, 0]])[..., None]
    steps0 = np.array([0.05, 0.05, 0.05, 0.04, 0.05, 0.06, 2.0])
    tol = np.array([1e-4, 0, 0, 0, 1e-3, 0, 0])
    bound = np.array([10, 10, 10, 10, 10, 10, 0.5])
    res = optimize.descend_batch(_bowl, X0, steps0, 600, tol, bound)
    refs = [_reference_descent(_bowl, *args, 600, t, c) for *args, t, c in zip(X0, steps0, tol, bound)]
    for b, (x, f, gn, iters, status, _, _) in enumerate(refs):
        assert np.array_equal(res.points[b], x) and res.values[b] == f, b
        assert res.grad_norms[b] == gn and res.iters[b] == iters and res.status[b] is status, b
    assert set(res.status) == set(Status) and res.iters[-1] == 3
    assert sum(r[5] for r in refs) > 0 and any(r[6] for r in refs)


def test_descend_batch_stops_when_last_start_retires():
    calls = []

    def counted(fn):
        def value_and_grad(X, idx):
            calls.append(len(idx))
            return fn(X, idx)
        return value_and_grad

    def uphill(X, idx):
        return -optimize._sq_norms(X), -2.0 * X

    # From 1 one step of -||X||^2 lands on 3, past the bound: one step taken.
    X0 = np.ones((4, 1, 1))
    res = optimize.descend_batch(counted(uphill), X0, np.ones(4), 10**6, 1e-9, 2.5)
    assert list(res.status) == [Status.DIVERGED] * 4
    assert np.array_equal(res.points, 3.0 * X0) and list(res.iters) == [1] * 4
    assert calls == [4, 4]
    calls.clear()
    # At the bowl's rounding floor every start stalls after STALL_LIMIT steps.
    X0 = np.array([[0, 1e-4], [0, -2e-4], [0, 5e-5]])[..., None]
    res = optimize.descend_batch(counted(_bowl), X0, np.full(3, 0.05), 10**6, 0.0, 10.0)
    assert list(res.status) == [Status.STALLED] * 3
    assert list(res.iters) == [optimize.STALL_LIMIT] * 3
    assert len(calls) == 1 + optimize.STALL_LIMIT


def test_stack_rejects_mismatched_instances():
    a = helpers.path_instance(4)
    b = helpers.path_instance(5)
    X = bmland.sample_radial_init("gaussian", 4, 1, seed=0, size=2)
    with pytest.raises(DimensionMismatch, match="one block"):
        run_batch_chunked([a, a], L2, [X], GdConfig())
    with pytest.raises(DimensionMismatch, match="share"):
        run_batch_chunked([a, b], L2, [X, X], GdConfig())


def test_chunk_plan_covers_stack_in_near_equal_chunks():
    rows = optimize.CHUNK_ROWS  # the byte budget allows more at these n and d
    for B in (1, 30, 127, 255, 256, 300, 500, 3000, 40_000, 50_000):
        for n, d in ((6, 3), (8, 8), (20, 8)):
            for threads in (1, 2, 4):
                sizes = np.diff(optimize._chunk_bounds(B, n, d, threads))
                assert sizes.sum() == B and sizes.min() >= 1
                assert sizes.max() - sizes.min() <= 1 and sizes.max() <= rows
                needed = -(-B // rows)
                if threads == 1:
                    # As many chunks as the row cap needs, and no more.
                    assert len(sizes) == needed
                # A chunk per worker once every chunk can keep MIN_CHUNK_ROWS.
                assert len(sizes) == max(needed, min(threads, B // optimize.MIN_CHUNK_ROWS))
                if len(sizes) > needed:
                    assert sizes.min() >= optimize.MIN_CHUNK_ROWS


def test_chunk_plan_of_product_sizes():
    def sizes(B, n, d, threads):
        return list(np.diff(optimize._chunk_bounds(B, n, d, threads)))

    # The sweep (Erdos-Renyi, d = 8 of n = 20) and the rank-2 census (identity
    # layout) get a chunk per worker, the metric's 30-start census (path,
    # d = 3) stays whole, and a stack over the row cap is cut by it.
    assert sizes(300, 20, 8, 2) == [150, 150]
    assert sizes(500, 8, 8, 2) == [250, 250] and sizes(500, 8, 8, 1) == [500]
    assert sizes(30, 6, 3, 2) == [30]
    assert sizes(40_000, 6, 3, 2) == [4000] * 10 == sizes(40_000, 6, 3, 1)
    assert sizes(3000, 20, 8, 4) == [750] * 4
    assert sizes(300, 20, 8, 4) == [150, 150]
    assert len(sizes(50_000, 8, 8, 4)) == 13
    # A rank-1 path at n = 800 has rows of 3 entries: the byte budget allows
    # 3495 rows a chunk, against 13 on the (n, n) identity layout.
    assert sizes(3495, 800, 3, 1) == [3495] and sizes(3496, 800, 3, 1) == [1748, 1748]
    assert sizes(13, 800, 800, 1) == [13] and sizes(14, 800, 800, 1) == [7, 7]


def test_chunk_rows_capped_by_memory_budget(monkeypatch):
    for n, d in ((4, 4), (8, 3)):  # the identity layout and row lists
        inst = helpers.path_instance(n)
        assert inst.omega.cols.shape == (n, d)
        X0 = bmland.sample_radial_init("gaussian", n, 1, seed=2, size=10)
        monkeypatch.setattr(optimize, "CHUNK_BUDGET_BYTES", 3 * 8 * n * d)  # three (n, d) arrays
        for threads in (1, 2):
            assert list(np.diff(optimize._chunk_bounds(10, n, d, threads))) == [2, 3, 2, 3]
        one = run_batch_chunked(inst, L2, X0, GdConfig(), threads=1)
        two = run_batch_chunked(inst, L2, X0, GdConfig(), threads=2)
        for other in (two, optimize.gradient_descent_batch(inst, L2, X0, GdConfig())):
            for field in dataclasses.fields(one):
                assert np.array_equal(getattr(one, field.name), getattr(other, field.name))


def test_worker_error_reaches_caller_with_its_type(monkeypatch):
    inst = helpers.path_instance(4)
    X0 = bmland.sample_radial_init("gaussian", 4, 1, seed=2, size=64)
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 16)
    parent = os.getpid()
    descend = optimize.gradient_descent_batch

    def failing_in_worker(*args):
        if os.getpid() != parent:
            raise ValidationError("threads", "must be >= 1")
        return descend(*args)

    monkeypatch.setattr(optimize, "gradient_descent_batch", failing_in_worker)
    with pytest.raises(ValidationError) as info:
        run_batch_chunked(inst, L2, X0, GdConfig(), threads=2)
    assert info.value.field == "threads"
    assert str(info.value) == "config field 'threads': must be >= 1"


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


def _coarse_endpoints(inst, n_starts, seed, max_iters):
    """Canonical endpoints of descents stopped at 1e-4 (1 + ||M*_Omega||)."""
    cfg = GdConfig(max_iters=max_iters, grad_tol=1e-4 * (1.0 + inst.omega_scale()))
    X0 = bmland.sample_radial_init("gaussian", inst.n, inst.r, seed, size=n_starts)
    res = bmland.gradient_descent_batch(inst, L2, X0, cfg)
    return bmland.canonicalize(res.points[res.converged])


def test_newton_refine_on_a_stack_matches_each_point(monkeypatch):
    inst = helpers.star_rank2_instance()
    far = 5.0 + np.arange(16.0).reshape(8, 2)
    X = np.concatenate([_coarse_endpoints(inst, 12, 3, 3000), far[None]])
    refined = bmland.newton_refine(inst, L2, X)
    assert np.array_equal(refined[-1], far)  # not near a critical point: left as it is
    assert np.array_equal(refined[:-1], np.stack([bmland.newton_refine(inst, L2, x) for x in X[:-1]]))
    verdicts = bmland.classify_critical_point(inst, L2, refined)
    assert verdicts == [bmland.classify_critical_point(inst, L2, x) for x in refined]
    assert verdicts[-1].kind == Classification.NOT_CRITICAL
    # Hessians taken one point per chunk give the same bits.
    monkeypatch.setattr(optimize, "CHUNK_BUDGET_BYTES", 1)
    assert np.array_equal(bmland.newton_refine(inst, L2, X), refined)
    assert bmland.classify_critical_point(inst, L2, refined) == verdicts


def test_newton_refine_polishes_cross_pattern_endpoints():
    # Acceptance 05's benign cross pattern: its global minima curve weakly
    # (tangent lambda_min near 4e-3), and the descents stop at 1e-4.
    g = bmland.build_named_pattern("cross", m=4, k=4)
    omega = bmland.induce_measurement_set(g, 8, 2)
    inst = bmland.assemble_instance(bmland.random_block_factor(4, 2, seed=21), omega, g)
    X = _coarse_endpoints(inst, 40, 5, 20000)
    assert len(X) >= 30
    refined = bmland.newton_refine(inst, L2, X)
    grad_norms = np.linalg.norm(bmland.gradient(inst, L2, refined), axis=(1, 2))
    assert np.all(grad_norms <= 1e-12 * (1.0 + inst.omega_scale()))
    verdicts = bmland.classify_critical_point(inst, L2, refined)
    assert {v.kind for v in verdicts} == {Classification.GLOBAL_MIN}


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


def test_is_success_on_a_stack_matches_each_point():
    inst = helpers.star_rank2_instance(gamma=0.0)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    near = inst.x_star @ q
    # Relative errors on both sides of the 1e-4 threshold, and a far point.
    X = np.stack([near, -near, near * (1 + 2e-5), near * (1 + 6e-5), rng.standard_normal((8, 2))])
    mask = bmland.is_success(inst, X)
    assert mask.dtype == bool and mask.shape == (len(X),)
    assert list(mask) == [bmland.is_success(inst, x) for x in X]
    assert list(mask) == [True, True, True, False, False]
    assert type(bmland.is_success(inst, near)) is bool
    path = helpers.path_instance(4)
    assert bmland.is_success(path, path.x_star[:, 0]) is True


def test_public_names_resolve():
    for name in bmland.__all__:
        assert getattr(bmland, name) is not None, name
    assert len(set(bmland.__all__)) == len(bmland.__all__)
