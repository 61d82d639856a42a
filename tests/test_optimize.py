import dataclasses
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bmland
from bmland import Classification, GdConfig, Status, optimize
from bmland.errors import DimensionMismatch, NotNearCritical, ValidationError
from bmland.optimize import run_batch_chunked

import helpers
from helpers import L2


def _descend_one(inst, x0, cfg=None):
    """A one-start ``run_batch_chunked``: its result record."""
    return run_batch_chunked(inst, L2, x0, cfg or GdConfig())


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
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
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
        res = _descend_one(inst, x0)
        assert list(res.status) == [Status.CONVERGED]
        assert res.grad_norms[0] <= cfg.grad_tol
        assert res.values[0] <= 1e-10
        assert res.values[0] <= bmland.objective(inst, L2, x0)


def test_gd_diverged_status():
    inst = helpers.path_instance(3)
    inst = bmland.assemble_instance(10.0 * inst.x_star, inst.omega, inst.graph, [1, 3])
    x0 = 0.5 * inst.x_star  # descent moves outward toward the large truth
    res = _descend_one(inst, x0, GdConfig(divergence_bound=6.0))
    assert list(res.status) == [Status.DIVERGED]


def test_gd_max_iters_status():
    inst = helpers.path_instance(4, gamma=0.3, seed=1)
    x0 = bmland.sample_radial_init("gaussian", 4, 1, seed=0)
    res = _descend_one(inst, x0, GdConfig(max_iters=3))
    assert list(res.status) == [Status.MAX_ITERS] and list(res.iters) == [3]


def test_gd_config_validation():
    with pytest.raises(DimensionMismatch):
        GdConfig(step=-1.0)
    with pytest.raises(DimensionMismatch):
        GdConfig(grad_tol=0.0)
    for bad in (0, 2.5, 1e4):
        with pytest.raises(DimensionMismatch, match="max_iters"):
            GdConfig(max_iters=bad)
    # A non-positive divergence bound would mark every start diverged at
    # iteration 0, and NaN compares false against every bound; +inf is no
    # bound, but an infinite step or grad_tol is not a setting.
    for name in ("step", "grad_tol", "divergence_bound"):
        for bad in (-1.0, 0.0, float("nan")) + ((float("inf"),) if name != "divergence_bound" else ()):
            with pytest.raises(DimensionMismatch, match=name):
                GdConfig(**{name: bad})
    assert GdConfig(divergence_bound=float("inf")).divergence_bound == float("inf")


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
    batch = run_batch_chunked(inst, L2, X0, cfg)
    assert list(batch.status) == [Status.MAX_ITERS, Status.CONVERGED, Status.STALLED, Status.DIVERGED]
    assert batch.iters[0] == 600 and 0 < batch.iters[2] < 600
    assert 0 < batch.iters[1] < 600 and 0 < batch.iters[3] < 600
    assert np.array_equal(batch.values, bmland.objective(inst, L2, batch.points))
    for b in range(len(X0)):
        alone = run_batch_chunked(inst, L2, X0[b : b + 1], cfg)
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
        alone = [run_batch_chunked(i, L2, X, cfg) for i, X in zip((big, small), blocks)]
        expected = {
            f.name: np.concatenate([getattr(a, f.name) for a in alone])
            for f in dataclasses.fields(alone[0])
        }
        stacked = [optimize._descend(*optimize._stack([big, small], blocks), L2, cfg)]
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
    # so the descent runs on the row-list kernel, not the dense one.
    g = bmland.build_named_pattern("example1_path", n=8)
    omega = bmland.induce_measurement_set(g, 8 * r, r)
    a = bmland.assemble_instance(bmland.random_block_factor(8, r, seed=1), omega, g)
    b = bmland.assemble_instance(bmland.random_block_factor(8, r, seed=2), omega, g)
    assert not omega.dense
    blocks = [bmland.sample_radial_init("gaussian", 8 * r, r, seed=s, size=37) for s in (3, 4)]
    # A loose grad_tol retires some starts early, so the working set shrinks.
    cfg = GdConfig(max_iters=400, grad_tol=0.1)
    stacked = [run_batch_chunked([a, b], L2, blocks, cfg)]
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 5)  # chunks of 4 and 5 rows, some spanning both blocks
    for threads in (1, 2):
        stacked.append(run_batch_chunked([a, b], L2, blocks, cfg, threads=threads))
    # Each start alone, and each block alone, gives the same bits.
    alone = [run_batch_chunked(a, L2, blocks[0][k : k + 1], cfg) for k in (0, 17, 36)]
    block = run_batch_chunked(a, L2, blocks[0], cfg)
    other = run_batch_chunked(b, L2, blocks[1], cfg)
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
        if not fnew <= f:
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


def test_descend_batch_rejects_nan_value():
    # ||X||^2, NaN past |x| = 10: from 1 a step of 100 lands on -199, so the
    # step is rejected and halved until it lands inside, and the start
    # converges instead of carrying a NaN point until it stalls.
    def value_and_grad(X, idx):
        inside = np.abs(X).max(axis=(1, 2)) <= 10.0
        return np.where(inside, optimize._sq_norms(X), np.nan), np.where(inside[:, None, None], 2.0 * X, np.nan)

    res = optimize.descend_batch(value_and_grad, np.ones((1, 1, 1)), np.full(1, 100.0), 2000, 1e-9, np.inf)
    assert list(res.status) == [Status.CONVERGED] and res.iters[0] < optimize.STALL_LIMIT
    assert np.isfinite(res.points).all() and res.values[0] < 1e-18


def test_stack_rejects_mismatched_instances():
    a = helpers.path_instance(4)
    b = helpers.path_instance(5)
    X = bmland.sample_radial_init("gaussian", 4, 1, seed=0, size=2)
    with pytest.raises(DimensionMismatch, match="one block"):
        run_batch_chunked([a, a], L2, [X], GdConfig())
    with pytest.raises(DimensionMismatch, match="share"):
        run_batch_chunked([a, b], L2, [X, X], GdConfig())
    # Same n and r, and Omega differs in one symmetric pair.
    mask = a.omega.mask().copy()
    mask[0, 3] = mask[3, 0] = 1.0
    c = bmland.assemble_instance(a.x_star, bmland.MeasurementSet(4, mask))
    with pytest.raises(DimensionMismatch, match="share"):
        run_batch_chunked([a, c], L2, [X, X], GdConfig())


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


def test_chunked_descent_of_empty_stack():
    assert list(optimize._chunk_bounds(0, 4, 4, 2)) == [0, 0]  # one empty chunk
    inst = helpers.path_instance(4)
    empty = np.empty((0, 4, 1))
    for insts, X0, kwargs in (
        (inst, empty, {"threads": 2}),
        (inst, empty, {"polish": True}),
        ([inst, helpers.path_instance(4, gamma=0.1)], [empty, empty], {"threads": 2}),
    ):
        res = run_batch_chunked(insts, L2, X0, GdConfig(), **kwargs)
        assert res.points.shape == (0, 4, 1)
        assert all(len(getattr(res, f.name)) == 0 for f in dataclasses.fields(res))


def test_chunk_plan_of_product_sizes():
    def sizes(B, n, d, threads):
        return list(np.diff(optimize._chunk_bounds(B, n, d, threads)))

    # The sweep (Erdos-Renyi, d = 8 of n = 20) and the rank-2 census (dense
    # kernel, width n = 8) get a chunk per worker, the metric's 30-start
    # census (path, d = 3) stays whole, and a stack over the row cap is cut
    # by it.
    assert sizes(300, 20, 8, 2) == [150, 150]
    assert sizes(500, 8, 8, 2) == [250, 250] and sizes(500, 8, 8, 1) == [500]
    assert sizes(30, 6, 3, 2) == [30]
    assert sizes(40_000, 6, 3, 2) == [4000] * 10 == sizes(40_000, 6, 3, 1)
    assert sizes(3000, 20, 8, 4) == [750] * 4
    assert sizes(300, 20, 8, 4) == [150, 150]
    assert len(sizes(50_000, 8, 8, 4)) == 13
    # A rank-1 path at n = 800 has rows of 3 entries: the byte budget allows
    # 3495 rows a chunk, against 13 where the kernel is dense, of width n.
    assert sizes(3495, 800, 3, 1) == [3495] and sizes(3496, 800, 3, 1) == [1748, 1748]
    assert sizes(13, 800, 800, 1) == [13] and sizes(14, 800, 800, 1) == [7, 7]


def test_chunk_rows_capped_by_memory_budget(monkeypatch):
    # Both paths have row lists of width 3. At n = 4 the kernel is dense, so
    # its temporaries are (rows, n, n) and the chunks are sized by width n.
    chunk_bounds = optimize._chunk_bounds
    for n, d in ((4, 4), (8, 3)):
        inst = helpers.path_instance(n)
        assert inst.omega.cols.shape == (n, 3) and inst.omega.dense == (n == 4)
        X0 = bmland.sample_radial_init("gaussian", n, 1, seed=2, size=10)
        monkeypatch.setattr(optimize, "CHUNK_BUDGET_BYTES", 3 * 8 * n * d)  # three (n, d) arrays
        for threads in (1, 2):
            assert list(np.diff(chunk_bounds(10, n, d, threads))) == [2, 3, 2, 3]
        seen = []
        monkeypatch.setattr(optimize, "_chunk_bounds", lambda *a: seen.append(a) or chunk_bounds(*a))
        one = run_batch_chunked(inst, L2, X0, GdConfig(), threads=1)
        two = run_batch_chunked(inst, L2, X0, GdConfig(), threads=2)
        monkeypatch.setattr(optimize, "_chunk_bounds", chunk_bounds)
        assert seen == [(10, n, d, 1), (10, n, d, 2)]
        for other in (two, optimize._descend(*optimize._stack(inst, X0), L2, GdConfig())):
            for field in dataclasses.fields(one):
                assert np.array_equal(getattr(one, field.name), getattr(other, field.name))


def test_worker_error_reaches_caller_with_its_type(monkeypatch):
    inst = helpers.path_instance(4)
    X0 = bmland.sample_radial_init("gaussian", 4, 1, seed=2, size=64)
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 16)
    parent = os.getpid()
    descend = optimize.descend_batch

    def failing_in_worker(*args):
        if os.getpid() != parent:
            raise ValidationError("threads", "must be >= 1")
        return descend(*args)

    # Workers see this module as it was when their pool started, so the
    # patch goes in first and the call below starts a fresh pool.
    monkeypatch.setattr(optimize, "descend_batch", failing_in_worker)
    optimize._shutdown_pool()
    with pytest.raises(ValidationError) as info:
        run_batch_chunked(inst, L2, X0, GdConfig(), threads=2)
    assert info.value.field == "threads"
    assert str(info.value) == "config field 'threads': must be >= 1"


def _pooled_call_args(monkeypatch):
    """A descent of 64 starts in 4 chunks, which ``threads=2`` pools."""
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 16)
    inst = helpers.path_instance(4)
    return inst, L2, bmland.sample_radial_init("gaussian", 4, 1, seed=2, size=64), GdConfig()


def test_pooled_calls_share_one_pool(monkeypatch):
    args = _pooled_call_args(monkeypatch)
    first = run_batch_chunked(*args, threads=2)
    workers = {p.pid for p in multiprocessing.active_children()}
    assert len(workers) == 2
    second = run_batch_chunked(*args, threads=2)
    assert {p.pid for p in multiprocessing.active_children()} == workers
    for field in dataclasses.fields(first):
        assert np.array_equal(getattr(first, field.name), getattr(second, field.name))
    # Another thread count starts a pool of that size in place of this one.
    run_batch_chunked(*args, threads=3)
    third = {p.pid for p in multiprocessing.active_children()}
    assert len(third) == 3 and not third & workers


def test_broken_pool_is_replaced(monkeypatch):
    args = _pooled_call_args(monkeypatch)
    want = run_batch_chunked(*args, threads=2)
    pool = optimize._POOL[0]
    os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken
    got = run_batch_chunked(*args, threads=2)
    assert optimize._POOL[0] is not pool
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(want, field.name), getattr(got, field.name))


def test_forked_child_starts_its_own_pool(monkeypatch):
    args = _pooled_call_args(monkeypatch)
    want = run_batch_chunked(*args, threads=2)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The parent's executor has no manager thread here: a call sent to
        # it would never return.
        try:
            os.close(read)
            got = run_batch_chunked(*args, threads=2)
            same = all(np.array_equal(getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(got))
            optimize._shutdown_pool()
            os.write(write, b"1" if same else b"0")
        finally:
            os._exit(0)
    os.close(write)
    ready = []
    try:
        ready = select.select([read], [], [], 60)[0]
        reply = os.read(read, 1) if ready else b""
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read)
    assert ready and reply == b"1"


def test_process_with_a_pool_leaves_no_child_behind():
    # Every process forked from the child holds the pipe's write end, so the
    # read end sees EOF only once the child and all its workers have exited.
    read, write = os.pipe()
    code = (
        "import bmland, helpers\n"
        "inst = helpers.star_rank2_instance()\n"
        "report = bmland.multistart_census(inst, helpers.L2, 300, seed=1, cfg=bmland.GdConfig(max_iters=600), threads=2)\n"
        "assert report.n_starts == 300\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(bmland.__file__).parents[1]), str(Path(__file__).parent)]))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, pass_fds=(write,), timeout=120)
    finally:
        os.close(write)
    try:
        ready = select.select([read], [], [], 30)[0]
        assert ready and os.read(read, 1) == b""
    finally:
        os.close(read)
    assert proc.returncode == 0


def test_newton_refine_polishes_gd_endpoint():
    inst = helpers.path_instance(4, gamma=0.05, seed=3)
    x0 = bmland.sample_radial_init("gaussian", 4, 1, seed=1)
    refined = bmland.newton_refine(inst, L2, _descend_one(inst, x0).points[0])
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
    res = run_batch_chunked(inst, L2, X0, cfg)
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


def _reference_refine(inst, loss, x):
    """``newton_refine`` of one point of a stack as a plain loop: the coarse
    check, the saddle-free Newton step, the accept rule and the damping
    schedule."""
    scale = 1.0 + inst.omega_scale()
    x = x[None]
    f, g = bmland.value_and_gradient(inst, loss, x)
    gn, mu, tol = np.sqrt(optimize._sq_norms(g)), optimize.REFINE_DAMPING, 1e-12 * scale
    if not gn[0] <= 1e-3 * scale:
        return x[0]
    for _ in range(optimize.REFINE_STEPS):
        if not gn[0] > tol:
            break
        lam, V = np.linalg.eigh(bmland.dense_hessian(inst, loss, x))
        lam = np.abs(lam)
        lam += mu * lam.max(axis=-1, keepdims=True)
        coef = (g.reshape(1, 1, -1) @ V)[:, 0]
        coef = np.divide(coef, lam, out=np.zeros_like(coef), where=lam > 0)
        xr = x - (V @ coef[..., None])[..., 0].reshape(x.shape)
        fr, gr = bmland.value_and_gradient(inst, loss, xr)
        grn = np.sqrt(optimize._sq_norms(gr))
        ok = fr[0] <= f[0] + optimize.REFINE_ROUNDOFF * f[0] and (fr[0] < f[0] or grn[0] < gn[0])
        if ok:
            x, f, g, gn = xr, fr, gr, grn
        mu *= 0.1 if ok else 10.0
    return x[0]


@pytest.mark.parametrize("inst", [helpers.path_instance(8, 0.05, 2), helpers.star_rank2_instance()])
def test_newton_refine_matches_reference_loop(inst):
    # The row-list kernel at rank 1 and the dense kernel at rank 2, with and
    # without the regularizer. The points take different numbers of steps,
    # so the stack shrinks as they finish.
    X = _coarse_endpoints(inst, 12, 4, 2000)
    for loss in (L2, bmland.LossSpec.l2_regularized(0.5, 1.0)):
        refined = bmland.newton_refine(inst, loss, X)
        assert not np.array_equal(refined, X)
        assert np.array_equal(refined, np.stack([_reference_refine(inst, loss, x) for x in X]))


def _counting(rows, fn):
    """``fn(inst, loss, x)`` that appends the points it is given to ``rows``."""
    def wrapped(inst, loss, x):
        rows.extend(np.array(x, ndmin=3))
        return fn(inst, loss, x)
    return wrapped


def test_newton_refine_decomposes_a_point_only_once_it_has_moved(monkeypatch):
    inst = helpers.star_rank2_instance()
    X = _coarse_endpoints(inst, 12, 4, 2000)
    # The reference takes a Hessian at every step. A rejected step leaves its
    # point as it is, so the step after it needs none: only the first step
    # and the steps after an accepted one do.
    steps = decompositions = 0
    for x in X:
        seen = []
        monkeypatch.setattr(bmland, "dense_hessian", _counting(seen, optimize.dense_hessian))
        _reference_refine(inst, L2, x)
        monkeypatch.undo()
        steps += len(seen)
        decompositions += sum(
            i == 0 or not np.array_equal(a, seen[i - 1]) for i, a in enumerate(seen)
        )
    rows = []
    monkeypatch.setattr(optimize, "dense_hessian", _counting(rows, optimize.dense_hessian))
    refined = bmland.newton_refine(inst, L2, X)
    assert np.array_equal(refined, np.stack([_reference_refine(inst, L2, x) for x in X]))
    assert len(rows) == decompositions < steps


def test_newton_refine_memory_bounded_by_chunk_budget(monkeypatch):
    inst = helpers.star_rank2_instance()
    X = _coarse_endpoints(inst, 40, 3, 3000)
    assert len(X) >= 30
    refined = bmland.newton_refine(inst, L2, X)
    N = inst.n * inst.r
    budget = 3 * 8 * N**2  # three Hessians: the steps run on blocks of three points
    monkeypatch.setattr(optimize, "CHUNK_BUDGET_BYTES", budget)
    bmland.newton_refine(inst, L2, X)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        assert np.array_equal(bmland.newton_refine(inst, L2, X), refined)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The Hessians' temporaries take about six times the Hessians, and the
    # kernel's about eight times the stack it is given. Holding every
    # point's eigenvectors at once would take about 600 kB here.
    assert peak < 10 * budget + 10 * X.nbytes


def test_polished_stacked_instances_match_each_start_alone(monkeypatch):
    # Two instances over one Omega, 7 and 5 starts, in chunks of 4 rows: the
    # second chunk holds starts of both, and each chunk polishes one stack
    # per instance.
    graph = bmland.build_named_pattern("example1_path", n=8)
    omega = bmland.induce_measurement_set(graph, 8, 1)
    insts = [bmland.assemble_instance(bmland.random_block_factor(8, 1, seed=s), omega, graph) for s in (1, 2)]
    blocks = [bmland.sample_radial_init("gaussian", 8, 1, seed=s, size=k) for s, k in ((5, 7), (6, 5))]
    cfg = GdConfig(max_iters=1000)
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 4)
    assert list(optimize._chunk_bounds(12, 8, 3, 2)) == [0, 4, 8, 12]
    alone = [
        run_batch_chunked(inst, L2, block[k : k + 1], cfg, polish=True)
        for inst, block in zip(insts, blocks)
        for k in range(len(block))
    ]
    for threads in (1, 2):
        res = run_batch_chunked(insts, L2, blocks, cfg, threads=threads, polish=True)
        for k, one in enumerate(alone):
            for f in dataclasses.fields(one):
                assert np.array_equal(getattr(res, f.name)[k], getattr(one, f.name)[0]), (threads, k, f.name)
    # The chunk that spans the boundary polishes starts of both instances.
    assert res.polished[4:7].any() and res.polished[7]


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


def test_converged_points_of_a_scaled_instance_are_critical():
    # ||M*_Omega|| is about 43 here, so the descent's grad_tol is 1e-9 (1 + 43):
    # an absolute 1e-8 criticality bound would read its endpoints NotCritical.
    base = helpers.path_instance(6)
    inst = bmland.assemble_instance(5.0 * base.x_star, base.omega, base.graph, base.s_vertices)
    X0 = np.sqrt(5.0) * bmland.sample_radial_init("gaussian", 6, 1, seed=3, size=200)
    res = run_batch_chunked(inst, L2, X0, GdConfig())
    converged = res.points[res.converged]
    assert len(converged) > 100
    verdicts = bmland.classify_critical_point(inst, L2, converged)
    assert Classification.NOT_CRITICAL not in {v.kind for v in verdicts}


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


def _star_starts(size, seed):
    inst = helpers.star_rank2_instance()
    return inst, bmland.sample_radial_init("gaussian", inst.n, inst.r, seed, size=size)


def test_polished_descent_converged_starts_meet_grad_tol():
    inst, X0 = _star_starts(120, 3)
    cfg = GdConfig(max_iters=3000)
    res = run_batch_chunked(inst, L2, X0, cfg, polish=True)
    conv = res.converged
    assert res.polished.any() and not (res.polished & ~conv).any()
    assert np.all(res.grad_norms[conv] <= cfg.resolved(inst).grad_tol)
    # Each reported gradient norm is the kernel's at the returned point.
    f, G = bmland.value_and_gradient(inst, L2, res.points[conv])
    assert np.array_equal(res.grad_norms[conv], np.sqrt(np.einsum("bij,bij->b", G, G)))
    assert np.array_equal(res.values[conv], f)
    # A start that converges within the first round keeps its bits.
    plain = run_batch_chunked(inst, L2, X0, GdConfig(max_iters=optimize.HANDOFF_STEPS))
    early = plain.converged
    assert early.any() and np.array_equal(res.points[early], plain.points[early])
    assert np.array_equal(res.iters[early], plain.iters[early])


def test_polished_row_list_descent_matches_each_start_alone(monkeypatch):
    # The sweep's Erdos-Renyi instance (n = 20 on row lists of width 8): some
    # starts converge in the first round, through its polish, in later rounds
    # that reuse the call's step buffers, or not at all.
    S = list(range(1, 20, 2))
    g = bmland.build_erdos_renyi(20, 0.3, S, seed=101)
    omega = bmland.induce_measurement_set(g, 20, 1)
    assert not omega.dense
    x0 = bmland.build_canonical_ground_truth(g, S, 20, 1)
    inst = bmland.assemble_instance(bmland.perturb(x0, 0.225, 7), omega, g, S)
    X0 = bmland.sample_radial_init("gaussian", 20, 1, seed=3, size=24)
    cfg = GdConfig(max_iters=2000)
    alone = [run_batch_chunked(inst, L2, X0[b], cfg, polish=True) for b in range(len(X0))]
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 5)
    for threads in (1, 2):
        res = run_batch_chunked(inst, L2, X0, cfg, threads=threads, polish=True)
        for b, one in enumerate(alone):
            for field in dataclasses.fields(one):
                assert np.array_equal(getattr(res, field.name)[b], getattr(one, field.name)[0]), field.name
    late = res.converged & ~res.polished & (res.iters > optimize.HANDOFF_STEPS)
    assert res.polished.any() and late.any() and not res.converged.all()


def test_polished_descent_resumes_starts_the_polish_leaves():
    # No polish reaches a grad_tol below its own 1e-12 (1 + ||M*_Omega||), so
    # every start still running after a round resumes descent.
    inst, X0 = _star_starts(40, 4)
    res = run_batch_chunked(inst, L2, X0, GdConfig(max_iters=1000, grad_tol=1e-20), polish=True)
    assert not res.polished.any()
    capped = np.array([s is Status.MAX_ITERS for s in res.status])
    assert capped.any() and np.all(res.iters[capped] == 1000)
    assert np.all(res.iters > optimize.HANDOFF_STEPS)
    # Starts the polish leaves in the first round converge in a later one.
    res = run_batch_chunked(inst, L2, X0, GdConfig(max_iters=3000), polish=True)
    assert np.any(res.converged & (res.iters > optimize.HANDOFF_STEPS))


def test_polished_descent_keeps_polish_progress_within_bound(monkeypatch):
    # These three starts of the draw run out of the first round's steps, and
    # their polish lowers f without reaching grad_tol.
    inst, X0 = _star_starts(500, 5)
    X0 = X0[[102, 178, 343]]
    cfg = GdConfig(max_iters=optimize.HANDOFF_STEPS)
    plain = run_batch_chunked(inst, L2, X0, cfg)
    assert all(s is Status.MAX_ITERS for s in plain.status)
    P, values, gn = optimize._polish(inst, L2, plain.points)
    assert np.all(values < plain.values) and np.all(gn > cfg.resolved(inst).grad_tol)
    res = run_batch_chunked(inst, L2, X0, cfg, polish=True)
    assert all(s is Status.MAX_ITERS for s in res.status) and not res.polished.any()
    for got, want in ((res.points, P), (res.values, values), (res.grad_norms, gn)):
        assert np.array_equal(got, want)
    # A polished point past the divergence bound (the same points, scaled
    # there) is not adopted: each start holds its descent endpoint.
    bound, polish = cfg.resolved(inst).divergence_bound, optimize._polish

    def far(inst, loss, X):
        P, values, gn = polish(inst, loss, X)
        return P * (2.0 * bound / np.sqrt(optimize._sq_norms(P)))[:, None, None], values, gn

    monkeypatch.setattr(optimize, "_polish", far)
    res = run_batch_chunked(inst, L2, X0, cfg, polish=True)
    for name in ("points", "values", "grad_norms", "status"):
        assert np.array_equal(getattr(res, name), getattr(plain, name)), name


def test_polished_mixed_stack_matches_each_start_alone():
    # 40 starts of two instances retire over several rounds, and the
    # kernel's per-start targets are gathered again at each compaction.
    graph = bmland.build_named_pattern("example1_path", n=8)
    omega = bmland.induce_measurement_set(graph, 8, 1)
    insts = [bmland.assemble_instance(bmland.random_block_factor(8, 1, seed=s), omega, graph) for s in (1, 2)]
    assert not omega.dense
    X0 = bmland.sample_radial_init("gaussian", 8, 1, seed=5, size=40)
    group = np.arange(40) % 2
    cfg = GdConfig(max_iters=1000)
    res = optimize._descend(insts, X0, group, L2, cfg, polish=True)
    for k in range(40):
        one = optimize._descend([insts[group[k]]], X0[k : k + 1], np.zeros(1, dtype=int), L2, cfg, polish=True)
        for f in dataclasses.fields(one):
            assert np.array_equal(getattr(res, f.name)[k], getattr(one, f.name)[0]), (k, f.name)
    assert (res.iters < optimize.HANDOFF_STEPS).any() and (res.iters > optimize.HANDOFF_STEPS).any()
    assert all(res.polished[group == g].any() for g in (0, 1))
