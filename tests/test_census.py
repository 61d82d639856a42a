import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmland
from bmland import Classification, GdConfig, census, optimize
from bmland.census import CensusReport
from bmland.errors import DimensionMismatch, EmptyS, MissingS, UnmatchedEndpoint
from bmland.landscape import canonicalize
from bmland.serialize import census_report_to_json

import helpers
from helpers import L2


def test_unperturbed_census_two_global_classes():
    inst = helpers.path_instance(4)
    report = bmland.multistart_census(inst, L2, 5000, seed=1, threads=2)
    assert len(report.classes) == 2
    assert all(c.classification == Classification.GLOBAL_MIN for c in report.classes)
    assert report.point_count(Classification.GLOBAL_MIN, 1) == 4
    assert report.n_converged + report.n_nonconverged == 5000
    assert sum(c.hit_count for c in report.classes) == report.n_converged
    # deduplication invariant: class representatives are well separated
    for i, a in enumerate(report.classes):
        for b in report.classes[i + 1:]:
            assert np.linalg.norm(a.canonical_rep - b.canonical_rep) > report.dedup_radius
    # sorted by objective
    objs = [c.objective for c in report.classes]
    assert objs == sorted(objs)


def test_census_determinism():
    inst = helpers.path_instance(4, gamma=0.05, seed=4)
    a = bmland.multistart_census(inst, L2, 800, seed=9, threads=1)
    b = bmland.multistart_census(inst, L2, 800, seed=9, threads=3)
    assert census_report_to_json(a) == census_report_to_json(b)


def test_census_rejects_zero_starts():
    inst = helpers.path_instance(4)
    with pytest.raises(DimensionMismatch):
        bmland.multistart_census(inst, L2, 0, seed=1)


@pytest.mark.parametrize("radius", [0.0, -1e-4, float("nan"), float("inf")])
def test_census_rejects_nonpositive_dedup_radius(radius):
    inst = helpers.path_instance(4)
    with pytest.raises(DimensionMismatch, match="dedup_radius"):
        bmland.multistart_census(inst, L2, 10, seed=1, dedup_radius=radius)


def test_census_with_no_converged_start_is_empty():
    inst = helpers.path_instance(4, gamma=0.05, seed=4)
    report = bmland.multistart_census(inst, L2, 50, seed=1, cfg=GdConfig(max_iters=1))
    assert report.classes == []
    assert report.n_converged == 0 and report.n_nonconverged == 50
    assert '"classes": []' in census_report_to_json(report)


def _empty_report():
    return CensusReport(classes=[], n_starts=0, dedup_radius=1e-4,
                        n_converged=0, n_nonconverged=0)


def test_check_lower_bound_formulas():
    rep = _empty_report()
    assert bmland.check_lower_bound(rep, None, 1, s_vertices=[1, 2, 3])["bound"] == 6
    assert bmland.check_lower_bound(rep, None, 2, s_vertices=[1, 2, 3])["bound"] == 15
    g = bmland.build_named_pattern("example1_path", n=6)
    from_graph = bmland.check_lower_bound(rep, g, 1)  # |S| from the graph MIS
    assert from_graph["bound"] == 6
    with pytest.raises(MissingS):
        bmland.check_lower_bound(rep, None, 1)


@pytest.mark.parametrize("r", [1, 2])
def test_check_lower_bound_rejects_empty_s(r):
    # 2^{r(|S|-1)} - 1 at |S| = 0 is negative: no bound, not a met one.
    g = bmland.build_named_pattern("example1_path", n=6)
    with pytest.raises(EmptyS):
        bmland.check_lower_bound(_empty_report(), g, r, s_vertices=[])


def test_make_gamma_grid_midpoints():
    grid = bmland.make_gamma_grid(10)
    assert len(grid) == 10
    assert grid[0] == pytest.approx(0.025) and grid[-1] == pytest.approx(0.475)
    assert all(0.0 < g < 0.5 for g in grid)
    big = bmland.make_gamma_grid(100)
    assert len(big) == 100 and all(0.0 < g < 0.5 for g in big)
    assert bmland.make_gamma_grid(2, 1.0, 2.0) == pytest.approx((1.25, 1.75))
    with pytest.raises(DimensionMismatch):
        bmland.make_gamma_grid(0)


def test_wilson_interval_bounds():
    lo, hi = bmland.wilson_interval(0, 100)
    assert lo <= 1e-12 and 0 < hi < 0.1
    lo, hi = bmland.wilson_interval(100, 100)
    assert 0.9 < lo < 1.0 and hi == 1.0
    lo, hi = bmland.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(DimensionMismatch):
        bmland.wilson_interval(5, 4)


def test_success_rate_experiment_unperturbed_rate():
    g = bmland.build_named_pattern("example1_path", n=4)
    spec = bmland.SuccessRateSpec(
        graph=g, s_vertices=frozenset({1, 3}), n=4, r=1,
        gamma_grid=(0.0,), trials=400, seed=0,
    )
    table = bmland.success_rate_experiment(spec, threads=2)
    (row,) = table.rows
    # |S|=2: the target Gram matrix is hit with probability 1/2.
    assert abs(row.rate - 0.5) <= 3 * np.sqrt(0.25 / 400)
    assert row.wilson_ci_low <= row.rate <= row.wilson_ci_high
    assert row.rate == pytest.approx(row.successes / row.trials)


def _sweep_spec(trials):
    s = [1, 4, 7]
    g = bmland.build_erdos_renyi(8, 0.3, s, seed=5)
    return bmland.SuccessRateSpec(
        graph=g, s_vertices=frozenset(s), n=8, r=1,
        gamma_grid=bmland.make_gamma_grid(3), trials=trials, seed=2,
    )


def test_success_rate_experiment_invariant_to_threads_and_chunks(monkeypatch):
    spec, cfg = _sweep_spec(40), GdConfig(max_iters=3000)
    one_chunk = bmland.success_rate_experiment(spec, cfg, threads=1).rows
    # 16-row chunks: most span two gammas, and the pool runs them.
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 16)
    for threads in (1, 4):
        assert bmland.success_rate_experiment(spec, cfg, threads=threads).rows == one_chunk
    assert 0 < sum(row.successes for row in one_chunk) < 3 * 40


def test_products_route_descents_through_census_runner(monkeypatch):
    # The benchmark's converged share comes from bench/tracing.py's
    # StatusProbe, which wraps this one name: each product must make one call
    # with all its starts, and a rename must fail here, not only in the bench.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracing)
    probe = tracing.StatusProbe()
    calls = []
    runner = census.run_batch_chunked

    def counting(*args, **kwargs):
        res = runner(*args, **kwargs)
        calls.append(len(res.status))
        return res

    monkeypatch.setattr(census, "run_batch_chunked", counting)
    sweep = _sweep_spec(7)
    runs = (
        (lambda: bmland.success_rate_experiment(sweep, GdConfig(max_iters=50), threads=2),
         len(sweep.gamma_grid) * sweep.trials),
        (lambda: bmland.multistart_census(helpers.path_instance(4), L2, 25, seed=1), 25),
        (lambda: bmland.estimate_complexity_metric(
            helpers.path_instance(4), bmland.MetricBudget(restarts=6, iters=20)), 6),
    )
    for run, starts in runs:
        calls.clear()
        with probe.installed():
            run()
        assert calls == [starts] and probe.starts == starts


def test_success_rate_spec_validation():
    g = bmland.build_named_pattern("example1_path", n=4)
    with pytest.raises(DimensionMismatch):
        bmland.SuccessRateSpec(graph=g, s_vertices=frozenset({1}), n=4, r=1,
                               gamma_grid=(), trials=10)
    with pytest.raises(DimensionMismatch):
        bmland.SuccessRateSpec(graph=g, s_vertices=frozenset({1}), n=4, r=1,
                               gamma_grid=(0.1,), trials=0)


def test_known_global_minima_enumeration():
    inst = helpers.path_instance(4)
    minima = bmland.known_global_minima(inst)
    assert len(minima) == 4
    for x in minima.values():
        assert bmland.objective(inst, L2, x) == 0.0
    with pytest.raises(DimensionMismatch):
        bmland.known_global_minima(helpers.star_rank2_instance(gamma=0.0))


def test_equal_probability_report_and_determinism():
    inst = helpers.path_instance(3)
    a = bmland.equal_probability_test(inst, 2000, seed=5, threads=2)
    b = bmland.equal_probability_test(inst, 2000, seed=5, threads=1)
    assert a.histogram == b.histogram and a.chi_square_p == b.chi_square_p
    assert len(a.histogram) == 4 and sum(a.histogram.values()) == 2000
    assert min(a.histogram.values()) > 0
    from scipy import stats

    counts = [a.histogram[k] for k in sorted(a.histogram)]
    assert a.chi_square_p == stats.chisquare(counts)[1]


def test_import_loads_no_scipy():
    # scipy is imported by the basin chi-square test only, on first use.
    src = str(Path(bmland.__file__).resolve().parents[1])
    code = "import sys, bmland; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def test_equal_probability_rejects_no_trials():
    for trials in (0, -1):
        with pytest.raises(DimensionMismatch, match="trials"):
            bmland.equal_probability_test(helpers.path_instance(3), trials, seed=5)


def test_equal_probability_unmatched_endpoint():
    inst = helpers.path_instance(3)
    with pytest.raises(UnmatchedEndpoint):
        bmland.equal_probability_test(inst, 50, seed=5, match_tol=1e-13)


def test_polished_census_invariant_to_threads_and_chunks(monkeypatch):
    inst = helpers.star_rank2_instance()
    cfg = GdConfig(max_iters=3000)
    one = bmland.multistart_census(inst, L2, 200, seed=5, cfg=cfg, threads=1)
    assert one.n_polished > 0 and one.n_converged > one.n_polished
    assert sum(c.hit_count for c in one.classes) == one.n_converged
    expected = census_report_to_json(one)
    assert f'"n_polished": {one.n_polished}' in expected
    for threads in (2, 4):
        assert census_report_to_json(bmland.multistart_census(
            inst, L2, 200, seed=5, cfg=cfg, threads=threads)) == expected
    monkeypatch.setattr(optimize, "CHUNK_ROWS", 16)
    for threads in (1, 2):
        assert census_report_to_json(bmland.multistart_census(
            inst, L2, 200, seed=5, cfg=cfg, threads=threads)) == expected


def test_polished_start_lands_in_class_of_its_full_cap_endpoint():
    inst = helpers.star_rank2_instance()
    cfg = GdConfig(max_iters=15000)
    n_starts, seed = 60, 8
    report = bmland.multistart_census(inst, L2, n_starts, seed=seed, cfg=cfg)
    reps = np.stack([c.canonical_rep for c in report.classes])

    def classes(points):
        refined = canonicalize(optimize.newton_refine(inst, L2, canonicalize(points)))
        dists = np.linalg.norm(refined[:, None] - reps[None], axis=(-2, -1))
        return np.where(dists.min(axis=1) <= report.dedup_radius, dists.argmin(axis=1), -1)

    X0 = bmland.sample_radial_init("gaussian", inst.n, inst.r, seed, size=n_starts)
    handoff = optimize.run_batch_chunked(inst, L2, X0, cfg, polish=True)
    full = optimize.run_batch_chunked(inst, L2, X0, cfg)
    assert report.n_polished == np.count_nonzero(handoff.polished) > 0
    assert np.all(handoff.converged[full.converged])
    assert np.array_equal(classes(handoff.points), classes(full.points))


def test_star_ladder_rung_four_meets_its_exponential_bound():
    # The paper's count grows as 2^{r(|S| - 1)} - 1: rung |S| = 4 of the
    # star ladder has 63 spurious classes against acceptance 04's 15 at
    # |S| = 3. Its least-hit spurious class takes about 1% of these starts.
    inst = helpers.star_ladder(4, 0.05, 13)
    report = bmland.multistart_census(
        inst, L2, 5000, seed=99, cfg=GdConfig(max_iters=15000), threads=2
    )
    bound = bmland.check_lower_bound(report, inst.graph, inst.r, s_vertices=inst.s_vertices)
    assert bound == {"bound": 63, "found": 63, "satisfied": True}
    assert report.global_classes == 1
