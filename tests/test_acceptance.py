"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Fixture sizes are desk-scale instantiations of the exponential counting
claims; runtime budgets are asserted alongside the numerical tolerances.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import bmland
from bmland import Classification, GdConfig, LossSpec, Status
from bmland.cli import main as cli_main

import helpers
from helpers import L2


@contextmanager
def criterion(num, desc, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget_s is not None:
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"
    except BaseException:
        print(f"\nACCEPTANCE {num:02d}: FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num:02d}: PASS - {desc} ({elapsed:.1f}s)")


def test_criterion_01_derivative_correctness():
    with criterion(1, "analytic gradient/Hessian match finite differences", 30):
        rng = np.random.default_rng(2024)
        worst_g, worst_h = 0.0, 0.0
        for k in range(100):
            inst = helpers.random_instance(rng, n_max=30)
            loss = LossSpec.l2_regularized(0.5, 0.7) if k % 4 == 3 else L2
            if k % 2:
                X = inst.x_star + 0.1 * rng.standard_normal(inst.x_star.shape)
            else:
                X = rng.standard_normal(inst.x_star.shape)
            d = rng.standard_normal(X.shape)
            d /= np.linalg.norm(d)

            h = 1e-6 * (1.0 + np.linalg.norm(X))
            fd = (
                bmland.objective(inst, loss, X + h * d)
                - bmland.objective(inst, loss, X - h * d)
            ) / (2 * h)
            an = float(np.sum(bmland.gradient(inst, loss, X) * d))
            worst_g = max(worst_g, abs(fd - an) / max(abs(an), 1e-6))

            h2 = 1e-4 * (1.0 + np.linalg.norm(X))
            sd = (
                bmland.objective(inst, loss, X + h2 * d)
                - 2 * bmland.objective(inst, loss, X)
                + bmland.objective(inst, loss, X - h2 * d)
            ) / (h2 * h2)
            quad = bmland.hessian_quadratic(inst, loss, X, d)
            worst_h = max(worst_h, abs(sd - quad) / max(abs(quad), 1e-4))
        assert worst_g <= 1e-6, f"gradient FD mismatch {worst_g:.3e}"
        assert worst_h <= 1e-5, f"Hessian FD mismatch {worst_h:.3e}"


def test_criterion_02_exact_solver():
    with criterion(2, "block propagation recovers 50 random in-class instances", 30):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(4, min(18, 60 // r) + 1))
            extra = int(rng.integers(0, r)) if m * r + r <= 60 else 0
            n = m * r + extra
            s_size = int(rng.integers(1, m // 2 + 1))
            s = sorted(rng.choice(np.arange(1, m + 1), s_size, replace=False).tolist())
            g = bmland.build_erdos_renyi(m, 0.3, s, seed=int(rng.integers(1 << 31)))
            omega = bmland.induce_measurement_set(g, n, r)
            x = bmland.random_block_factor(m, r, seed=int(rng.integers(1 << 31)), n=n)
            inst = bmland.assemble_instance(x, omega, g, s)
            assert bmland.check_class_membership(inst).in_class
            x_hat = bmland.solve_by_propagation(inst).recovered_factor
            M = inst.m_star()
            err = np.linalg.norm(x_hat @ x_hat.T - M)
            assert err <= 1e-8 * np.linalg.norm(M), f"rel err {err:.3e}"


def test_criterion_03_rank1_census_lower_bound():
    with criterion(3, "rank-1 census finds all spurious minima and saturates", 120):
        inst = helpers.path_instance(6, gamma=0.05, seed=11)
        report = bmland.multistart_census(inst, L2, 20000, seed=42, threads=4)

        spurious = report.by_classification(Classification.SPURIOUS_LOCAL_MIN)
        assert report.point_count(Classification.SPURIOUS_LOCAL_MIN, 1) >= 6
        for rec in spurious:
            assert rec.grad_norm <= 1e-10
            assert rec.lambda_min > 0
        assert report.point_count(Classification.GLOBAL_MIN, 1) == 2
        assert report.global_classes == 1
        check = bmland.check_lower_bound(report, inst.graph, 1, s_vertices=inst.s_vertices)
        assert check["satisfied"], check

        half = bmland.multistart_census(inst, L2, 10000, seed=42, threads=4)
        assert len(half.classes) == len(report.classes)
        for rec in half.classes:
            dists = [
                np.linalg.norm(rec.canonical_rep - other.canonical_rep)
                for other in report.classes
            ]
            assert min(dists) <= 1e-6, "saturation check: unmatched class"


def test_criterion_04_rank2_census_lower_bound():
    with criterion(4, "rank-2 census finds all 15 spurious classes", 600):
        inst = helpers.star_rank2_instance(gamma=0.05, seed=13)
        report = bmland.multistart_census(
            inst, L2, 50000, seed=99, cfg=GdConfig(max_iters=15000), threads=4
        )
        assert report.spurious_classes >= 15, report.spurious_classes
        check = bmland.check_lower_bound(report, inst.graph, 2, s_vertices=[1, 2, 3])
        assert check == {"bound": 15, "found": report.spurious_classes, "satisfied": True}


def test_criterion_05_observation_set_contrast():
    with criterion(5, "benign sparse pattern vs spurious augmented pattern", 120):
        # Sparse cross pattern: every converged class is a global minimum.
        g = bmland.build_named_pattern("cross", m=4, k=4)
        omega = bmland.induce_measurement_set(g, 8, 2)
        x = bmland.random_block_factor(4, 2, seed=21)
        inst = bmland.assemble_instance(x, omega, g)
        scale = inst.omega_scale()
        cfg = GdConfig(max_iters=20000, grad_tol=1e-4 * (1.0 + scale))
        report = bmland.multistart_census(inst, L2, 500, seed=5, cfg=cfg, threads=4)
        assert report.classes, "no converged class found"
        for rec in report.classes:
            assert rec.classification == Classification.GLOBAL_MIN
            assert rec.objective <= 1e-8 * scale**2

        # Augmenting the pattern with off-diagonal entries brings spurious
        # minima back on the perturbed canonical instance.
        g2 = bmland.build_named_pattern("augmented_cross", m=4, k=4)
        omega2 = bmland.induce_measurement_set(g2, 8, 2)
        x0 = bmland.build_canonical_ground_truth(g2, [1, 2, 3], 8, 2)
        inst2 = bmland.assemble_instance(
            bmland.perturb(x0, 0.05, 23), omega2, g2, [1, 2, 3]
        )
        report2 = bmland.multistart_census(
            inst2, L2, 5000, seed=7, cfg=GdConfig(max_iters=15000), threads=4
        )
        assert report2.spurious_classes >= 1


def test_criterion_06_uniform_basin_measure():
    with criterion(6, "endpoints uniform over the 8 global minima; 0 is a strict saddle", 120):
        inst = helpers.path_instance(6)
        rep = bmland.equal_probability_test(inst, 16000, seed=77, threads=4)
        assert len(rep.histogram) == 8
        assert rep.chi_square_p > 0.01, rep
        assert sum(rep.histogram.values()) == 16000
        zero = np.zeros((6, 1))
        assert bmland.classify_critical_point(inst, L2, zero).kind == Classification.STRICT_SADDLE


def test_criterion_07_sign_equivariance():
    with criterion(7, "gradient and descent endpoints are sign-equivariant"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            inst = helpers.path_instance(n)
            x0 = rng.standard_normal((n, 1))
            D = np.where(rng.random(n) < 0.5, -1.0, 1.0)[:, None]
            g_d = bmland.gradient(inst, L2, D * x0)
            g = bmland.gradient(inst, L2, x0)
            assert np.max(np.abs(g_d - D * g)) <= 1e-12
            end = bmland.run_batch_chunked(inst, L2, x0, GdConfig()).points[0]
            end_d = bmland.run_batch_chunked(inst, L2, D * x0, GdConfig()).points[0]
            assert np.linalg.norm(end_d - D * end) <= 1e-6


def test_criterion_08_success_rate_sweep():
    with criterion(8, "success rates collapse with |S| and recover at larger gamma", 1200):
        grid = bmland.make_gamma_grid(10)
        rates = {}
        for s in ([1, 4, 7, 10, 13], list(range(1, 20, 2)), list(range(1, 16))):
            g = bmland.build_erdos_renyi(20, 0.3, s, seed=101)
            spec = bmland.SuccessRateSpec(
                graph=g, s_vertices=frozenset(s), n=20, r=1,
                gamma_grid=grid, trials=300, seed=0, p=0.3,
            )
            table = bmland.success_rate_experiment(
                spec, GdConfig(max_iters=20000), threads=4
            )
            rates[len(s)] = [row.rate for row in table.rows]
            for row in table.rows:
                if row.gamma <= 0.05:
                    slack = 3.0 * np.sqrt(row.rate * (1 - row.rate) / row.trials)
                    assert row.rate <= 2.0 ** (1 - len(s)) + slack, row
        # |S|=5: grid points nearest 0.4 and 0.02 are 0.425 and 0.025.
        assert rates[5][8] > rates[5][0], rates[5]


def test_criterion_09_ambiguity_distance_estimates():
    with criterion(9, "ambiguity-distance estimator sanity bounds", 120):
        budget = bmland.MetricBudget(restarts=20, iters=1500)

        omega_full = bmland.full_measurement_set(4)
        x_full = np.random.default_rng(2).standard_normal((4, 1))
        full = bmland.assemble_instance(x_full, omega_full)
        est = bmland.estimate_complexity_metric(full, budget, seed=1)
        assert not est.found

        inst0 = helpers.path_instance(4)
        est0 = bmland.estimate_complexity_metric(inst0, budget, seed=1)
        assert est0.found and est0.value <= 1e-6
        x1, x2 = est0.witness_pair
        w = inst0.omega.mask()
        mismatch = np.linalg.norm((x1 @ x1.T - x2 @ x2.T) * w)
        assert mismatch <= 1e-6 * (1.0 + inst0.omega_scale())
        assert np.linalg.norm(x1 @ x1.T - x2 @ x2.T) >= 1e-3 * np.linalg.norm(inst0.m_star())

        instp = helpers.path_instance(4, gamma=0.1, seed=9)
        x0 = bmland.build_canonical_ground_truth(instp.graph, sorted(instp.s_vertices), 4, 1)
        drift = np.linalg.norm((instp.m_star() - x0 @ x0.T) * instp.omega.mask())
        estp = bmland.estimate_complexity_metric(instp, budget, seed=1)
        assert estp.found and estp.value <= drift + 1e-6


def test_criterion_10_hessian_positivity_certificates():
    with criterion(10, "closed-form minimum eigenvalues at global minima"):
        for n in range(3, 9):
            inst = helpers.path_instance(n)
            for x in bmland.known_global_minima(inst).values():
                lam, direction = bmland.min_hessian_eigen(inst, L2, x, "full")
                if n % 2:
                    assert abs(lam - 8.0) <= 1e-9, (n, lam)
                else:
                    assert abs(lam - 4.0) <= 1e-9, (n, lam)
                    assert abs(direction[n - 1, 0]) >= 0.99, (n, direction.ravel())
        # Rank-r fixture: positive tangent curvature at the canonical truth.
        g = bmland.build_named_pattern("single_missing_rank_r", m=3)
        omega = bmland.induce_measurement_set(g, 6, 2)
        x = bmland.build_canonical_ground_truth(g, [1, 2], 6, 2)
        inst = bmland.assemble_instance(x, omega, g, [1, 2])
        lam, _ = bmland.min_hessian_eigen(inst, L2, x, "lower_triangular_tangent")
        assert lam > 0


def test_criterion_11_thread_count_determinism(tmp_path):
    with criterion(11, "byte-identical outputs across thread counts"):
        census_cfg = tmp_path / "census.json"
        census_cfg.write_text(json.dumps({
            "pattern": "example1_path", "n": 4, "S": [1, 3],
            "gamma": 0.0, "n_starts": 9000, "seed": 3,
        }))
        exp_cfg = tmp_path / "exp.json"
        exp_cfg.write_text(json.dumps({
            "pattern": "example1_path", "n": 4, "S": [1, 3],
            "gamma_grid": [0.1, 0.3], "trials": 300, "seed": 0,
            "max_iters": 20000,
        }))
        outputs = {}
        for name, cfg, artifact in (
            ("census", census_cfg, "census.json"),
            ("experiment", exp_cfg, "experiment.csv"),
        ):
            for threads in (1, 3):
                out = tmp_path / f"{name}-t{threads}"
                rc = cli_main([
                    name, "--config", str(cfg), "--out", str(out),
                    "--threads", str(threads),
                ])
                assert rc == 0
                outputs[(name, threads)] = (out / artifact).read_bytes()
            assert outputs[(name, 1)] == outputs[(name, 3)], f"{name} differs"
