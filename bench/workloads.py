"""The benchmark's workloads.

Each workload builds its inputs from the run seed (``setup``), makes one
product per operation through bmland's public API (``run``), checks that
product (``check``) and summarises it deterministically (``digest``).
Operation ``k`` of a run draws its random starts from ``(seed, k)``, so every
operation sees fresh inputs and the same seed always gives the same inputs.

Sizes are scaled down from the acceptance tests so that one operation takes a
few seconds on a 2-core box and a run holds several operations; README.md
says why each workload exists.
"""

from __future__ import annotations

import math

import numpy as np

import bmland

THREADS = 2
L2 = bmland.LossSpec.l2()
# Warm-up runs the full-size product on a short iteration budget: the first
# full-size operation in a process is up to 1.7x slower (memory growth), and
# that one-off cost is not what an operation measures.
WARM_CFG = bmland.GdConfig(max_iters=50)


def op_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def path_instance(n: int, gamma: float, seed: int):
    """Rank-1 path-with-self-loops instance; S is the odd vertices."""
    g = bmland.build_named_pattern("example1_path", n=n)
    omega = bmland.induce_measurement_set(g, n, 1)
    s = sorted(bmland.analyze_graph(g).max_independent_set)
    x0 = bmland.build_canonical_ground_truth(g, s, n, 1)
    inst = bmland.assemble_instance(bmland.perturb(x0, gamma, seed), omega, g, s)
    inst.omega_scale()  # fills the instance's cached mask and observed entries
    return inst, x0


def star_rank2_instance(gamma: float, seed: int):
    """m=4 star with hub 4, self-loops and an off-diagonal tree on S={1,2,3}."""
    g = bmland.BlockSparsityGraph(
        4,
        frozenset({(1, 4), (2, 4), (3, 4), (1, 1), (2, 2), (3, 3)}),
        frozenset({(1, 2), (2, 3)}),
    )
    s = [1, 2, 3]
    omega = bmland.induce_measurement_set(g, 8, 2)
    x0 = bmland.build_canonical_ground_truth(g, s, 8, 2)
    inst = bmland.assemble_instance(bmland.perturb(x0, gamma, seed), omega, g, s)
    inst.omega_scale()
    return inst


class Census:
    """Multistart census of one instance, gated by the paper's lower bound."""

    def __init__(self, name, build, n_starts, cfg):
        self.name = name
        self.build = build
        self.n_starts = n_starts
        self.cfg = cfg

    def setup(self, seed):
        return {"inst": self.build(), "seed": seed}

    def run(self, inputs, k, cfg=None):
        return bmland.multistart_census(
            inputs["inst"], L2, self.n_starts, seed=op_seed(inputs["seed"], k),
            cfg=cfg or self.cfg, threads=THREADS,
        )

    def warm(self, inputs):
        self.run(inputs, 0, cfg=WARM_CFG)

    def check(self, inputs, report):
        inst = inputs["inst"]
        bound = bmland.check_lower_bound(report, inst.graph, inst.r, s_vertices=inst.s_vertices)
        failures = []
        if not bound["satisfied"]:
            failures.append(f"lower bound not met: {bound}")
        if report.global_classes != 1:
            failures.append(f"{report.global_classes} global classes, expected 1")
        return failures

    def digest(self, report):
        return {
            "classes": len(report.classes),
            "spurious_classes": report.spurious_classes,
            "global_classes": report.global_classes,
            "hit_counts": [rec.hit_count for rec in report.classes],
            "converged": report.n_converged,
        }

    def product_metrics(self, report):
        return {"census.spurious_found": report.spurious_classes}


class Sweep:
    """Success-rate sweep over a 10-point gamma grid on an Erdos-Renyi graph."""

    name = "sweep"
    S = tuple(range(1, 20, 2))  # |S| = 10 on m = 20 blocks
    TRIALS = 30
    # At 2000 iterations most gamma rows run to the cap, so an operation's
    # loop count barely depends on its starts and its time is steady.
    MAX_ITERS = 2000

    def setup(self, seed):
        g = bmland.build_erdos_renyi(20, 0.3, self.S, seed=101)
        return {"graph": g, "grid": bmland.make_gamma_grid(10), "seed": seed}

    def run(self, inputs, k, cfg=None):
        spec = bmland.SuccessRateSpec(
            graph=inputs["graph"], s_vertices=frozenset(self.S), n=20, r=1,
            gamma_grid=inputs["grid"], trials=self.TRIALS,
            seed=op_seed(inputs["seed"], k), p=0.3,
        )
        return bmland.success_rate_experiment(
            spec, cfg or bmland.GdConfig(max_iters=self.MAX_ITERS), threads=THREADS
        )

    def warm(self, inputs):
        self.run(inputs, 0, cfg=WARM_CFG)

    def check(self, inputs, table):
        """Acceptance-08 ceiling: near the canonical point at most a
        2^{1-|S|} share of starts (plus 3 sigma) recovers the truth."""
        failures = []
        for row in table.rows:
            if row.gamma <= 0.05:
                slack = 3.0 * math.sqrt(row.rate * (1 - row.rate) / row.trials)
                if row.rate > 2.0 ** (1 - row.S_size) + slack:
                    failures.append(f"rate {row.rate} above ceiling at gamma={row.gamma}")
        if len(table.rows) != len(inputs["grid"]):
            failures.append(f"{len(table.rows)} rows for {len(inputs['grid'])} gammas")
        return failures

    def digest(self, table):
        return {"successes": [row.successes for row in table.rows]}

    def product_metrics(self, table):
        return {}


class Metric:
    """Ambiguity-distance estimate on the perturbed rank-1 path instance."""

    name = "metric"
    N = 6
    BUDGET = dict(restarts=30, iters=2000)

    def setup(self, seed):
        inst, x0 = path_instance(self.N, 0.05, 11)
        drift = float(np.linalg.norm((inst.m_star() - x0 @ x0.T) * inst.omega.mask()))
        return {"inst": inst, "drift": drift, "seed": seed}

    def run(self, inputs, k, budget=None):
        return bmland.estimate_complexity_metric(
            inputs["inst"], bmland.MetricBudget(**(budget or self.BUDGET)),
            seed=op_seed(inputs["seed"], k), threads=THREADS,
        )

    def warm(self, inputs):
        self.run(inputs, 0, budget=dict(self.BUDGET, iters=5))

    def check(self, inputs, est):
        if not est.found:
            return ["no feasible pair found"]
        inst = inputs["inst"]
        failures = []
        if est.value > inputs["drift"]:
            failures.append(f"estimate {est.value} above drift {inputs['drift']}")
        x1, x2 = est.witness_pair
        mismatch = float(np.linalg.norm((x1 @ x1.T - x2 @ x2.T) * inst.omega.mask()))
        feas_tol = 1e-6 * (1.0 + inst.omega_scale())
        if mismatch > feas_tol:
            failures.append(f"witness mismatch {mismatch} above {feas_tol}")
        return failures

    def digest(self, est):
        return {"value": est.value, "separation": est.separation_achieved}

    def product_metrics(self, est):
        return {"metric.ambiguity_bound": est.value}


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance 04's rank-2 instance: one chunk with a long max_iters tail.
        Census("census-r2", lambda: star_rank2_instance(0.05, 13), 500,
               bmland.GdConfig(max_iters=15000)),
        # Acceptance 03's rank-1 instance: 10 chunks and 40k endpoints to post-process.
        Census("census-r1", lambda: path_instance(6, 0.05, 11)[0], 40000, bmland.GdConfig()),
        Sweep(),
        Metric(),
    )
}
