"""Multistart enumeration of critical points, lower-bound checks, success-rate
experiments, and the uniform-basin statistical test."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import stats

from .errors import DimensionMismatch, MissingS, UnmatchedEndpoint
from .graphs import BlockSparsityGraph, analyze_graph, induce_measurement_set
from .instances import McInstance, assemble_instance, build_canonical_ground_truth, perturb
from .landscape import LossSpec, canonicalize, objective
from .optimize import (
    Classification,
    GdConfig,
    classify_critical_point,
    is_success,
    newton_refine,
    run_batch_chunked,
    sample_radial_init,
)

COARSE_RADIUS = 0.02


@dataclass
class CriticalPointRecord:
    canonical_rep: np.ndarray
    objective: float
    grad_norm: float
    lambda_min: float
    classification: Classification
    hit_count: int


@dataclass
class CensusReport:
    classes: list[CriticalPointRecord]
    n_starts: int
    dedup_radius: float
    n_converged: int
    n_nonconverged: int

    def by_classification(self, kind: Classification) -> list[CriticalPointRecord]:
        return [c for c in self.classes if c.classification == kind]

    @property
    def spurious_classes(self) -> int:
        return len(self.by_classification(Classification.SPURIOUS_LOCAL_MIN))

    @property
    def global_classes(self) -> int:
        return len(self.by_classification(Classification.GLOBAL_MIN))

    def point_count(self, kind: Classification, r: int) -> int:
        """Distinct points represented: for r=1 each canonical class stands
        for the +/- pair (two points unless the representative is zero)."""
        total = 0
        for rec in self.by_classification(kind):
            if r == 1 and np.linalg.norm(rec.canonical_rep) > 0:
                total += 2
            else:
                total += 1
        return total


def _cluster(points: np.ndarray, radius: float) -> list[np.ndarray]:
    """Greedy first-fit clustering of a (K, n, r) stack in input order
    (deterministic): each point joins the earliest representative within
    ``radius``, and a point near none becomes the next representative."""
    free = np.arange(len(points))
    clusters = []
    while free.size:
        near = np.linalg.norm(points[free] - points[free[0]], axis=(-2, -1)) <= radius
        near[0] = True  # even a NaN point, so every pass removes one
        clusters.append(free[near])
        free = free[~near]
    return clusters


def _endpoints(inst, loss, n_starts, seed, cfg=None, dist="gaussian", sigma=1.0, radius=1.0,
               dedup_radius=1e-4, threads=1) -> tuple[np.ndarray, list[int], int]:
    """The census's endpoint stage, without classification: (reps, hits,
    n_converged), the canonical representatives (K, n, r) in (objective,
    bytes) order with each one's hit count. Endpoints are canonicalized and
    grouped coarsely; the first points of the coarse groups are polished as
    one stack (``newton_refine``), and the groups are re-merged at
    ``dedup_radius``. Non-converged starts are excluded from hit counts."""
    if n_starts < 1:
        raise DimensionMismatch("n_starts must be >= 1")
    if not dedup_radius > 0:
        raise DimensionMismatch(f"dedup_radius must be positive, got {dedup_radius!r}")
    cfg = cfg or GdConfig()
    X0 = sample_radial_init(
        dist, inst.n, inst.r, seed, sigma=sigma, radius=radius, size=n_starts
    )
    res = run_batch_chunked(inst, loss, X0, cfg, threads=threads)
    converged = res.converged
    canon = canonicalize(res.points[converged])
    coarse = _cluster(canon, COARSE_RADIUS)
    refined = canonicalize(newton_refine(inst, loss, canon[[group[0] for group in coarse]]))
    groups = _cluster(refined, dedup_radius)
    reps = refined[[group[0] for group in groups]]
    values = objective(inst, loss, reps) if len(reps) else []
    order = sorted(range(len(reps)), key=lambda k: (values[k], reps[k].tobytes()))
    hits = [sum(len(coarse[g]) for g in groups[k]) for k in order]
    return reps[order], hits, int(np.count_nonzero(converged))


def multistart_census(
    inst: McInstance,
    loss: LossSpec,
    n_starts: int,
    seed: int,
    cfg: GdConfig | None = None,
    dist: str = "gaussian",
    sigma: float = 1.0,
    radius: float = 1.0,
    dedup_radius: float = 1e-4,
    threads: int = 1,
) -> CensusReport:
    """Run n_starts seeded descents, then classify the representatives that
    the endpoint stage ``_endpoints`` returns, in its order, as one stack."""
    reps, hits, n_converged = _endpoints(
        inst, loss, n_starts, seed, cfg, dist, sigma, radius, dedup_radius, threads
    )
    verdicts = classify_critical_point(inst, loss, reps)
    return CensusReport(
        classes=[
            CriticalPointRecord(rep, v.objective, v.grad_norm, v.lambda_min, v.kind, hit_count)
            for rep, v, hit_count in zip(reps, verdicts, hits)
        ],
        n_starts=n_starts,
        dedup_radius=dedup_radius,
        n_converged=n_converged,
        n_nonconverged=n_starts - n_converged,
    )


def check_lower_bound(
    report: CensusReport,
    g: BlockSparsityGraph | None,
    r: int,
    s_vertices=None,
) -> dict:
    """Compare the census against the guaranteed minimum number of spurious
    minima for the canonical construction on independent set S.

    With B = 2^{r(|S|-1)} - 1 orbit classes: at r=1 the bound counts the 2B
    points, at r>1 the B orbits.
    """
    if s_vertices is not None:
        s_size = len(frozenset(s_vertices))
    elif g is not None:
        s_size = len(analyze_graph(g).max_independent_set)
    else:
        raise MissingS("need either s_vertices or a graph to size S")
    orbit_bound = 2 ** (r * (s_size - 1)) - 1
    if r == 1:
        bound = 2 * orbit_bound
        found = report.point_count(Classification.SPURIOUS_LOCAL_MIN, r)
    else:
        bound = orbit_bound
        found = report.spurious_classes
    return {"bound": bound, "found": found, "satisfied": found >= bound}


def make_gamma_grid(count: int, lo: float = 0.0, hi: float = 0.5) -> tuple[float, ...]:
    """``count`` midpoints of equal subdivisions of the open interval (lo, hi)."""
    if count < 1 or not hi > lo:
        raise DimensionMismatch("need count >= 1 and hi > lo")
    return tuple(lo + (hi - lo) * (2 * k - 1) / (2 * count) for k in range(1, count + 1))


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DimensionMismatch("need 0 <= successes <= trials, trials >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SuccessRateSpec:
    graph: BlockSparsityGraph
    s_vertices: frozenset
    n: int
    r: int
    gamma_grid: tuple
    trials: int
    dist: str = "gaussian"
    seed: int = 0
    p: float = float("nan")

    def __post_init__(self):
        if self.trials < 1:
            raise DimensionMismatch("trials must be >= 1")
        if not self.gamma_grid:
            raise DimensionMismatch("gamma_grid must be nonempty")


@dataclass(frozen=True)
class SuccessRateRow:
    gamma: float
    n: int
    r: int
    S_size: int
    p: float
    seed: int
    trials: int
    successes: int
    rate: float
    wilson_ci_low: float
    wilson_ci_high: float


@dataclass
class SuccessRateTable:
    rows: list = field(default_factory=list)

    COLUMNS = tuple(f.name for f in fields(SuccessRateRow))


def success_rate_experiment(
    spec: SuccessRateSpec,
    cfg: GdConfig | None = None,
    threads: int = 1,
) -> SuccessRateTable:
    """For each gamma: one seeded perturbation of the canonical ground truth,
    ``trials`` independent descents, exact-recovery rate with Wilson CI.

    The instances share Omega, so every gamma's starts run as one stacked
    descent, each start against its own instance's target and tolerances;
    the flat result is then cut back into one block per gamma. A start's
    result is the one it would get in a descent of its gamma alone."""
    cfg = cfg or GdConfig()
    omega = induce_measurement_set(spec.graph, spec.n, spec.r)
    x0_star = build_canonical_ground_truth(spec.graph, spec.s_vertices, spec.n, spec.r)
    seeds = np.random.SeedSequence(spec.seed).generate_state(2 * len(spec.gamma_grid))
    insts, X0 = [], []
    for k, gamma in enumerate(spec.gamma_grid):
        x_eps = perturb(x0_star, gamma, int(seeds[2 * k]))
        insts.append(assemble_instance(x_eps, omega, spec.graph, spec.s_vertices))
        X0.append(
            sample_radial_init(spec.dist, spec.n, spec.r, int(seeds[2 * k + 1]), size=spec.trials)
        )
    res = run_batch_chunked(insts, LossSpec.l2(), X0, cfg, threads=threads)
    converged = res.converged
    table = SuccessRateTable()
    for k, (gamma, inst) in enumerate(zip(spec.gamma_grid, insts)):
        block = slice(k * spec.trials, (k + 1) * spec.trials)
        ok = is_success(inst, res.points[block]) & converged[block]
        successes = int(np.sum(ok))
        lo, hi = wilson_interval(successes, spec.trials)
        table.rows.append(
            SuccessRateRow(
                gamma=float(gamma),
                n=spec.n,
                r=spec.r,
                S_size=len(spec.s_vertices),
                p=spec.p,
                seed=spec.seed,
                trials=spec.trials,
                successes=successes,
                rate=successes / spec.trials,
                wilson_ci_low=lo,
                wilson_ci_high=hi,
            )
        )
    return table


@dataclass
class EqualProbabilityReport:
    histogram: dict
    chi_square_p: float
    trials: int


def known_global_minima(inst: McInstance) -> dict:
    """Closed-form global minima of an unperturbed rank-1 canonical instance:
    one point per sign assignment on the S blocks, zeros elsewhere."""
    if inst.s_vertices is None:
        raise MissingS("instance does not record its independent set")
    if inst.r != 1:
        raise DimensionMismatch("closed-form minima are available for r=1 only")
    s = sorted(inst.s_vertices)
    minima = {}
    for bits in range(2 ** len(s)):
        signs = tuple(1 if (bits >> i) & 1 == 0 else -1 for i in range(len(s)))
        x = np.zeros((inst.n, 1))
        for sign, v in zip(signs, s):
            x[v - 1, 0] = sign
        minima[signs] = x
    return minima


def equal_probability_test(
    inst: McInstance,
    trials: int,
    seed: int,
    cfg: GdConfig | None = None,
    match_tol: float = 0.1,
    threads: int = 1,
) -> EqualProbabilityReport:
    """Histogram of Gaussian-initialized descent endpoints over the known
    global minima, with a chi-square uniformity p-value."""
    minima = known_global_minima(inst)
    keys = sorted(minima)
    targets = np.stack([minima[k] for k in keys])  # (C, n, 1)
    X0 = sample_radial_init("gaussian", inst.n, inst.r, seed, size=trials)
    X = run_batch_chunked(inst, LossSpec.l2(), X0, cfg or GdConfig(), threads=threads).points
    diff = X[:, None] - targets[None]
    dists = np.sqrt(np.einsum("bcir,bcir->bc", diff, diff))
    nearest = np.argmin(dists, axis=1)
    best = dists[np.arange(trials), nearest]
    bad = np.nonzero(best > match_tol)[0]
    if bad.size:
        raise UnmatchedEndpoint(
            f"{bad.size} endpoints matched no known minimum within {match_tol}"
        )
    counts = np.bincount(nearest, minlength=len(keys))
    _, pval = stats.chisquare(counts)
    histogram = {k: int(c) for k, c in zip(keys, counts)}
    return EqualProbabilityReport(histogram=histogram, chi_square_p=float(pval), trials=trials)
