"""Command-line entry point.

Subcommands: gen, solve, descend, census, experiment, metric, check.
All randomness is derived from a single top-level seed; outputs are written
atomically, so reruns of the same config are byte-identical regardless of the
thread count.

Exit codes: 0 success, 1 config/validation error, 2 numerical failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import errors
from .census import (
    SuccessRateSpec,
    check_lower_bound,
    make_gamma_grid,
    multistart_census,
    success_rate_experiment,
)
from .config import load_config, require
from .graphs import (
    BlockSparsityGraph,
    analyze_graph,
    build_erdos_renyi,
    build_named_pattern,
    induce_measurement_set,
)
from .instances import (
    assemble_instance,
    build_canonical_ground_truth,
    check_class_membership,
    compute_incoherence,
    perturb,
)
from .landscape import LossSpec
from .metric import MetricBudget, estimate_complexity_metric
from .optimize import GdConfig, run_batch_chunked, sample_radial_init
from .completion import solve_by_propagation
from .serialize import (
    atomic_write_text,
    census_report_to_json,
    emit_plot_data,
    load_instance,
    metric_estimate_to_json,
    save_factor,
    save_instance,
    write_json,
)

OUT_DIR_ENV = "BMLAND_OUT_DIR"


def _build_graph(cfg: dict) -> BlockSparsityGraph:
    if "graph" in cfg:
        return BlockSparsityGraph.from_json(require(cfg, "graph", dict))
    pattern = require(cfg, "pattern", str)
    if pattern == "erdos_renyi":
        return build_erdos_renyi(
            m=require(cfg, "m", int),
            p=require(cfg, "p", float),
            target_S=require(cfg, "S", list),
            seed=require(cfg, "graph_seed", int, default=require(cfg, "seed", int, default=0)),
        )
    params = {k: cfg[k] for k in ("n", "m", "k") if k in cfg}
    return build_named_pattern(pattern, **params)


def _s_vertices(cfg: dict, g: BlockSparsityGraph):
    if "S" in cfg:
        return frozenset(require(cfg, "S", list))
    return analyze_graph(g).max_independent_set


def _build_instance(cfg: dict, seed: int):
    if "instance" in cfg:
        return load_instance(require(cfg, "instance", str))
    g = _build_graph(cfg)
    r = require(cfg, "r", int, default=1)
    n = require(cfg, "n", int, default=g.m * r)
    gamma = require(cfg, "gamma", float, default=0.0)
    s = _s_vertices(cfg, g)
    x0 = build_canonical_ground_truth(g, s, n, r)
    perturb_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    x_eps = perturb(x0, gamma, perturb_seed)
    omega = induce_measurement_set(g, n, r)
    return assemble_instance(x_eps, omega, g, s)


def _gd_config(cfg: dict) -> GdConfig:
    return GdConfig(
        step=require(cfg, "step", float, default=None),
        max_iters=require(cfg, "max_iters", int, default=200_000),
        grad_tol=require(cfg, "grad_tol", float, default=None),
        divergence_bound=require(cfg, "divergence_bound", float, default=None),
    )


def _loss(cfg: dict) -> LossSpec:
    lam = require(cfg, "reg_lambda", float, default=0.0)
    if lam == 0.0:
        return LossSpec.l2()
    # Any other value, NaN and negatives included, is validated there.
    return LossSpec.l2_regularized(lam, require(cfg, "reg_alpha", float))


def _out_path(cfg: dict, args, default_name: str) -> str:
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or require(cfg, "out_dir", str, default=".")
    name = require(cfg, "out_file", str, default=default_name)
    return os.path.join(out_dir, name)


def _cmd_gen(cfg, args, seed, threads):
    inst = _build_instance(cfg, seed)
    path = _out_path(cfg, args, "instance.json")
    save_instance(inst, path)
    print(f"wrote instance n={inst.n} r={inst.r} |omega|={len(inst.omega)} -> {path}")
    return 0


def _cmd_solve(cfg, args, seed, threads):
    inst = _build_instance(cfg, seed)
    result = solve_by_propagation(inst)
    x_hat = result.recovered_factor
    rel_err = float(
        np.linalg.norm(x_hat @ x_hat.T - inst.m_star()) / max(np.linalg.norm(inst.m_star()), 1e-300)
    )
    path = _out_path(cfg, args, "factor.json")
    save_factor(x_hat, path)
    report = {"relative_error": rel_err, "ops_estimate": result.operations_estimate}
    report_path = os.path.join(os.path.dirname(path), require(cfg, "report_file", str, default="solve_report.json"))
    write_json(report_path, report)
    print(f"recovered factor, relative error {rel_err:.3e}, ops ~{result.operations_estimate} -> {path}")
    return 0


def _cmd_descend(cfg, args, seed, threads):
    inst = _build_instance(cfg, seed)
    loss = _loss(cfg)
    init_seed = int(np.random.SeedSequence(seed).generate_state(2)[1])
    x0 = sample_radial_init(
        require(cfg, "dist", str, default="gaussian"),
        inst.n,
        inst.r,
        init_seed,
        sigma=require(cfg, "sigma", float, default=1.0),
        radius=require(cfg, "radius", float, default=1.0),
    )
    res = run_batch_chunked(inst, loss, x0, _gd_config(cfg))
    doc = {
        "status": res.status[0].value,
        "iterations": int(res.iters[0]),
        "objective": float(res.values[0]),
        "grad_norm": float(res.grad_norms[0]),
        "final_point": res.points[0].tolist(),
    }
    path = _out_path(cfg, args, "descend.json")
    write_json(path, doc)
    print(f"{doc['status']} after {doc['iterations']} iterations, f={doc['objective']:.6e} -> {path}")
    return 0


def _cmd_census(cfg, args, seed, threads):
    inst = _build_instance(cfg, seed)
    loss = _loss(cfg)
    report = multistart_census(
        inst,
        loss,
        n_starts=require(cfg, "n_starts", int),
        seed=int(np.random.SeedSequence(seed).generate_state(2)[1]),
        cfg=_gd_config(cfg),
        dist=require(cfg, "dist", str, default="gaussian"),
        sigma=require(cfg, "sigma", float, default=1.0),
        radius=require(cfg, "radius", float, default=1.0),
        dedup_radius=require(cfg, "dedup_radius", float, default=1e-4),
        threads=threads,
    )
    doc = json.loads(census_report_to_json(report))
    if inst.s_vertices is not None and inst.graph is not None:
        doc["lower_bound_check"] = check_lower_bound(
            report, inst.graph, inst.r, s_vertices=inst.s_vertices
        )
    path = _out_path(cfg, args, "census.json")
    write_json(path, doc)
    spurious = report.spurious_classes
    print(
        f"census: {len(report.classes)} classes ({report.global_classes} global, "
        f"{spurious} spurious), {report.n_polished} polished, "
        f"{report.n_nonconverged} non-converged -> {path}"
    )
    return 0


def _gamma_grid(cfg: dict):
    grid = require(cfg, "gamma_grid")
    if isinstance(grid, list):
        return tuple(float(g) for g in grid)
    if isinstance(grid, dict):
        return make_gamma_grid(
            count=require(grid, "count", int),
            lo=require(grid, "lo", float, default=0.0),
            hi=require(grid, "hi", float, default=0.5),
        )
    raise errors.ValidationError("gamma_grid", "expected list or {count, lo, hi}")


def _cmd_experiment(cfg, args, seed, threads):
    g = _build_graph(cfg)
    s = _s_vertices(cfg, g)
    r = require(cfg, "r", int, default=1)
    spec = SuccessRateSpec(
        graph=g,
        s_vertices=s,
        n=require(cfg, "n", int, default=g.m * r),
        r=r,
        gamma_grid=_gamma_grid(cfg),
        trials=require(cfg, "trials", int),
        dist=require(cfg, "dist", str, default="gaussian"),
        seed=seed,
        p=require(cfg, "p", float, default=float("nan")),
    )
    table = success_rate_experiment(spec, _gd_config(cfg), threads=threads)
    path = _out_path(cfg, args, "experiment.csv")
    emit_plot_data(table, path)
    print(f"wrote {len(table.rows)} success-rate rows -> {path}")
    return 0


def _cmd_metric(cfg, args, seed, threads):
    inst = _build_instance(cfg, seed)
    budget = MetricBudget(
        restarts=require(cfg, "restarts", int, default=30),
        iters=require(cfg, "iters", int, default=2000),
    )
    est = estimate_complexity_metric(
        inst,
        budget,
        separation=require(cfg, "separation", float, default=None),
        seed=int(np.random.SeedSequence(seed).generate_state(2)[1]),
        threads=threads,
    )
    path = _out_path(cfg, args, "metric.json")
    atomic_write_text(path, metric_estimate_to_json(est))
    if est.found:
        print(f"ambiguity distance upper bound {est.value:.6e} -> {path}")
    else:
        print(f"no ambiguous measurement pair found within budget -> {path}")
    return 0


def _cmd_check(cfg, args, seed, threads):
    inst = _build_instance(cfg, seed)
    report = check_class_membership(inst)
    analysis = analyze_graph(inst.graph)
    doc = {
        "psd_rank_r": report.psd_rank_r,
        "all_blocks_full_rank": report.all_blocks_full_rank,
        "g1_connected_nonbipartite": report.g1_connected_nonbipartite,
        "in_class": report.in_class,
        "incoherence": compute_incoherence(inst),
        "max_independent_set": sorted(analysis.max_independent_set),
    }
    path = _out_path(cfg, args, "check.json")
    write_json(path, doc)
    print(f"in_class={report.in_class} -> {path}")
    return 0


COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "descend": _cmd_descend,
    "census": _cmd_census,
    "experiment": _cmd_experiment,
    "metric": _cmd_metric,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmland",
        description="Low-rank matrix completion landscape toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate an instance file from a graph/pattern config"),
        ("solve", "recover the ground truth exactly by block propagation"),
        ("descend", "run a single seeded gradient descent"),
        ("census", "multistart critical-point census with lower-bound check"),
        ("experiment", "success-rate sweep over a perturbation grid (CSV)"),
        ("metric", "estimate the measurement-ambiguity distance"),
        ("check", "verify solvable-class membership of an instance"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON or key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (overrides config and env)")
        p.add_argument("--threads", type=int, default=None, help="worker processes (default: config or 1)")
    return parser


def run_config(command: str, cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else require(cfg, "seed", int, default=0)
    threads = args.threads if args.threads is not None else require(cfg, "threads", int, default=1)
    if threads < 1:
        raise errors.ValidationError("threads", "must be >= 1")
    return COMMANDS[command](cfg, args, seed, threads)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return run_config(args.command, cfg, args)
    except errors.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except errors.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (errors.IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
