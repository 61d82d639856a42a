import json
import pickle

import numpy as np
import pytest

import bmland
from bmland import errors
from bmland.cli import OUT_DIR_ENV, main
from bmland.serialize import instance_to_json, load_instance

import helpers


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _base_cfg(**extra):
    doc = {"pattern": "example1_path", "n": 4, "S": [1, 3], "gamma": 0.0, "seed": 1}
    doc.update(extra)
    return doc


def test_gen_and_solve_pipeline(tmp_path):
    gen_cfg = _write(tmp_path, "gen.json", _base_cfg(gamma=0.2))
    out = tmp_path / "out"
    assert main(["gen", "--config", gen_cfg, "--out", str(out)]) == 0
    inst_path = out / "instance.json"
    assert inst_path.exists()

    solve_cfg = _write(tmp_path, "solve.json", {"instance": str(inst_path)})
    assert main(["solve", "--config", solve_cfg, "--out", str(out)]) == 0
    assert (out / "factor.json").exists()
    report = json.loads((out / "solve_report.json").read_text())
    assert report["relative_error"] <= 1e-8
    assert report["ops_estimate"] > 0


def test_descend_writes_result(tmp_path):
    cfg = _write(tmp_path, "d.json", _base_cfg())
    out = tmp_path / "out"
    assert main(["descend", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "descend.json").read_text())
    assert doc["status"] == "Converged"
    assert doc["objective"] <= 1e-10


def test_descend_writes_row_0_of_one_start_batch(tmp_path):
    out = tmp_path / "out"
    assert main(["gen", "--config", _write(tmp_path, "g.json", _base_cfg(gamma=0.2)), "--out", str(out)]) == 0
    inst_path = str(out / "instance.json")
    cfg = _write(tmp_path, "d.json", {"instance": inst_path, "seed": 5, "max_iters": 40})
    assert main(["descend", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "descend.json").read_text())
    inst = load_instance(inst_path)
    init_seed = int(np.random.SeedSequence(5).generate_state(2)[1])
    x0 = bmland.sample_radial_init("gaussian", inst.n, inst.r, init_seed)
    res = bmland.run_batch_chunked(inst, helpers.L2, x0[None], bmland.GdConfig(max_iters=40))
    assert doc == {
        "status": res.status[0].value,
        "iterations": int(res.iters[0]),
        "objective": float(res.values[0]),
        "grad_norm": float(res.grad_norms[0]),
        "final_point": res.points[0].tolist(),
    }


def test_census_with_lower_bound(tmp_path):
    cfg = _write(tmp_path, "c.json", _base_cfg(n_starts=500))
    out = tmp_path / "out"
    assert main(["census", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "census.json").read_text())
    assert doc["lower_bound_check"]["bound"] == 2
    assert {c["classification"] for c in doc["classes"]} == {"GlobalMin"}


def test_census_honours_ball_radius(tmp_path):
    written = []
    for radius in (0.01, 3.0):
        cfg = _write(tmp_path, f"r{radius}.json", _base_cfg(
            gamma=0.2, n_starts=200, dist="ball", radius=radius))
        out = tmp_path / f"r{radius}"
        assert main(["census", "--config", cfg, "--out", str(out)]) == 0
        written.append((out / "census.json").read_bytes())
    assert written[0] != written[1]


def test_check_reports_membership(tmp_path):
    cfg = _write(tmp_path, "k.json", _base_cfg(gamma=0.3))
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "check.json").read_text())
    assert doc["in_class"] is True
    assert doc["max_independent_set"] == [1, 3]


def test_check_erdos_renyi_pattern(tmp_path):
    doc = {"pattern": "erdos_renyi", "m": 10, "p": 0.3, "S": [2, 5, 8], "graph_seed": 4, "gamma": 0.1}
    out = tmp_path / "out"
    assert main(["check", "--config", _write(tmp_path, "er.json", doc), "--out", str(out)]) == 0
    report = json.loads((out / "check.json").read_text())
    g = bmland.build_erdos_renyi(10, 0.3, [2, 5, 8], seed=4)
    assert report["in_class"] is True
    assert report["max_independent_set"] == sorted(bmland.analyze_graph(g).max_independent_set)


def test_check_without_s_uses_maximal_independent_set(tmp_path):
    # Without S the instance is built on the graph's maximal independent set:
    # the same bytes as naming that set.
    written = []
    for name, extra in (("no_s", {}), ("mis", {"S": [1, 3, 5]})):
        doc = {"pattern": "example1_path", "n": 6, "gamma": 0.2, "seed": 2, **extra}
        out = tmp_path / name
        assert main(["check", "--config", _write(tmp_path, f"{name}.json", doc), "--out", str(out)]) == 0
        written.append((out / "check.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["max_independent_set"] == [1, 3, 5]


def test_metric_subcommand(tmp_path):
    cfg = _write(tmp_path, "m.json", _base_cfg(restarts=10, iters=600))
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "metric.json").read_text())
    assert doc["found"] is True and doc["value"] <= 1e-6


def test_experiment_gamma_grid_spec(tmp_path):
    cfg = _write(tmp_path, "e.json", _base_cfg(
        gamma_grid={"count": 3}, trials=50, max_iters=20000))
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "experiment.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 gamma rows


def test_key_value_config_accepted(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        'pattern = "example1_path"\nn = 4\nS = [1, 3]\nn_starts = 50\nseed = 1\n'
    )
    out = tmp_path / "out"
    assert main(["census", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "census.json").exists()


def test_validation_error_exit_code_names_field(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", _base_cfg())  # census without n_starts
    assert main(["census", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "n_starts" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["descend", "census"])
def test_nonpositive_divergence_bound_exit_code(tmp_path, capsys, command):
    cfg = _write(tmp_path, "div.json", _base_cfg(n_starts=20, divergence_bound=-1))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "divergence_bound" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam", [float("nan"), -1.0])
def test_invalid_reg_lambda_exit_code(tmp_path, capsys, lam):
    # Such a lambda used to run the plain l2 loss without a word.
    cfg = _write(tmp_path, "reg.json", _base_cfg(reg_lambda=lam, reg_alpha=0.5))
    assert main(["descend", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "lambda" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, field", [("descend", "step"), ("metric", "separation")])
def test_infinite_setting_exit_code(tmp_path, capsys, command, field):
    # JSON reads 1e400 as inf: descend used to write Infinity and NaN tokens,
    # and metric searched on NaN residuals, both exiting 0.
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(_base_cfg(n_starts=20))[:-1] + f', "{field}": 1e400}}')
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_has_one_exit_category():
    categories = (errors.ConfigError, errors.NumericalError, errors.IoError)
    leaves = [c for c in _subclasses(errors.BmlandError) if c not in categories]
    assert len(leaves) >= 17
    for cls in leaves:
        assert sum(issubclass(cls, cat) for cat in categories) == 1, cls.__name__


def test_every_error_survives_pickling():
    # Errors raised in a worker process reach the caller through pickle.
    for cls in [errors.BmlandError, *_subclasses(errors.BmlandError)]:
        err = cls("threads", "must be >= 1") if cls is errors.ValidationError else cls("boom")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls and str(back) == str(err), cls.__name__


@pytest.mark.parametrize("command", ["check", "solve"])
def test_graph_with_more_block_rows_than_n_exit_code(tmp_path, capsys, command):
    # A saved 3-vertex path instance whose attached graph is the 4-vertex path.
    doc = json.loads(instance_to_json(helpers.path_instance(3)))
    doc["graph"] = bmland.build_named_pattern("example1_path", n=4).to_json()
    cfg = _write(tmp_path, "c.json", {"instance": _write(tmp_path, "inst.json", doc)})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "graph has m*r = 4 > n = 3" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "bipartite.json", {
        "graph": {"m": 3, "e1": [[1, 2], [2, 3]], "e2": []},
        "S": [1, 3], "gamma": 0.0, "seed": 0,
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_io_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "g.json", _base_cfg())
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    assert main(["gen", "--config", cfg, "--out", str(blocker / "nested")]) == 3


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "g.json", _base_cfg())
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    assert main(["gen", "--config", cfg]) == 0
    assert (env_dir / "instance.json").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "g.json", _base_cfg(gamma=0.2))
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    assert main(["gen", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gen", "--config", cfg, "--out", str(out_b), "--seed", "1"]) == 0
    assert main(["gen", "--config", cfg, "--out", str(out_c), "--seed", "2"]) == 0
    a = (out_a / "instance.json").read_bytes()
    assert a == (out_b / "instance.json").read_bytes()  # same seed as config
    assert a != (out_c / "instance.json").read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.json", _base_cfg(n_starts=300))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["census", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["census", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "census.json").read_bytes() == (out_b / "census.json").read_bytes()
