import json
import os

import numpy as np
import pytest

import bmland
from bmland.errors import InvalidParams, IoError
from bmland.serialize import (
    atomic_write_text,
    census_report_to_json,
    emit_plot_data,
    factor_to_json,
    instance_from_json,
    instance_to_json,
    load_factor,
    load_instance,
    metric_estimate_to_json,
    save_factor,
    save_instance,
    success_table_to_csv,
)

import helpers
from helpers import L2


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "sub" / "out.txt"
    atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    atomic_write_text(str(path), "replaced\n")
    assert path.read_text() == "replaced\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_atomic_write_raises_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(IoError):
        atomic_write_text(str(blocker / "nested.txt"), "y")


def test_instance_json_roundtrip(tmp_path):
    inst = helpers.star_rank2_instance(gamma=0.05, seed=13)
    back = instance_from_json(instance_to_json(inst))
    assert back.n == inst.n and back.r == inst.r
    assert np.array_equal(back.x_star, inst.x_star)
    assert np.array_equal(back.omega.mask(), inst.omega.mask())
    assert back.graph == inst.graph
    assert back.s_vertices == inst.s_vertices

    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert np.array_equal(load_instance(str(path)).omega.mask(), inst.omega.mask())


def test_instance_json_rejects_bad_omega():
    doc = json.loads(instance_to_json(helpers.path_instance(4)))
    assert [1, 2] in doc["omega"]
    out_of_range = dict(doc, omega=doc["omega"] + [[1, 5], [5, 1]])
    asymmetric = dict(doc, omega=[e for e in doc["omega"] if e != [1, 2]])
    for bad in (out_of_range, asymmetric):
        with pytest.raises(InvalidParams):
            instance_from_json(json.dumps(bad))


def test_instance_json_rejects_malformed():
    with pytest.raises(IoError):
        instance_from_json("{}")


def test_factor_roundtrip(tmp_path):
    x = np.random.default_rng(0).standard_normal((5, 2))
    path = tmp_path / "factor.json"
    save_factor(x, str(path))
    assert np.array_equal(load_factor(str(path)), x)
    assert json.loads(factor_to_json(x))["shape"] == [5, 2]
    with pytest.raises(IoError):
        load_factor(str(tmp_path / "missing.json"))


def test_census_report_serialization():
    inst = helpers.path_instance(4)
    report = bmland.multistart_census(inst, L2, 200, seed=3)
    doc = json.loads(census_report_to_json(report))
    assert doc["n_starts"] == 200
    assert len(doc["classes"]) == len(report.classes)
    for rec in doc["classes"]:
        assert set(rec) == {
            "canonical_rep", "objective", "grad_norm",
            "lambda_min", "classification", "hit_count",
        }


def test_metric_estimate_serialization():
    est = bmland.MetricEstimate(value=None, witness_pair=None, separation_achieved=None)
    doc = json.loads(metric_estimate_to_json(est))
    assert doc == {"found": False, "value": None,
                   "separation_achieved": None, "witness_pair": None}


def test_success_table_csv_layout():
    g = bmland.build_named_pattern("example1_path", n=4)
    spec = bmland.SuccessRateSpec(
        graph=g, s_vertices=frozenset({1, 3}), n=4, r=1,
        gamma_grid=(0.3, 0.1), trials=50, seed=0,
    )
    table = bmland.success_rate_experiment(spec)
    csv_text = success_table_to_csv(table)
    lines = csv_text.splitlines()
    assert lines[0] == ",".join(bmland.SuccessRateTable.COLUMNS)
    # rows sorted by (S_size, gamma) regardless of computation order
    gammas = [float(line.split(",")[0]) for line in lines[1:]]
    assert gammas == sorted(gammas)
    # rerun is byte-identical
    assert success_table_to_csv(bmland.success_rate_experiment(spec)) == csv_text


def test_emit_plot_data_rejects_empty(tmp_path):
    with pytest.raises(IoError):
        emit_plot_data(bmland.SuccessRateTable(), str(tmp_path / "x.csv"))
