"""JSON/CSV serialization with atomic writes.

Vertices and entry indices are 1-based in all files, matching the public graph
API. Every writer goes through a temp-file + rename so a crash never leaves a
half-written artifact.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import numpy as np

from .errors import IoError
from .census import CensusReport, SuccessRateTable
from .graphs import BlockSparsityGraph, MeasurementSet
from .instances import McInstance
from .metric import MetricEstimate


def atomic_write_text(path: str, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str, obj) -> None:
    """Write ``obj`` as the package's JSON artifact format: sorted keys,
    two-space indent, trailing newline."""
    atomic_write_text(path, _dump_json(obj))


def instance_to_json(inst: McInstance) -> str:
    doc = {
        "n": inst.n,
        "r": inst.r,
        "x_star": inst.x_star.tolist(),
        "omega": inst.omega.to_json(),
        "graph": None if inst.graph is None else inst.graph.to_json(),
        "s_vertices": None if inst.s_vertices is None else sorted(inst.s_vertices),
    }
    return _dump_json(doc)


def instance_from_json(text: str) -> McInstance:
    try:
        doc = json.loads(text)
        graph = None
        if doc.get("graph") is not None:
            graph = BlockSparsityGraph.from_json(doc["graph"])
        omega = MeasurementSet.from_entries(doc["n"], map(tuple, doc["omega"]))
        s = doc.get("s_vertices")
        return McInstance(
            n=doc["n"],
            r=doc["r"],
            x_star=np.asarray(doc["x_star"], dtype=float),
            omega=omega,
            graph=graph,
            s_vertices=None if s is None else frozenset(s),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed instance document: {exc}") from exc


def save_instance(inst: McInstance, path: str) -> None:
    atomic_write_text(path, instance_to_json(inst))


def load_instance(path: str) -> McInstance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return instance_from_json(text)


def factor_to_json(x: np.ndarray) -> str:
    x = np.asarray(x, dtype=float)
    return _dump_json({"shape": list(x.shape), "values": x.tolist()})


def save_factor(x: np.ndarray, path: str) -> None:
    atomic_write_text(path, factor_to_json(x))


def load_factor(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return np.asarray(doc["values"], dtype=float).reshape(doc["shape"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise IoError(f"cannot read factor from {path}: {exc}") from exc


def census_report_to_json(report: CensusReport) -> str:
    doc = {
        "n_starts": report.n_starts,
        "dedup_radius": report.dedup_radius,
        "n_converged": report.n_converged,
        "n_nonconverged": report.n_nonconverged,
        "n_polished": report.n_polished,
        "classes": [
            {
                "canonical_rep": rec.canonical_rep.tolist(),
                "objective": rec.objective,
                "grad_norm": rec.grad_norm,
                "lambda_min": rec.lambda_min,
                "classification": rec.classification.value,
                "hit_count": rec.hit_count,
            }
            for rec in report.classes
        ],
    }
    return _dump_json(doc)


def metric_estimate_to_json(est: MetricEstimate) -> str:
    doc = {
        "found": est.found,
        "value": est.value,
        "separation_achieved": est.separation_achieved,
        "witness_pair": None
        if est.witness_pair is None
        else [est.witness_pair[0].tolist(), est.witness_pair[1].tolist()],
    }
    return _dump_json(doc)


def success_table_to_csv(table: SuccessRateTable) -> str:
    """CSV sorted by (S_size, gamma) with the canonical column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SuccessRateTable.COLUMNS)
    rows = sorted(table.rows, key=lambda row: (row.S_size, row.gamma))
    for row in rows:
        writer.writerow([repr(getattr(row, c)) if isinstance(getattr(row, c), float)
                         else getattr(row, c) for c in SuccessRateTable.COLUMNS])
    return buf.getvalue()


def emit_plot_data(table: SuccessRateTable, path: str) -> None:
    if not table.rows:
        raise IoError("refusing to write an empty success-rate table")
    atomic_write_text(path, success_table_to_csv(table))
