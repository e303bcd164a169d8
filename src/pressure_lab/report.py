"""Artifact serialization: byte-reproducible CSV and versioned JSON reports.

CSV floats use repr (shortest round-trip representation) so that identical
runs produce byte-identical files.
"""

import json

import numpy as np

from .fields import GridField

SCHEMA = "pressure-lab/1"


def format_value(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path, rows, header):
    """rows: iterable of sequences aligned with header."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def write_records_csv(path, records, columns):
    """Dict records in a fixed column order; missing keys empty."""
    rows = [[format_value(rec[k]) if k in rec else "" for k in columns]
            for rec in records]
    write_csv(path, rows, columns)


def field_csv_rows(f: GridField):
    """(x1, x2, value...) per node, row-major in the chart ordering."""
    pts = f.chart.points.reshape(-1, 2)
    vals = f.values.reshape(pts.shape[0], -1)
    for p, v in zip(pts, vals):
        yield [p[0], p[1], *v]


def write_field_csv(path, f: GridField):
    ncomp = 1 if not f.is_vector else f.values.shape[-1]
    header = ["x1", "x2"] + (["value"] if ncomp == 1
                             else [f"value{i+1}" for i in range(ncomp)])
    write_csv(path, field_csv_rows(f), header)


def _jsonable(obj):
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, bool)) or obj is None:
        return obj
    return str(obj)


def write_json_report(path, payload):
    doc = {"schema": SCHEMA}
    doc.update(_jsonable(payload))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
