"""Tests of the benchmark itself: the self-time reduction, the tail rule,
BENCHMARK.json against the metric tables, and a tiny-size smoke run of every
workload through the command line, untraced and traced.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers    # noqa: E402
import run       # noqa: E402
from tracing import Tracer, self_times    # noqa: E402


def _span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op]


def test_self_time_of_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),      # overlaps a: [1, 4] covered once
        _span("c", 5.0, 6.0, parent=0),
        _span("c.leaf", 5.2, 5.7, parent=3),  # grandchild: only c loses it
        _span("d", 9.5, 11.0, parent=0),     # clipped to the root's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.5, 0.5,
                                 1.5])


def test_tracer_spans_counts_and_uninstall():
    class Box:
        def work(self, n):
            return inner(n)

    def inner(n):
        return n + 1

    tracer = Tracer()
    original = Box.__dict__["work"]
    tracer.patch_method(Box, "work", "box.work",
                        lambda a, k, out: [("box.items", a[1])])
    tracer.op_id = 7
    assert Box().work(4) == 5
    assert Box().work(2) == 3
    tracer.uninstall()
    assert Box.__dict__["work"] is original
    assert [s[0] for s in tracer.spans] == ["box.work", "box.work"]
    assert all(s[4] == 7 and s[2] >= s[1] for s in tracer.spans)
    assert tracer.counts[7]["box.items"] == 6


def test_nested_same_name_spans_count_once():
    tracer = Tracer()
    tracer.spans = [_span("elliptic.SlabOperator.solve", 0.0, 4.0),
                    _span("elliptic.SlabOperator.solve", 1.0, 2.0, parent=0)]
    values = layers.layer_metrics(tracer, [0], [0])
    assert values["elliptic.SlabOperator.solve.s"] == (4.0, "s")


def test_tail_rule():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200.0 / 3.0))
    assert run.tail([float(i) for i in range(12)])[0] == 5.0
    xs = [float(i) for i in range(40)]
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert value == 29.0 and pct == pytest.approx(75.0)


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == dict(run.END_TO_END))
    per_layer = {m[0]: m[1] for m in layers.LAYER_METRICS}
    per_layer.update(layers.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def _run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", run.NAMES)
def test_smoke_tiny(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counts = []
    for trace in (0, 1, 1):
        out = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--tiny")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], out.stdout + out.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        names = spec["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in names}
        if trace:
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] == "count"})
        else:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert counts[0] == counts[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, str(tmp_path / "perfbench" / "run.py"),
           "--workload", "smooth-128", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
