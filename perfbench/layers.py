"""Per-layer metrics of the traced run: which pressure_lab functions are
wrapped, under which span and count names, and how spans and counts are
reduced to the metrics listed under ``per_layer`` in BENCHMARK.json.

Time metrics are seconds per traced op (totals over the traced phase divided
by its op count), except the set-up ones, which are the set-up total.  Count
metrics are exact totals over the first ``count_window`` traced ops of the
workload, so they repeat exactly for a given seed.
"""

import os
from collections import defaultdict

from tracing import self_times

# (metric, unit, source, key): source is one of
#   setup       total span time during set-up
#   setup_count count recorded during set-up
#   op          span time per traced op
#   op_self     span self time per traced op
#   count       count over the count window
LAYER_METRICS = [
    ("geometry.build.s", "s", "setup", "geometry.build"),
    ("norms.build_pair_plan.s", "s", "setup", "norms.build_pair_plan"),
    ("norms.pairs", "count", "setup_count", "norms.pairs"),
    ("norms.holder_norm.s", "s", "op", "norms.holder_norm"),
    ("norms.holder_norm.calls", "count", "count", "norms.holder_norm.calls"),
    ("fields.RoughStream.psi.calls", "count", "count", "fields.RoughStream.psi.calls"),
    ("fields.RoughStream.psi.points", "count", "count", "fields.RoughStream.psi.points"),
    ("fields.RoughStream.psi.s", "s", "op", "fields.RoughStream.psi"),
    ("fields.collar_components.s", "s", "op", "fields.collar_components"),
    ("fields.rhs_double_divergence.s", "s", "op", "fields.rhs_double_divergence"),
    ("mollify.mollify_velocity.self_s", "s", "op_self", "mollify.mollify_velocity"),
    ("mollify.mollify_velocity.calls", "count", "count", "mollify.mollify_velocity.calls"),
    ("elliptic.solve_neumann.s", "s", "op", "elliptic.solve_neumann"),
    ("elliptic.solve_neumann.iterations", "count", "count", "elliptic.solve_neumann.iterations"),
    ("elliptic.SlabOperator.solve.s", "s", "op", "elliptic.SlabOperator.solve"),
    ("elliptic.SlabOperator.solve.calls", "count", "count", "elliptic.SlabOperator.solve.calls"),
    ("elliptic.SlabOperator.green_column.s", "s", "op", "elliptic.SlabOperator.green_column"),
    ("elliptic.SlabOperator.green_column.calls", "count", "count",
     "elliptic.SlabOperator.green_column.calls"),
    ("pressure.solve_pressure.self_s", "s", "op_self", "pressure.solve_pressure"),
    ("pressure.eta_study_record.self_s", "s", "op_self", "pressure.eta_study_record"),
    ("pressure.boundary_trace.s", "s", "op", "pressure.boundary_trace"),
    ("pressure.bc_equivalence_check.s", "s", "op", "pressure.bc_equivalence_check"),
    ("pressure.split_Pb.self_s", "s", "op_self", "pressure.split_Pb"),
    ("cli.main.self_s", "s", "op_self", "cli.main"),
    ("cli.pool_wait_s", "s", "op", "cli.pool_wait"),
    ("report.write.s", "s", "op", "report.write"),
    ("report.bytes", "count", "count", "report.bytes"),
]

# reported next to the layer metrics: traced and untraced op medians of the
# same run, and their difference (the tracing overhead)
TRACE_METRICS = [
    ("trace.op_p50_s", "s"),
    ("trace.untraced_op_p50_s", "s"),
    ("trace.overhead_s", "s"),
]


def _calls(name):
    return lambda args, kwargs, result: [(name, 1)]


def _psi_counts(args, kwargs, result):
    pts = args[1]
    return [("fields.RoughStream.psi.calls", 1),
            ("fields.RoughStream.psi.points", int(pts.size // 2))]


def _file_bytes(args, kwargs, result):
    return [("report.bytes", os.path.getsize(args[0]))]


def install(tracer):
    """Wrap the layer boundaries of pressure_lab, which must be imported."""
    from pressure_lab import cli, elliptic, fields, geometry, mollify, norms
    from pressure_lab import pressure, report

    tracer.patch_function(geometry.build_curve, "geometry.build")
    tracer.patch_function(geometry.build_cutoffs, "geometry.build")
    tracer.patch_method(fields.InteriorChart, "__init__", "geometry.build")
    tracer.patch_method(geometry.GeodesicChart, "__init__", "geometry.build")

    tracer.patch_function(
        norms.build_pair_plan, "norms.build_pair_plan",
        lambda a, k, plan: [("norms.pairs", int(plan.n_pairs))])
    tracer.patch_function(norms.holder_norm, "norms.holder_norm",
                          _calls("norms.holder_norm.calls"))

    tracer.patch_method(fields.RoughStream, "psi", "fields.RoughStream.psi",
                        _psi_counts)
    tracer.patch_function(fields.collar_components, "fields.collar_components")
    tracer.patch_function(fields.rhs_double_divergence,
                          "fields.rhs_double_divergence")

    tracer.patch_function(mollify.mollify_velocity, "mollify.mollify_velocity",
                          _calls("mollify.mollify_velocity.calls"))

    tracer.patch_function(
        elliptic.solve_neumann, "elliptic.solve_neumann",
        lambda a, k, out: [("elliptic.solve_neumann.iterations",
                            int(out[1].iterations))])
    tracer.patch_method(elliptic.SlabOperator, "solve",
                        "elliptic.SlabOperator.solve",
                        _calls("elliptic.SlabOperator.solve.calls"))
    tracer.patch_method(elliptic.SlabOperator, "green_column",
                        "elliptic.SlabOperator.green_column",
                        _calls("elliptic.SlabOperator.green_column.calls"))

    for fn in (pressure.solve_pressure, pressure.eta_study_record,
               pressure.boundary_trace, pressure.bc_equivalence_check,
               pressure.split_Pb):
        tracer.patch_function(fn, f"pressure.{fn.__name__}")

    tracer.patch_function(cli.main, "cli.main")
    tracer.patch(cli, "ProcessPoolExecutor",
                 _traced_pool(tracer, cli.ProcessPoolExecutor))
    for fn in (report.write_records_csv, report.write_json_report):
        tracer.patch_function(fn, "report.write", _file_bytes)


def _traced_pool(tracer, base):
    """Executor whose map and shutdown time the parent's wait for workers
    as `cli.pool_wait` spans."""

    class TracedPool(base):
        def map(self, *args, **kwargs):
            index = tracer.begin("cli.pool_wait")
            try:
                results = super().map(*args, **kwargs)
            finally:
                tracer.end(index)
            return _timed_iter(results)

        def shutdown(self, *args, **kwargs):
            index = tracer.begin("cli.pool_wait")
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.end(index)

    def _timed_iter(results):
        while True:
            index = tracer.begin("cli.pool_wait")
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield item

    return TracedPool


def layer_metrics(tracer, op_ids, window_ids):
    """Reduce the tracer's spans and counts to LAYER_METRICS values.

    op_ids: ids of all traced ops; window_ids: the count-window op ids."""
    n_ops = max(len(op_ids), 1)
    ops = set(op_ids)
    total = defaultdict(float)
    total_self = defaultdict(float)
    setup = defaultdict(float)
    spans = tracer.spans
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, op = span
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        # a span inside one of the same name is already in that one's time
        duration = end - start if parent is None else 0.0
        if op == "setup":
            setup[name] += duration
        elif op in ops:
            total[name] += duration
            total_self[name] += own
    window = defaultdict(int)
    for op in window_ids:
        for name, n in tracer.counts.get(op, {}).items():
            window[name] += n
    setup_counts = tracer.counts.get("setup", {})

    values = {}
    for metric, unit, source, key in LAYER_METRICS:
        if source == "setup":
            value = setup[key]
        elif source == "setup_count":
            value = int(setup_counts.get(key, 0))
        elif source == "op":
            value = total[key] / n_ops
        elif source == "op_self":
            value = total_self[key] / n_ops
        else:
            value = int(window[key])
        values[metric] = (value, unit)
    return values
