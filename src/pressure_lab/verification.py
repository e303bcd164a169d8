"""Named invariant suites behind the `verify` subcommand.

Each suite returns {"name", "passed", "checks": {label: {"value", "bound",
"passed"}}} and is deliberately quick (seconds, not minutes); the exhaustive
versions live in the test suite.
"""

import numpy as np

from .geometry import GeodesicChart, build_curve
from .fields import InteriorChart, RadialFlow, RoughStream, sample_velocity
from .norms import build_pair_plan, h_minus2_norm, holder_norm
from .elliptic import SlabOperator, solve_neumann
from .mollify import divergence_probe, mollify_velocity
from .pressure import (bc_equivalence_check, boundary_trace, solve_pressure,
                       split_Pb)


def _check(value, bound):
    return {"value": float(value), "bound": float(bound),
            "passed": bool(value <= bound)}


def _suite(name, checks):
    return {"name": name, "passed": all(c["passed"] for c in checks.values()),
            "checks": checks}


def verify_geometry():
    from ._fourier import fourier_diff
    curve = build_curve({"kind": "circle", "radius": 1.0}, 512)
    tau = curve.tangent(curve.theta)
    n = np.stack([-tau[:, 1], tau[:, 0]], axis=-1)
    ndot = np.stack([fourier_diff(n[:, 0], curve.length),
                     fourier_diff(n[:, 1], curve.length)], axis=-1)
    frenet = np.max(np.linalg.norm(ndot - curve.gamma[:, None] * tau, axis=-1))
    collar = GeodesicChart(curve, 0.2, 16, 512)
    dX = np.stack([fourier_diff(collar.X[..., 0], curve.length, axis=1),
                   fourier_diff(collar.X[..., 1], curve.length, axis=1)],
                  axis=-1)
    metric = np.max(np.abs(np.linalg.norm(dX, axis=-1) - collar.J))
    checks = {
        "circle_frenet": _check(frenet, 1e-6),
        "circle_metric": _check(metric, 1e-6),
        "circle_gamma": _check(np.max(np.abs(curve.gamma + 1.0)), 1e-10),
    }
    return _suite("geometry", checks)


def verify_fields():
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = InteriorChart(curve, 64, 128)
    rough = RoughStream(0.5, 0, 2, chart)
    u = sample_velocity(rough.velocity, chart)
    smooth = sample_velocity(
        RadialFlow(lambda r: r, chart.radius, chart.center).velocity, chart)
    outward = chart.points[-1] - chart.center
    outward /= np.linalg.norm(outward, axis=-1, keepdims=True)
    checks = {
        "smooth_divergence": _check(
            np.max(np.abs(chart.divergence(smooth.values)[1:-1])), 1e-10),
        "rough_tangency": _check(
            np.max(np.abs(np.einsum("jk,jk->j", u.values[-1], outward))),
            1e-10),
    }
    return _suite("fields", checks)


def verify_norms():
    val = h_minus2_norm(np.cos(np.linspace(0, 2 * np.pi, 256, endpoint=False)),
                        2 * np.pi)
    target = 1.0 / (2.0 * np.sqrt(2.0))
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = InteriorChart(curve, 32, 64)
    plan = build_pair_plan(chart.points, seed=0, n_random=2000)
    r = np.linalg.norm(chart.points - chart.center, axis=-1)
    est = holder_norm(r, 0.5, plan)
    checks = {
        "h_minus2_cos": _check(abs(val - target), 1e-12),
        "holder_lower_bound": _check(est.norm, 1.0 + np.sqrt(2.0) + 1e-9),
    }
    return _suite("norms", checks)


def verify_elliptic():
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = InteriorChart(curve, 64, 128)
    r = np.linalg.norm(chart.points - chart.center, axis=-1)
    f = np.full_like(r, 4.0)
    p, _ = solve_neumann(f, np.full(chart.n_theta, 2.0), chart)
    exact = -(r**2) + 0.5            # mean-zero gauge of -r^2 on the disk
    diff = p.values - exact          # constant O(h^2) offset from the
    diff -= diff.mean()              # discrete mean gauge; stencil exact
    checks = {"manufactured": _check(np.max(np.abs(diff)), 1e-9)}
    collar = GeodesicChart(curve, 0.4, 64, 128)
    op = SlabOperator(collar)
    b = op.rhs_from_source(np.ones((collar.n_s + 1, collar.n_theta)))
    w = op.solve(b)
    res = float(np.linalg.norm(op.matvec(w[:collar.n_s]) - b)
                / np.linalg.norm(b))
    checks["slab_residual"] = _check(res, 1e-8)
    return _suite("elliptic", checks)


def verify_mollify(cutoffs, eta=0.0125):
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = InteriorChart(curve, 64, 128)
    collar = GeodesicChart(curve, cutoffs.delta, 64, 128)
    rough = RoughStream(0.5, 3, 2, chart)
    rv = mollify_velocity(rough.psi, chart, eta, cutoffs, collar)
    checks = {
        "trace": _check(rv.trace_max, 1e-10),
        "tangency": _check(rv.tangency_max, 1e-8),
        "divergence": _check(
            divergence_probe(rough.psi, chart, eta, cutoffs), 1e-8),
    }
    return _suite("mollify", checks)


def verify_pressure(cutoffs):
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = InteriorChart(curve, 64, 128)
    collar = GeodesicChart(curve, cutoffs.delta, 64, 128)
    flow = RadialFlow(lambda r: r, chart.radius, chart.center)
    u = sample_velocity(flow.velocity, chart)
    sol = solve_pressure(u, chart=chart, cutoffs=cutoffs)
    r = np.linalg.norm(chart.points - chart.center, axis=-1)
    exact = r**2 / 2 - 0.25
    checks = {
        "rigid_pressure": _check(np.max(np.abs(sol.p.values - exact)), 1e-3),
        "bc_equivalence": _check(bc_equivalence_check(sol.p, u, collar), 5e-2),
    }
    Pc = chart.on_collar(sol.P.values, collar)
    sp = split_Pb(flow.velocity, Pc, cutoffs, collar)
    checks["pb_reconstruction"] = _check(sp.reconstruction_error, 5e-3)
    checks["green_terms"] = _check(sp.green_sum_error, 5e-3)
    tc = boundary_trace(Pc, flow.velocity, collar)
    checks["trace_wall"] = _check(tc.wall_distance, 5e-2)
    return _suite("pressure", checks)


def run_all(cutoffs):
    """Every suite, the mollifier and pressure ones with the given cutoffs."""
    return [verify_geometry(), verify_fields(), verify_norms(),
            verify_elliptic(), verify_mollify(cutoffs),
            verify_pressure(cutoffs)]
