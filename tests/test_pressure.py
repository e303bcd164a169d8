import sys
import threading

import numpy as np
import pytest
import sympy as sp

from pressure_lab.elliptic import SolverError
from pressure_lab.fields import GridField, InteriorChart, make_rough_stream
from pressure_lab.geometry import GeodesicChart, build_curve
from pressure_lab.mollify import (MollifyError, divergence_probe,
                                  mollify_velocity)
from pressure_lab.norms import build_pair_plan, c0_distance, holder_norm
from pressure_lab.pressure import (PressureError, bc_equivalence_check,
                                   boundary_trace, collar_flux_residual,
                                   eta_study, eta_study_record, sanss2_rhs,
                                   solve_pressure, split_Pb, tensor_square,
                                   _slab_source)

from conftest import disk_radii


def rigid_velocity(pts):
    pts = np.asarray(pts, dtype=float)
    return np.stack([pts[..., 1], -pts[..., 0]], axis=-1)


def rigid_field(chart):
    return GridField(chart, rigid_velocity(chart.points), pole=np.zeros(2))


def rigid_P_collar(collar):
    # p(s) = (1 - s)^2 / 2 - 1/4 on the unit disk; u.n = 0 so P = p
    s = collar.s[:, None]
    return np.broadcast_to((1.0 - s) ** 2 / 2.0 - 0.25,
                           (collar.n_s + 1, collar.n_theta)).copy()


# ----------------------------------------------------------------------
# pressure solve oracles
# ----------------------------------------------------------------------

def test_rigid_rotation_pressure(disk_chart, cutoffs, collar):
    sol = solve_pressure(rigid_field(disk_chart), collar=collar,
                         cutoffs=cutoffs)
    exact = disk_radii(disk_chart) ** 2 / 2.0 - 0.25
    assert np.max(np.abs(sol.p.values - exact)) < 5e-3
    # u.n = 0, so the adjusted pressure coincides with p
    assert np.max(np.abs(sol.P.values - sol.p.values)) < 1e-12


# the compatibility cap of solve_neumann rejects all three at 64x128: the
# O(eta) wall layer of u_eta . tau gives defects of 1.24e-2 / 6.2e-3 /
# 3.1e-3 against caps of 9.6e-3 / 5.0e-3 / 2.9e-3.  At 128x256 the same
# solves pass with errors of 2.2e-3 / 6.0e-4 / 1.5e-4.
@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="compatibility cap rejects the mollified field")
@pytest.mark.parametrize("eta", [0.0125, 0.00625, 0.003125])
def test_mollified_rigid_rotation_pressure(disk_chart, cutoffs, collar, eta):
    def psi(pts):
        return (1.0 - np.einsum("...k,...k->...", pts, pts)) / 2.0

    rv = mollify_velocity(psi, disk_chart, eta, cutoffs, collar)
    sol = solve_pressure(rv, chart=disk_chart, cutoffs=cutoffs)
    exact = disk_radii(disk_chart) ** 2 / 2.0 - 0.25
    assert np.max(np.abs(sol.p.values - exact)) <= eta / 4.0


def test_radial_quadratic_pressure(disk_chart, cutoffs, collar):
    # V(r) = r^2: p = r^4/4 - 1/12, d_n p = -V(1)^2 = -1 at the wall
    from pressure_lab.fields import radial_flow
    u = radial_flow(lambda r: r ** 2, disk_chart)
    sol = solve_pressure(u, collar=collar, cutoffs=cutoffs)
    exact = disk_radii(disk_chart) ** 4 / 4.0 - 1.0 / 12.0
    assert np.max(np.abs(sol.p.values - exact)) < 5e-3


def test_zero_field_pressure(disk_chart, cutoffs, collar):
    u = GridField(disk_chart, np.zeros(disk_chart.points.shape),
                  pole=np.zeros(2))
    sol = solve_pressure(u, collar=collar, cutoffs=cutoffs)
    assert np.max(np.abs(sol.p.values)) < 1e-10
    assert np.max(np.abs(sol.P.values)) < 1e-10


def test_non_tangential_velocity_rejected(disk_chart, cutoffs, collar):
    u = GridField(disk_chart, np.broadcast_to([1.0, 0.0],
                  disk_chart.points.shape).copy(), pole=np.array([1.0, 0.0]))
    with pytest.raises(PressureError, match="not tangential"):
        solve_pressure(u, collar=collar, cutoffs=cutoffs)


# ----------------------------------------------------------------------
# collar flux identity
# ----------------------------------------------------------------------

def _stream_pair(psi_str):
    """Velocity grad^perp psi and the double divergence of u x u, both as
    callables of physical points, from a symbolic stream function."""
    x, y = sp.symbols("x y", real=True)
    psi_expr = sp.sympify(psi_str, locals={"x": x, "y": y})
    u1 = sp.diff(psi_expr, y)
    u2 = -sp.diff(psi_expr, x)
    rhs = (sp.diff(u1 * u1, x, 2) + 2 * sp.diff(u1 * u2, x, y)
           + sp.diff(u2 * u2, y, 2))
    fu = sp.lambdify((x, y), (u1, u2), "numpy")
    fr = sp.lambdify((x, y), sp.simplify(rhs), "numpy")

    def velocity(pts):
        pts = np.asarray(pts, dtype=float)
        a, b = fu(pts[..., 0], pts[..., 1])
        return np.stack([np.broadcast_to(a, pts.shape[:-1]),
                         np.broadcast_to(b, pts.shape[:-1])], axis=-1)

    def reference(pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(fr(pts[..., 0], pts[..., 1]),
                               pts.shape[:-1]).astype(float)

    return velocity, reference


def test_collar_flux_rigid_exact(collar):
    # rigid rotation: every term is at most quadratic in s, the stencils
    # are exact, and the remainder collapses to the constant -2
    res = collar_flux_residual(rigid_velocity, lambda pts: np.full(
        pts.shape[:-1], -2.0), collar)
    assert np.max(np.abs(res)) < 1e-10


@pytest.mark.parametrize("psi_str", ["(1 - x**2 - y**2)*x",
                                     "(1 - x**2 - y**2)*sin(x + 2*y)"])
def test_collar_flux_residual_second_order(circle, psi_str):
    x, y = sp.symbols("x y", real=True)
    velocity, reference = _stream_pair(psi_str)
    errs = []
    for n_s, n_theta in [(32, 128), (64, 256)]:
        cc = GeodesicChart(circle, 0.4, n_s, n_theta)
        res = collar_flux_residual(velocity, reference, cc)
        errs.append(np.max(np.abs(res[2:-2])))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


# ----------------------------------------------------------------------
# second-s-derivative-free source
# ----------------------------------------------------------------------

def test_sanss2_rigid_exact(collar, cutoffs):
    # rigid pressure is quadratic in s, so every stencil is exact:
    # the source must match -Laplace(phi_b P) = -2 phi_b - phi_b'' P
    # - 2 phi_b' P' - (gamma/J) phi_b' P to rounding
    values = sanss2_rhs(rigid_velocity, rigid_P_collar(collar), cutoffs,
                        collar)
    s = collar.s[:, None]
    P = (1.0 - s) ** 2 / 2.0 - 0.25
    dP = -(1.0 - s)
    exact = (-2.0 * cutoffs.phi_b(s) - cutoffs.phi_b_d2(s) * P
             - 2.0 * cutoffs.phi_b_d1(s) * dP
             + cutoffs.phi_b_d1(s) * P / (1.0 - s))
    assert np.max(np.abs(values - exact)) < 1e-10


@pytest.mark.parametrize("name, row", [("un", 30), ("ut", 30), ("P", 52)])
def test_slab_source_is_local(cutoffs, collar, name, row):
    # each s-derivative of the source is one centred difference, so a unit
    # change at one node moves the source on its own row and the next ones
    # only; a second s-derivative of two centred differences reaches two
    # rows further.  P enters through phi_b' and phi_b'' only, which vanish
    # at row 30, so it is changed at row 52, inside the phi_b band
    rng = np.random.default_rng(21)
    samples = {key: rng.normal(size=(collar.n_s + 1, collar.n_theta))
               for key in ("un", "ut", "P")}
    base = _slab_source(*samples.values(), cutoffs, collar)[0]
    samples[name][row, 17] += 1.0
    values = _slab_source(*samples.values(), cutoffs, collar)[0]
    changed = np.flatnonzero(np.any(values != base, axis=1))
    assert changed.tolist() == [row - 1, row, row + 1]


def test_sanss2_manufactured_second_order(circle, cutoffs):
    # with rigid velocity the velocity terms are grid-exact, so a smooth
    # non-polynomial pressure isolates the order-2 error of the one s
    # derivative applied to pressure samples
    errs = []
    for n_s, n_theta in [(64, 128), (128, 256)]:
        cc = GeodesicChart(circle, cutoffs.delta, n_s, n_theta)
        s = cc.s[:, None]
        P = np.exp(-2.0 * s) * (1.0 + 0.5 * np.cos(2.0 * cc.theta))
        dP = -2.0 * P
        values = sanss2_rhs(rigid_velocity, P, cutoffs, cc)
        exact = (-2.0 * cutoffs.phi_b(s) - cutoffs.phi_b_d2(s) * P
                 - 2.0 * cutoffs.phi_b_d1(s) * dP
                 + cutoffs.phi_b_d1(s) * P / (1.0 - s))
        errs.append(np.max(np.abs((values - exact)[1:-1])))
    assert errs[0] / errs[1] > 3.0


# ----------------------------------------------------------------------
# boundary-piece split and Green terms
# ----------------------------------------------------------------------

def test_split_Pb_rigid(cutoffs, collar):
    split = split_Pb(rigid_velocity, rigid_P_collar(collar), cutoffs, collar,
                     n_probes=6, seed=3)
    assert split.reconstruction_error < 3e-3
    assert split.green_sum_error < 1e-4
    # probes stay away from the wall and the deep edge
    for i, _ in split.probes:
        assert 0 < i < collar.n_s


def test_split_Pb_deterministic(cutoffs, collar):
    a = split_Pb(rigid_velocity, rigid_P_collar(collar), cutoffs, collar,
                 n_probes=3, seed=7)
    b = split_Pb(rigid_velocity, rigid_P_collar(collar), cutoffs, collar,
                 n_probes=3, seed=7)
    assert a.probes == b.probes
    assert np.array_equal(a.I1, b.I1)
    assert np.array_equal(a.P_bi, b.P_bi)


# ----------------------------------------------------------------------
# traces and boundary-condition equivalence
# ----------------------------------------------------------------------

def test_boundary_trace_rigid(collar):
    # d_s P - gamma (u.tau)^2 = -(1 - s) + 1 = s: the trace distance decays
    # linearly as the sample depth shrinks toward the wall
    tc = boundary_trace(rigid_P_collar(collar), rigid_velocity, collar)
    assert np.all(np.diff(tc.distances) < 0)
    assert tc.slope < 0
    assert tc.wall_distance < 5e-2
    assert np.allclose(tc.s, collar.s[[4, 2, 1]])
    rows = tc.as_rows()
    assert len(rows) == 3
    assert rows[0][1] > rows[-1][1]


def test_bc_equivalence_rigid(disk_chart, cutoffs, collar):
    sol = solve_pressure(rigid_field(disk_chart), collar=collar,
                         cutoffs=cutoffs)
    # the wall stencil is exact on this quadratic pressure: only the solver
    # tolerance is left (about 1e-10); a first-order stencil gives 3e-3
    defect = bc_equivalence_check(sol.p, rigid_velocity, collar)
    assert defect <= 1e-8


# ----------------------------------------------------------------------
# eta study
# ----------------------------------------------------------------------

def per_field(records, key="C_meas"):
    """The key values of the records without an error, grouped by
    (alpha, seed), in ascending eta."""
    groups = {}
    for r in sorted(records, key=lambda r: (r["alpha"], r["seed"], r["eta"])):
        if "error" not in r:
            groups.setdefault((r["alpha"], r["seed"]), []).append(r[key])
    return groups


def test_eta_study_ledger(disk_chart, cutoffs, collar):
    rough = make_rough_stream(0.5, 11, 1, disk_chart)
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=2000)
    recs = eta_study([rough], [0.0125, 0.00625], cutoffs, collar, plan)
    # the eta sweep runs largest-first, so the second record carries the
    # successive-pressure diagnostic
    assert [r["eta"] for r in recs] == [0.0125, 0.00625]
    for r in recs:
        assert "error" not in r
        assert np.isfinite(r["C_meas"]) and r["C_meas"] > 0
        assert r["C1_meas"] <= r["C_meas"] * 1.0001 or r["C1_meas"] > 0
        assert r["trace_max"] < 1e-10
        assert r["tangency_max"] < 1e-8
        assert r["divergence_max"] < 1e-8
    assert ["p_c0_step" in r for r in recs] == [False, True]
    groups = per_field(recs, "C_meas")
    assert list(groups) == [(0.5, 11)]
    assert groups[(0.5, 11)] == [recs[1]["C_meas"], recs[0]["C_meas"]]


def test_eta_study_partial_failure(disk_chart, cutoffs, collar):
    rough = make_rough_stream(0.5, 1, 1, disk_chart)
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=2000)
    # eta above epsilon/4 pushes kernel supports out of the cutoff bands
    recs = eta_study([rough], [0.05], cutoffs, collar, plan)
    assert len(recs) == 1
    assert "error" in recs[0]
    assert per_field(recs) == {}


def test_eta_study_propagates_programming_errors(disk_chart, cutoffs, collar,
                                                monkeypatch):
    # only domain errors become ledger rows; a bug must not be recorded as
    # a failed run
    def broken(*args, **kwargs):
        raise TypeError("bug")
    monkeypatch.setattr("pressure_lab.pressure.eta_study_record", broken)
    rough = make_rough_stream(0.5, 1, 1, disk_chart)
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=200)
    with pytest.raises(TypeError, match="bug"):
        eta_study([rough], [0.0125], cutoffs, collar, plan)


def _serial_record(rough, eta, cutoffs, collar, plan, prev_p):
    """The record of eta_study_record, from mollify_velocity, solve_pressure
    and divergence_probe called one after the other on this thread."""
    chart = rough.chart
    rv = mollify_velocity(rough.psi, chart, eta, cutoffs, collar)
    sol = solve_pressure(rv, chart=chart, cutoffs=cutoffs)
    divergence_max = divergence_probe(rough.psi, chart, eta, cutoffs)
    uu = holder_norm(tensor_square(rv.u_eta), rough.alpha, plan).norm
    hP = holder_norm(sol.P, rough.alpha, plan).norm
    sup_P = float(np.max(np.abs(sol.P.values)))
    return {
        "alpha": rough.alpha, "seed": rough.seed, "eta": eta,
        "n_rho": chart.n_rho, "n_theta": chart.n_theta,
        "uu_holder": uu, "p_holder": holder_norm(sol.p, rough.alpha,
                                                 plan).norm,
        "P_holder": hP, "P_sup": sup_P, "C_meas": hP / uu,
        "C1_meas": sup_P / uu, "plan_seed": plan.seed,
        "pair_count": plan.n_pairs,
        "solver_iterations": sol.report.iterations,
        "trace_max": rv.trace_max, "tangency_max": rv.tangency_max,
        "divergence_max": divergence_max,
        "p_c0_step": c0_distance(sol.p.values, prev_p),
    }, sol.p.values


def test_record_matches_serial_composition(disk_chart, cutoffs, collar):
    # the probe runs on a helper thread beside the mollifier and the solve;
    # the record is the serial composition's bit for bit, also when the
    # threads switch every microsecond
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=2000)
    prev = np.zeros(disk_chart.points.shape[:-1])
    before = threading.active_count()
    want, want_p = _serial_record(rough, 0.00625, cutoffs, collar, plan, prev)
    interval = sys.getswitchinterval()
    for switch in (interval, 1e-6):
        sys.setswitchinterval(switch)
        try:
            rec, p = eta_study_record(rough, 0.00625, cutoffs, collar, plan,
                                      prev_p=prev)
        finally:
            sys.setswitchinterval(interval)
        assert rec == want
        assert np.array_equal(p, want_p)
        assert threading.active_count() == before


def test_no_thread_outlives_a_record(cutoffs, monkeypatch):
    # alpha = 1/3 with one dyadic level fails the compatibility check of
    # the solve at 32x64: a SolverError record.  A probe grid of side 10
    # has no core: the probe's MollifyError, raised beside that same solve,
    # wins
    curve = build_curve({"kind": "circle", "radius": 1.0}, 128)
    chart = InteriorChart(curve, 32, 64)
    collar = GeodesicChart(curve, cutoffs.delta, 32, 64)
    plan = build_pair_plan(chart.points, seed=0, n_random=200)
    before = threading.active_count()
    good = make_rough_stream(0.5, 0, 1, chart)
    rec, _ = eta_study_record(good, 0.0125, cutoffs, collar, plan)
    assert "error" not in rec and rec["divergence_max"] <= 1e-8
    assert threading.active_count() == before
    bad = make_rough_stream(1.0 / 3.0, 7, 1, chart)
    with pytest.raises(SolverError):
        eta_study_record(bad, 0.0125, cutoffs, collar, plan)
    assert threading.active_count() == before
    for rough in (good, bad):
        with pytest.raises(MollifyError, match="probe_n = 10"):
            eta_study_record(rough, 0.0125, cutoffs, collar, plan,
                             mollify_kwargs={"n_sub": 4, "probe_n": 10})
        assert threading.active_count() == before

    # a record runs psi on two threads: the caller's (the mollifier) and
    # one helper (the probe), which is joined before the record returns
    caller = threading.current_thread()
    threads = set()
    psi = good.psi

    def recorded(pts):
        threads.add(threading.current_thread())
        return psi(pts)

    monkeypatch.setattr(good, "psi", recorded)
    eta_study_record(good, 0.0125, cutoffs, collar, plan)
    assert caller in threads and len(threads) == 2
    assert not any(t.is_alive() for t in threads - {caller})
    assert threading.active_count() == before

    # an error of psi on the calling thread is raised once the helper is
    # joined
    class CallerError(Exception):
        pass

    def raising(pts):
        if threading.current_thread() is caller:
            raise CallerError
        return psi(pts)

    monkeypatch.setattr(good, "psi", raising)
    with pytest.raises(CallerError):
        eta_study_record(good, 0.0125, cutoffs, collar, plan)
    assert threading.active_count() == before


def test_tensor_square(disk_chart):
    u = rigid_field(disk_chart)
    sq = tensor_square(u)
    pts = disk_chart.points
    assert np.allclose(sq.values[..., 0], pts[..., 1] ** 2)
    assert np.allclose(sq.values[..., 1], -pts[..., 0] * pts[..., 1])
    assert np.allclose(sq.values[..., 2], pts[..., 0] ** 2)
