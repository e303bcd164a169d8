"""End-to-end acceptance checks: analytic oracles, refinement orders, the
mollification invariants, and the measured boundedness of the pressure map
on rough velocity ensembles.  Tolerances are frozen; see the module tests
for finer-grained diagnostics when one of these fails.
"""

import time

import numpy as np
import pytest

from pressure_lab._fourier import fourier_diff
from pressure_lab.elliptic import SlabOperator, solve_neumann
from pressure_lab.fields import RadialFlow, make_rough_stream, radial_flow
from pressure_lab.geometry import GeodesicChart, build_curve
from pressure_lab.mollify import divergence_probe, mollify_velocity
from pressure_lab.norms import (build_pair_plan, c0_distance, h_minus2_norm,
                                holder_norm)
from pressure_lab.pressure import (_collar_resample, bc_equivalence_check,
                                   boundary_trace, eta_study, sanss2_rhs,
                                   solve_pressure, split_Pb)

from conftest import disk_radii
from test_elliptic import _dense_mode_solve, _FlatChart
from test_pressure import (_stream_pair, rigid_field, rigid_P_collar,
                           rigid_velocity)

ETAS = [0.0125, 0.00625, 0.003125]


def _solve_on(chart, collar, cutoffs, profile):
    u = radial_flow(profile, chart)
    return solve_pressure(u, collar=collar, cutoffs=cutoffs)


# 1 -- geometry oracles ------------------------------------------------------

def test_01_geometry_oracles():
    t0 = time.perf_counter()
    curve = build_curve({"kind": "circle", "radius": 1.0}, 512)
    tau = curve.tangent(curve.theta)
    n = np.stack([-tau[:, 1], tau[:, 0]], axis=-1)
    ndot = np.stack([fourier_diff(n[:, 0], curve.length),
                     fourier_diff(n[:, 1], curve.length)], axis=-1)
    frenet = np.max(np.linalg.norm(ndot - curve.gamma[:, None] * tau, axis=-1))
    assert frenet <= 1e-6
    collar = GeodesicChart(curve, 0.2, 16, 512)
    dX = np.stack([fourier_diff(collar.X[..., 0], curve.length, axis=1),
                   fourier_diff(collar.X[..., 1], curve.length, axis=1)],
                  axis=-1)
    metric = np.max(np.abs(np.linalg.norm(dX, axis=-1) - collar.J))
    assert metric <= 1e-6
    assert np.max(np.abs(curve.gamma + 1.0)) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


# 2, 3 -- radial pressure oracles -------------------------------------------

def test_02_rigid_rotation_pressure(disk_chart_fine, cutoffs, collar_fine):
    t0 = time.perf_counter()
    sol = _solve_on(disk_chart_fine, collar_fine, cutoffs, lambda r: r)
    exact = disk_radii(disk_chart_fine) ** 2 / 2.0 - 0.25
    assert np.max(np.abs(sol.p.values - exact)) <= 1e-3
    q = _collar_resample(sol.p, collar_fine)
    dn = (q[1] - q[0]) / collar_fine.h_s      # depth s grows inward: d_n = d_s
    assert np.max(np.abs(dn - (-1.0))) <= 5e-2
    assert time.perf_counter() - t0 < 30.0


def test_03_radial_quadratic_pressure(disk_chart_fine, cutoffs, collar_fine):
    sol = _solve_on(disk_chart_fine, collar_fine, cutoffs, lambda r: r ** 2)
    exact = disk_radii(disk_chart_fine) ** 4 / 4.0 - 1.0 / 12.0
    assert np.max(np.abs(sol.p.values - exact)) <= 1e-3


# 4 -- manufactured Neumann convergence --------------------------------------

def test_04_manufactured_neumann_order(disk_chart, disk_chart_fine):
    errs = []
    for chart in (disk_chart, disk_chart_fine):
        r = disk_radii(chart)
        f = np.full_like(r, 4.0)
        g = np.full(chart.n_theta, 2.0)
        p, _ = solve_neumann(f, g, chart, tol=1e-12)
        exact = -(r ** 2) + 0.5               # volume mean zero on the disk
        errs.append(np.max(np.abs(p.values - exact)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


# 5 -- slab solver vs per-mode dense oracle ----------------------------------

def test_05_slab_vs_mode_oracle():
    chart = _FlatChart(0.4, 2.0 * np.pi, 256, 256)
    op = SlabOperator(chart)
    F = np.ones((chart.n_s + 1, chart.n_theta))
    w = op.solve(op.rhs_from_source(F))
    exact = (chart.delta ** 2 - chart.s[:, None] ** 2) / 2.0
    assert np.max(np.abs(w - exact)) / np.max(np.abs(exact)) <= 1e-6
    for m in (1, 2, 4, 8):
        F = np.cos(2.0 * np.pi * m * chart.theta / chart.length)
        F = np.broadcast_to(F, (chart.n_s + 1, chart.n_theta)).copy()
        w = op.solve(op.rhs_from_source(F))
        oracle = _dense_mode_solve(op, chart, m)
        profile = w[:chart.n_s, 0] / F[0, 0]
        rel = np.max(np.abs(profile - oracle)) / np.max(np.abs(oracle))
        assert rel <= 1e-6


# 6 -- Neumann uniqueness ----------------------------------------------------

def test_06_neumann_uniqueness(disk_chart):
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    p1, _ = solve_neumann(f, g, disk_chart, tol=1e-12)
    x0 = np.cos(np.arange(f.size + 1) * 0.61)
    p2, _ = solve_neumann(f, g, disk_chart, tol=1e-12, x0=x0)
    assert np.max(np.abs(p1.values - p2.values)) <= 1e-8


# 7 -- geodesic flux identity ------------------------------------------------

@pytest.mark.parametrize("psi_str", ["(1 - x**2 - y**2)*x",
                                     "(1 - x**2 - y**2)*sin(x + 2*y)"])
def test_07_collar_flux_refinement(circle, psi_str):
    from pressure_lab.pressure import collar_flux_residual
    velocity, reference = _stream_pair(psi_str)
    errs = []
    for n_s, n_theta in [(32, 128), (64, 256)]:
        cc = GeodesicChart(circle, 0.4, n_s, n_theta)
        res = collar_flux_residual(velocity, reference, cc)
        errs.append(np.max(np.abs(res[2:-2])))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


# 8 -- second-s-derivative-free source ---------------------------------------

def test_08_sanss2_consistency(circle, cutoffs):
    errs = []
    for n_s, n_theta in [(64, 128), (128, 256)]:
        cc = GeodesicChart(circle, cutoffs.delta, n_s, n_theta)
        s = cc.s[:, None]
        P = np.exp(-2.0 * s) * (1.0 + 0.5 * np.cos(2.0 * cc.theta))
        dP = -2.0 * P
        values, audit = sanss2_rhs(rigid_velocity, P, cutoffs, cc)
        assert audit["second_s_derivative_free"]
        assert audit["max_s_derivative_order"] == 1
        exact = (-2.0 * cutoffs.phi_b(s) - cutoffs.phi_b_d2(s) * P
                 - 2.0 * cutoffs.phi_b_d1(s) * dP
                 + cutoffs.phi_b_d1(s) * P / (1.0 - s))
        errs.append(np.max(np.abs((values - exact)[1:-1])))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


# 9 -- mollifier suite -------------------------------------------------------

@pytest.mark.slow
def test_09_mollifier_suite(disk_chart, cutoffs, collar):
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=20000)
    for alpha in (0.25, 1.0 / 3.0, 0.5, 0.75):
        for seed in range(5):
            rough = make_rough_stream(alpha, seed, 2, disk_chart)
            u = rough.velocity_field()
            base = holder_norm(u, alpha, plan).norm
            c0_steps = []
            for eta in ETAS:
                rv = mollify_velocity(rough.psi, disk_chart, eta, cutoffs,
                                      collar)
                assert rv.trace_max <= 1e-10
                assert rv.tangency_max <= 1e-8
                assert divergence_probe(rough.psi, disk_chart, eta,
                                        cutoffs) <= 1e-8
                ratio = holder_norm(rv.u_eta, alpha, plan).norm / base
                assert ratio <= 5.0
                c0_steps.append(c0_distance(rv.u_eta.values, u.values))
            assert c0_steps[0] > c0_steps[1] > c0_steps[2]


# 10 -- measured boundedness of the pressure map -----------------------------

@pytest.mark.slow
def test_10_pressure_map_boundedness(disk_chart, cutoffs, collar):
    t0 = time.perf_counter()
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=20000)
    fields = [make_rough_stream(alpha, seed, 2, disk_chart)
              for alpha in (0.25, 1.0 / 3.0, 0.5, 0.75)
              for seed in range(20)]
    ledger = eta_study(fields, ETAS, cutoffs, collar, plan)
    assert len(ledger.records) == len(fields) * len(ETAS)
    for rec in ledger.records:
        assert "error" not in rec, rec
        assert np.isfinite(rec["C_meas"])
    for key, cvals in ledger.per_field("C_meas").items():
        assert len(cvals) == len(ETAS)
        assert max(cvals) / min(cvals) <= 2.0, key
    for key, c1vals in ledger.per_field("C1_meas").items():
        assert max(c1vals) <= 2.0 * float(np.median(c1vals)), key
    assert time.perf_counter() - t0 < 1800.0


# 11 -- boundary trace -------------------------------------------------------

def test_11_trace_smooth(disk_chart_fine, cutoffs, collar_fine):
    for profile in (lambda r: r, lambda r: r ** 2):
        sol = _solve_on(disk_chart_fine, collar_fine, cutoffs, profile)
        u = radial_flow(profile, disk_chart_fine)
        tc = boundary_trace(_collar_resample(sol.P, collar_fine), u,
                            collar_fine)
        assert np.all(np.diff(tc.distances) < 0)
        assert tc.wall_distance <= 5e-2


def test_11_trace_rough(disk_chart, cutoffs, collar):
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    rv = mollify_velocity(rough.psi, disk_chart, 0.0125, cutoffs, collar)
    sol = solve_pressure(rv, chart=disk_chart, collar=collar, cutoffs=cutoffs)
    tc = boundary_trace(_collar_resample(sol.P, collar), rv.u_eta, collar)
    assert np.all(np.isfinite(tc.distances))
    assert tc.slope < 0.0


# 12 -- boundary-condition equivalence ---------------------------------------

def test_12_bc_equivalence(disk_chart, disk_chart_fine, cutoffs,
                           collar, collar_fine):
    # V = r^2: pressure r^4/4 is not quadratic in s, so the defect is O(h^2).
    # Rigid: quadratic pressure, exact stencil, CG residual only; absolute.
    flow = RadialFlow(lambda r: r ** 2, 1.0)
    defects = []
    for chart, cc in [(disk_chart, collar), (disk_chart_fine, collar_fine)]:
        sol = _solve_on(chart, cc, cutoffs, flow.profile)
        defects.append(bc_equivalence_check(sol.p, flow.velocity, cc))
        sol = solve_pressure(rigid_field(chart), collar=cc, cutoffs=cutoffs)
        assert bc_equivalence_check(sol.p, rigid_velocity, cc) <= 1e-8
    assert defects[1] <= 5e-2
    assert defects[1] <= 0.65 * defects[0]


# 13 -- boundary-piece decomposition and Green terms -------------------------

def test_13_split_and_green_terms(cutoffs, collar_fine):
    split = split_Pb(rigid_velocity, rigid_P_collar(collar_fine), cutoffs,
                     collar_fine, n_probes=10, seed=0)
    assert split.reconstruction_error <= 2e-3
    assert split.green_sum_error <= 5e-3


# 14 -- negative-norm unit oracle --------------------------------------------

def test_14_h_minus2_oracle():
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    est = h_minus2_norm(np.cos(theta), 2.0 * np.pi)
    assert abs(est - 1.0 / (2.0 * np.sqrt(2.0))) <= 1e-12


# 15 -- byte-identical study ledgers -----------------------------------------

def test_15_reproducible_ledger(tmp_path):
    from pressure_lab.cli import main
    args = ["study",
            "--set", "domain.nodes=128",
            "--set", "grid.n_rho=32", "--set", "grid.n_theta=64",
            "--set", "grid.collar_n_s=32", "--set", "grid.collar_n_theta=64",
            "--set", "norms.n_random=2000",
            "--set", "study.alphas=[0.5]", "--set", "study.seeds=[0, 1]",
            "--set", "study.etas=[0.0125, 0.00625]",
            "--set", "field.j_max=1", "--jobs", "1"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "ledger.csv").read_bytes()
            == (tmp_path / "b" / "ledger.csv").read_bytes())
