import numpy as np
import pytest

from pressure_lab.elliptic import (SlabOperator, SolverError,
                                   green_kernel_image,
                                   solve_dirichlet_stream, solve_neumann)
from pressure_lab.fields import GridField, InteriorChart
from pressure_lab.geometry import GeodesicChart, GeometryError, build_curve

from conftest import disk_radii


class _FlatChart:
    """Collar chart stand-in with gamma = 0 (straight periodic slab)."""

    def __init__(self, delta, length, n_s, n_theta):
        self.delta = float(delta)
        self.n_s = int(n_s)
        self.n_theta = int(n_theta)
        self.s = self.delta * np.arange(n_s + 1) / n_s
        self.h_s = self.delta / n_s
        self.h_theta = length / n_theta
        self.theta = np.arange(n_theta) * self.h_theta
        self.gamma_b = np.zeros(n_theta)
        self.J = np.ones((n_s + 1, n_theta))
        self.length = float(length)


def _dense_mode_solve(op, chart, m, amplitude=1.0):
    """Independent dense oracle: assemble the per-mode tridiagonal system
    for F = cos(2 pi m theta / L) directly from the finite-volume fluxes."""
    ns = chart.n_s
    h, ht = chart.h_s, chart.h_theta
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * m / chart.n_theta)
    height = np.full(ns, h)
    height[0] = h / 2.0
    A = np.zeros((ns, ns))
    cs = ht / h                                   # J = 1 on the flat chart
    ct = height / ht
    for i in range(ns):
        if i > 0:
            A[i, i] += cs
            A[i, i - 1] -= cs
        if i < ns - 1:
            A[i, i] += cs
            A[i, i + 1] -= cs
        else:
            A[i, i] += cs                         # Dirichlet neighbor = 0
        A[i, i] += ct[i] * lam
    b = amplitude * height * ht
    return np.linalg.solve(A, b)


def test_slab_flat_constant_source():
    chart = _FlatChart(0.4, 2.0 * np.pi, 256, 256)
    op = SlabOperator(chart)
    F = np.ones((chart.n_s + 1, chart.n_theta))
    w, rep = op.solve(op.rhs_from_source(F))
    s = chart.s[:, None]
    exact = (chart.delta**2 - s**2) / 2.0
    assert np.max(np.abs(w - exact)) < 1e-6 * np.max(exact)


def test_slab_flat_modes_match_dense_oracle():
    chart = _FlatChart(0.4, 2.0 * np.pi, 256, 256)
    op = SlabOperator(chart)
    for m in (1, 2, 4, 8):
        F = np.cos(2.0 * np.pi * m * chart.theta[None, :] / chart.length) \
            * np.ones((chart.n_s + 1, 1))
        w, _ = op.solve(op.rhs_from_source(F))
        profile = _dense_mode_solve(op, chart, m)
        recon = profile[:, None] * np.cos(
            2.0 * np.pi * m * chart.theta[None, :] / chart.length)
        rel = np.max(np.abs(w[:chart.n_s] - recon)) / np.max(np.abs(recon))
        assert rel < 1e-6, f"mode {m}: rel err {rel}"


def test_slab_neumann_wall_slope(collar):
    op = SlabOperator(collar)
    g = np.full(collar.n_theta, 0.7)
    b = op.rhs_from_source(np.zeros((collar.n_s + 1, collar.n_theta)),
                           neumann=g)
    w, _ = op.solve(b)
    # discrete flux convention: (w1 - w0)/h = g / J at the first face
    j_half = 1.0 - 0.5 * collar.h_s
    slope = (w[1] - w[0]) / collar.h_s
    assert np.max(np.abs(slope - 0.7 / j_half)) < 1e-8


def test_slab_curved_residual(collar):
    op = SlabOperator(collar)
    rng = np.random.default_rng(0)
    F = rng.normal(size=(collar.n_s + 1, collar.n_theta))
    b = op.rhs_from_source(F)
    w, rep = op.solve(b)
    res = np.linalg.norm(op.matvec(w[:collar.n_s]) - b) / np.linalg.norm(b)
    assert res < 1e-9
    assert rep.converged


def test_slab_solve_matches_dense_matvec_all_modes(circle):
    # the dense matrix of matvec reaches every theta-mode, mode 0 and the
    # Nyquist mode m = n_theta/2 included
    collar = GeodesicChart(circle, 0.4, 16, 32)
    op = SlabOperator(collar)
    shape = (collar.n_s, collar.n_theta)
    n = shape[0] * shape[1]
    A = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        A[:, k] = op.matvec(e.reshape(shape)).ravel()
    b = np.random.default_rng(3).normal(size=shape)
    w, _ = op.solve(b)
    exact = np.linalg.solve(A, b.ravel()).reshape(shape)
    assert np.max(np.abs(w[:collar.n_s] - exact)) <= 1e-12 * np.max(np.abs(exact))
    assert np.all(w[collar.n_s] == 0.0)
    pivots, _ = op._factors
    assert pivots.shape == (collar.n_s, collar.n_theta // 2 + 1)
    assert np.all(pivots > 0.0)


def test_green_columns_reuse_one_factorization(collar):
    op = SlabOperator(collar)
    op.green_column(0, 0)
    factors = op._factors
    for k in range(1, 10):
        op.green_column(k, 7 * k)
    assert op._factors is factors


def test_slab_rejects_non_disk_collar():
    # the per-mode solve needs the disk's constant curvature; no non-disk
    # collar reaches SlabOperator, since its curve is refused first
    with pytest.raises(GeometryError, match="disks only"):
        SlabOperator(GeodesicChart(
            build_curve({"kind": "ellipse", "a": 2.0, "b": 1.0}, 256),
            0.2, 16, 128))


def test_green_column_duality(collar):
    op = SlabOperator(collar)
    rng = np.random.default_rng(1)
    F = rng.normal(size=(collar.n_s + 1, collar.n_theta))
    b = op.rhs_from_source(F)
    w, _ = op.solve(b)
    i0, j0 = 20, 33
    G = op.green_column(i0, j0)
    dual = np.sum(G[:collar.n_s] * b)
    assert abs(dual - w[i0, j0]) < 1e-9 * max(1.0, abs(w[i0, j0]))


def test_neumann_manufactured_quadratic(disk_chart):
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    p, rep = solve_neumann(f, g, disk_chart)
    exact = -(r**2) + 0.5
    diff = p.values - exact
    diff -= diff.mean()
    assert np.max(np.abs(diff)) < 1e-9
    assert rep.converged


def test_neumann_quartic_second_order(circle):
    # p = r^4: -Delta p = -16 r^2, d_n p = -4; genuinely inexact stencil
    errs = {}
    for n in (32, 64):
        chart = InteriorChart(circle, n, 2 * n)
        r = disk_radii(chart)
        p, _ = solve_neumann(-16.0 * r**2, np.full(chart.n_theta, -4.0),
                             chart)
        exact = r**4
        diff = p.values - exact
        errs[n] = np.max(np.abs(diff - diff.mean()))
    assert 3.0 < errs[32] / errs[64] < 5.0


def test_neumann_uniqueness_from_two_starts(disk_chart):
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    p1, _ = solve_neumann(f, g, disk_chart, tol=1e-12)
    x0 = np.sin(np.arange(f.size + 1) * 0.37)
    p2, _ = solve_neumann(f, g, disk_chart, tol=1e-12, x0=x0)
    assert np.max(np.abs(p1.values - p2.values)) < 1e-8


def test_neumann_compatibility_guard(disk_chart):
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, -2.0)       # flux badly inconsistent
    with pytest.raises(SolverError, match="compatibility"):
        solve_neumann(f, g, disk_chart)


def test_neumann_mean_target(disk_chart):
    # mean_target shifts the volume-mean gauge by a constant
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    p0, _ = solve_neumann(f, g, disk_chart, mean_target=0.0)
    p15, _ = solve_neumann(f, g, disk_chart, mean_target=1.5)
    assert np.max(np.abs(p15.values - p0.values - 1.5)) < 1e-8


def test_dirichlet_stream_oracle(disk_chart):
    # -Delta psi = 4, psi(boundary) = 0 -> psi = 1 - r^2
    omega = np.full((disk_chart.n_rho, disk_chart.n_theta), 4.0)
    psi, rep = solve_dirichlet_stream(omega, disk_chart)
    r = disk_radii(disk_chart)
    assert np.max(np.abs(psi.field.values - (1.0 - r**2))) < 1e-9
    assert rep.converged


def test_green_kernel_image_symmetry():
    v1 = green_kernel_image(0.1, 1.0, 0.2, 2.0)
    v2 = green_kernel_image(0.2, 2.0, 0.1, 1.0)
    assert abs(v1 - v2) < 1e-14
    # image across the wall doubles the kernel at s = s' = 0; the kernel
    # is (1/4 pi) log 1/d^2 per term
    near_wall = green_kernel_image(1e-6, 0.0, 1e-6, 0.5)
    direct = -np.log(0.25) / (4.0 * np.pi)
    assert abs(near_wall - 2.0 * direct) < 1e-4
