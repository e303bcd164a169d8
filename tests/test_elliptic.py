import numpy as np
import pytest

from pressure_lab.elliptic import (SlabOperator, SolverError, _StarStencil,
                                   solve_neumann)
from pressure_lab.fields import (InteriorChart, make_rough_stream,
                                 rhs_double_divergence, sample_velocity)
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
        self.gamma_b = 0.0
        self.J = np.ones((n_s + 1, 1))
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
    w = op.solve(op.rhs_from_source(F))
    s = chart.s[:, None]
    exact = (chart.delta**2 - s**2) / 2.0
    assert np.max(np.abs(w - exact)) < 1e-6 * np.max(exact)


def test_slab_flat_modes_match_dense_oracle():
    chart = _FlatChart(0.4, 2.0 * np.pi, 256, 256)
    op = SlabOperator(chart)
    for m in (1, 2, 4, 8):
        F = np.cos(2.0 * np.pi * m * chart.theta[None, :] / chart.length) \
            * np.ones((chart.n_s + 1, 1))
        w = op.solve(op.rhs_from_source(F))
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
    w = op.solve(b)
    # discrete flux convention: (w1 - w0)/h = g / J at the first face
    j_half = 1.0 - 0.5 * collar.h_s
    slope = (w[1] - w[0]) / collar.h_s
    assert np.max(np.abs(slope - 0.7 / j_half)) < 1e-8


def test_slab_curved_residual(collar, collar_fine):
    # the direct solve inverts matvec to rounding: measured 5.4e-14 at most
    for chart in (collar, collar_fine):
        op = SlabOperator(chart)
        rng = np.random.default_rng(0)
        F = rng.normal(size=(chart.n_s + 1, chart.n_theta))
        b = op.rhs_from_source(F)
        w = op.solve(b)
        res = np.linalg.norm(op.matvec(w[:chart.n_s]) - b) / np.linalg.norm(b)
        assert res <= 1e-13


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
    w = op.solve(b)
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


def test_green_column_is_the_point_load_solve(collar):
    # the same column as solve gives, bit for bit, from its own sweep
    op = SlabOperator(collar)
    for i0, j0 in [(0, 0), (20, 33), (collar.n_s - 1, collar.n_theta - 1)]:
        b = np.zeros((collar.n_s, collar.n_theta))
        b[i0, j0] = 1.0
        assert _bits_equal(op.green_column(i0, j0), op.solve(b))


def test_green_column_duality(collar):
    op = SlabOperator(collar)
    rng = np.random.default_rng(1)
    F = rng.normal(size=(collar.n_s + 1, collar.n_theta))
    b = op.rhs_from_source(F)
    w = op.solve(b)
    i0, j0 = 20, 33
    G = op.green_column(i0, j0)
    dual = np.sum(G[:collar.n_s] * b)
    assert abs(dual - w[i0, j0]) < 1e-9 * max(1.0, abs(w[i0, j0]))


def test_neumann_manufactured_quadratic(disk_chart):
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    p, _ = solve_neumann(f, g, disk_chart)
    exact = -(r**2) + 0.5
    diff = p.values - exact
    diff -= diff.mean()
    assert np.max(np.abs(diff)) < 1e-9


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
    # the oracle CG from a nonzero start reaches the solve's volume-mean-zero
    # solution from its zero start
    p1, _ = solve_neumann(f, g, disk_chart, tol=1e-12)
    x0 = np.sin(np.arange(f.size + 1) * 0.37)
    p2, *_ = _oracle_neumann(f, g, disk_chart, tol=1e-12, x0=x0)
    assert np.max(np.abs(p1.values - p2)) < 1e-8


def test_neumann_compatibility_defect_reported(disk_chart):
    # inconsistent data: int f = 4 pi, but the wall flux of g gives -4 pi.
    # The solve returns and reports the discrete defect, sum f vol +
    # f_pole vol_pole - sum g h_theta (8 pi here, the cells' volumes being
    # exact), and spreads it over the volume: f - 8 pi / pi = -4 with the
    # same g is consistent, and its pressure is r^2 - 1/2
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, -2.0)
    p, report = solve_neumann(f, g, disk_chart)
    st = _StarStencil(disk_chart)
    want = (float(np.sum(f * st.vol)) + 4.0 * st.vol_pole
            - float(np.sum(g * disk_chart.h_theta)))
    assert report.compat_defect == pytest.approx(want, rel=1e-14)
    assert report.compat_defect == pytest.approx(8.0 * np.pi, rel=1e-14)
    assert report.residual <= 1e-10
    assert np.max(np.abs(p.values - (r**2 - 0.5))) < 1e-4


def test_neumann_stall_raises(disk_chart):
    # a CG that runs out of iterations reports the relative residual of
    # its last one
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    with pytest.raises(SolverError, match="stalled at relative residual "
                       "[^ ]+ after 1 iterations") as info:
        solve_neumann(f, g, disk_chart, maxiter=1)
    reported = str(info.value).split()[-4]
    # a tolerance just above it stops the same first iteration
    _, rep = solve_neumann(f, g, disk_chart, tol=1.001 * float(reported),
                           maxiter=1)
    assert rep.iterations == 1
    assert f"{rep.residual:.3e}" == reported


@pytest.mark.parametrize("maxiter", [0, -1])
def test_neumann_rejects_maxiter_below_one(disk_chart, maxiter):
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    with pytest.raises(ValueError, match=f"maxiter = {maxiter} must be at "
                       "least 1"):
        solve_neumann(f, g, disk_chart, maxiter=maxiter)


def test_neumann_volume_mean_gauge(disk_chart):
    # the gauge: the volume mean of p, pole cell included, is zero
    r = disk_radii(disk_chart)
    f = np.full_like(r, 4.0)
    g = np.full(disk_chart.n_theta, 2.0)
    p, _ = solve_neumann(f, g, disk_chart)
    st = _StarStencil(disk_chart)
    total = float(np.sum(p.values * st.vol)) + p.pole * st.vol_pole
    assert abs(total) <= 1e-14 * np.max(np.abs(p.values))


# ----------------------------------------------------------------------
# oracle: the interior solve in its textbook form (np.roll stencil,
# allocating PCG), which the in-place solver must reproduce bit for bit
# ----------------------------------------------------------------------

def _roll_matvec(st, p, pole):
    out = np.zeros_like(p)
    flux = st.cs * (p[1:] - p[:-1])
    out[:-1] -= flux
    out[1:] += flux
    tflux = st.ct * (np.roll(p, -1, axis=1) - p)
    out -= tflux
    out += np.roll(tflux, 1, axis=1)
    pflux = st.cp * (p[0] - pole)
    out[0] += pflux
    return out, -float(np.sum(pflux))


def _oracle_pcg(apply_a, b, diag, tol=1e-10, maxiter=100_000, project=None,
                x0=None):
    """Returns (x, iterations, relative residual), from x0 or else zero."""
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if project is not None:
        project(x)
    r = b - apply_a(x)
    if project is not None:
        project(r)
    bnorm = float(np.linalg.norm(b))
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if project is not None:
            project(x)
            project(r)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            return x, it, rnorm / bnorm
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("oracle CG stalled")


def _flat_system(st, b, b_pole):
    diag = np.concatenate([st.diag.ravel(), [st.diag_pole]])
    return np.concatenate([b.ravel(), [b_pole]]), diag


def _oracle_neumann(f, g, chart, tol=1e-10, x0=None):
    """Volume-mean-zero solution of the Neumann problem: (p, pole, its, res);
    the oracle CG starts from x0 (grid values, then pole) or else zero."""
    st = _StarStencil(chart)
    b = f * st.vol
    b[-1] -= g * chart.h_theta
    b_pole = float(chart.pole_value(f)) * st.vol_pole
    total_vol = float(np.sum(st.vol)) + st.vol_pole
    defect = float(np.sum(b)) + b_pole
    b -= defect * st.vol / total_vol
    b_pole -= defect * st.vol_pole / total_vol
    bflat, diag = _flat_system(st, b, b_pole)

    def apply_a(vec):
        out, out_pole = _roll_matvec(st, vec[:-1].reshape(f.shape), vec[-1])
        return np.concatenate([out.ravel(), [out_pole]])

    def project(vec):
        vec -= vec.mean()

    x, its, res = _oracle_pcg(apply_a, bflat, diag, tol=tol, project=project,
                              x0=x0)
    p, pole = x[:-1].reshape(f.shape), float(x[-1])
    mean = (float(np.sum(p * st.vol)) + pole * st.vol_pole) / total_vol
    return p - mean + 0.0, pole - mean + 0.0, its, res


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("n", [5, 64])
def test_star_stencil_flat_kernel_matches_roll_form(circle, n):
    st = _StarStencil(InteriorChart(circle, n, 2 * n))
    rng = np.random.default_rng(n)
    for trial in range(4):
        p = rng.normal(size=(n, 2 * n))
        if trial == 3:                     # signed zeros and constant runs
            p[rng.random(p.shape) < 0.5] = 0.0
            p[rng.random(p.shape) < 0.25] = -0.0
        pole = (0.0, -0.0, 0.7, float(rng.normal()))[trial]
        got, got_pole = st.matvec(p, pole)
        ref, ref_pole = _roll_matvec(st, p, pole)
        assert _bits_equal(got, ref)
        assert _bits_equal(got_pole, ref_pole)


def _check_against_oracle(field, report, oracle):
    p, pole, its, res = oracle
    assert _bits_equal(field.values, p)
    assert _bits_equal(field.pole, pole)
    assert report.iterations == its
    assert report.residual == res


def test_neumann_rough_rhs_equals_textbook_pcg(disk_chart):
    # a rough field's pressure data at 64x128: about 490 CG iterations
    rough = make_rough_stream(1.0 / 3.0, 3, 2, disk_chart)
    u = sample_velocity(rough.velocity, disk_chart)
    f = rhs_double_divergence(u)
    _, tau, _, _ = disk_chart.collar_frame
    g = disk_chart.curve.curvature(disk_chart.theta) \
        * np.einsum("jk,jk->j", u.values[-1], tau[-1]) ** 2
    p, rep = solve_neumann(f, g, disk_chart)
    assert rep.iterations > 400
    _check_against_oracle(p, rep, _oracle_neumann(f, g, disk_chart))


def test_neumann_radial_square_equals_textbook_pcg(circle):
    # V = r^2 e_theta: p = r^4 / 4, -Delta p = -4 r^2, d_n p = gamma V^2 = -1
    chart = InteriorChart(circle, 32, 64)
    f = -4.0 * disk_radii(chart) ** 2
    g = np.full(chart.n_theta, -1.0)
    p, rep = solve_neumann(f, g, chart)
    _check_against_oracle(p, rep, _oracle_neumann(f, g, chart))
