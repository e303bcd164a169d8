import numpy as np
import pytest

from pressure_lab.fields import (FieldError, GridField, InteriorChart,
                                 StreamFunction, collar_components,
                                 divergence_collar, laplacian_collar,
                                 make_rough_stream, radial_flow,
                                 rhs_double_divergence, stream_to_velocity)

from pressure_lab.geometry import GeodesicChart, GeometryError, build_curve

from conftest import disk_radii


def test_interior_chart_rejects_non_disk():
    # no interior chart is built on a non-disk: its curve is refused first
    with pytest.raises(GeometryError, match="disks only"):
        InteriorChart(build_curve({"kind": "ellipse", "a": 2.0, "b": 1.0},
                                  256), 32, 64)


def test_chart_coords_closed_form_inverse(disk_chart, collar):
    # nodes map back to (rho_i, theta_j); theta is compared modulo L, since
    # the theta = 0 column may come back as L across the seam
    rho, th = disk_chart.chart_coords(disk_chart.points)
    L = disk_chart.curve.length
    assert np.max(np.abs(rho - disk_chart.rho[:, None])) <= 1e-14
    dth = (th - disk_chart.theta[None, :] + L / 2) % L - L / 2
    assert np.max(np.abs(dth)) <= 1e-14
    assert np.all((th >= 0.0) & (th <= L))
    # points just either side of the seam
    eps = 1e-9
    ang = np.array([eps, -eps]) / disk_chart.radius
    pts = disk_chart.center + 0.5 * np.stack([np.cos(ang), np.sin(ang)], -1)
    rho, th = disk_chart.chart_coords(pts)
    assert np.max(np.abs(th - np.array([eps, L - eps]))) <= 1e-14
    assert np.max(np.abs(rho - 0.5)) <= 1e-15
    # the boundary circle is rho = 1
    t = np.linspace(0.0, 2.0 * np.pi, 1001)
    circle = disk_chart.center + disk_chart.radius * np.stack(
        [np.cos(t), np.sin(t)], axis=-1)
    for pts in (circle, disk_chart.curve.x):
        assert np.max(np.abs(disk_chart.chart_coords(pts)[0] - 1.0)) <= 1e-15
    # the collar points x(theta) + s n(theta) map back to (s, theta)
    s, th = disk_chart.collar_coords(collar.X)
    assert np.max(np.abs(s - collar.s[:, None])) <= 1e-14
    dth = (th - collar.theta[None, :] + L / 2) % L - L / 2
    assert np.max(np.abs(dth)) <= 1e-14


def test_on_collar_matches_pointwise_interpolant(disk_chart, collar):
    # the tensor-grid resample equals the pointwise spline on every collar
    # row, the wall row s = 0 and the deepest row s = delta included
    r = disk_radii(disk_chart)
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    for values in (r**4 / 4.0 - 1.0 / 12.0,
                   rough.stream_field().field.values):
        grid = disk_chart.on_collar(values, collar)
        points = disk_chart.interpolant(values)(collar.X)
        assert grid.shape == (collar.n_s + 1, collar.n_theta)
        assert np.max(np.abs(grid - points)) <= 1e-12
    wide = GeodesicChart(build_curve({"kind": "circle", "radius": 2.0}, 256),
                         0.4, 16, 64)
    with pytest.raises(GeometryError, match="circle"):
        disk_chart.on_collar(r, wide)


def test_chart_gradient_exact_on_polynomials(disk_chart):
    pts = disk_chart.points
    f = pts[..., 0] ** 2 - 3.0 * pts[..., 0] * pts[..., 1]
    g = disk_chart.cart_gradient(f)
    gx = 2.0 * pts[..., 0] - 3.0 * pts[..., 1]
    gy = -3.0 * pts[..., 0]
    err = max(np.max(np.abs(g[..., 0] - gx)), np.max(np.abs(g[..., 1] - gy)))
    assert err < 5e-4


def test_stream_to_velocity_rigid(disk_chart):
    # psi = (1 - r^2)/2 has zero trace and grad^perp psi = (y, -x)
    r = disk_radii(disk_chart)
    psi = StreamFunction(GridField(disk_chart, (1.0 - r**2) / 2.0))
    u = stream_to_velocity(psi)
    pts = disk_chart.points
    expect = np.stack([pts[..., 1], -pts[..., 0]], axis=-1)
    assert np.max(np.abs(u.values - expect)) < 1e-10


def test_stream_function_requires_zero_trace(disk_chart):
    vals = np.ones((disk_chart.n_rho, disk_chart.n_theta))
    with pytest.raises(FieldError, match="vanish"):
        StreamFunction(GridField(disk_chart, vals))


def test_rigid_rotation_rhs(disk_chart):
    u = radial_flow(lambda r: r, disk_chart)
    f = rhs_double_divergence(u)
    assert np.max(np.abs(f - (-2.0))) < 1e-9


def test_radial_flow_pressure_oracle(disk_chart):
    flow_p = radial_flow(lambda r: r, disk_chart)
    from pressure_lab.fields import RadialFlow
    flow = RadialFlow(lambda r: r, 1.0)
    r = disk_radii(disk_chart)
    p = flow.pressure(disk_chart.points)
    assert np.max(np.abs(p - (r**2 / 2 - 0.25))) < 1e-6
    assert flow_p.is_vector


def test_rough_stream_determinism(disk_chart):
    a = make_rough_stream(0.5, 11, 2, disk_chart)
    b = make_rough_stream(0.5, 11, 2, disk_chart)
    pts = disk_chart.points
    assert np.array_equal(a.psi(pts), b.psi(pts))
    c = make_rough_stream(0.5, 12, 2, disk_chart)
    assert not np.array_equal(a.psi(pts), c.psi(pts))


@pytest.mark.parametrize("j_max", [0, 1, 2, 3])
def test_rough_stream_psi_is_pointwise(disk_chart_fine, j_max):
    # the mollifier evaluates psi on stacked (shift, point) pairs, which is
    # exact only if a point's value does not depend on the points beside it
    rough = make_rough_stream(1.0 / 3.0, 5, j_max, disk_chart_fine)
    rng = np.random.default_rng(j_max)
    pts = rng.uniform(-1.0, 1.0, (600, 2))
    stacked = rough.psi(pts)
    assert np.array_equal(stacked, [rough.psi(p) for p in pts])
    assert np.array_equal(stacked, np.concatenate(
        [rough.psi(pts[i:i + 7]) for i in range(0, len(pts), 7)]))
    assert np.array_equal(rough.psi(pts.reshape(20, 30, 2)),
                          stacked.reshape(20, 30))
    # the modes are added as np.sum adds them (on two or more points: a
    # lone row takes another BLAS path, whose products add the other way)
    rel = pts - rough.center
    phase = np.tensordot(rel, (rough.freqs[:, None] * rough.dirs).T,
                         axes=1) + rough.phases
    beta = 1.0 - (rel[..., 0] ** 2 + rel[..., 1] ** 2) / rough.radius**2
    old = beta * np.sum(rough.amps * np.sin(phase), axis=-1)
    assert np.array_equal(stacked, old)
    assert np.array_equal(np.signbit(stacked), np.signbit(old))


@pytest.mark.parametrize("j_max", [0, 2])
def test_rough_stream_grad_psi_is_pointwise(disk_chart_fine, j_max):
    # a lone point (the pole of velocity_field) takes the value it has
    # among others
    rough = make_rough_stream(1.0 / 3.0, 5, j_max, disk_chart_fine)
    rng = np.random.default_rng(j_max)
    pts = rng.uniform(-1.0, 1.0, (600, 2))
    stacked = rough.grad_psi(pts)
    assert stacked.shape == (600, 2)
    assert np.array_equal(stacked, [rough.grad_psi(p) for p in pts])
    assert np.array_equal(stacked, np.concatenate(
        [rough.grad_psi(pts[i:i + 7]) for i in range(0, len(pts), 7)]))
    assert np.array_equal(rough.grad_psi(pts.reshape(20, 30, 2)),
                          stacked.reshape(20, 30, 2))
    pole = rough.velocity_field().pole
    assert np.array_equal(pole, rough.velocity(np.stack(
        [rough.center, pts[0]]))[0])


def test_rough_stream_boundary_values(disk_chart):
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    psi = rough.stream_field()
    assert np.max(np.abs(psi.field.values[-1])) == 0.0
    u = rough.velocity_field()
    outward = disk_chart.points[-1]
    assert np.max(np.abs(np.einsum("jk,jk->j", u.values[-1], outward))) < 1e-12


def test_rough_stream_gradient_consistency(disk_chart):
    rough = make_rough_stream(0.5, 3, 1, disk_chart)
    pts = np.array([[0.3, -0.2], [0.0, 0.5], [-0.4, -0.4]])
    h = 1e-6
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = h
        fd = (rough.psi(pts + dp) - rough.psi(pts - dp)) / (2.0 * h)
        assert np.max(np.abs(fd - rough.grad_psi(pts)[:, k])) < 1e-7


def test_rough_stream_resolution_guard(circle):
    coarse = InteriorChart(circle, 8, 16)
    with pytest.raises(FieldError, match="under-resolved"):
        make_rough_stream(0.5, 0, 4, coarse)


def test_rough_stream_alpha_guard(disk_chart):
    with pytest.raises(FieldError):
        make_rough_stream(1.5, 0, 1, disk_chart)


def test_collar_components_rigid(collar):
    def uu(pts):
        return np.stack([-pts[..., 1], pts[..., 0]], axis=-1)
    un, ut = collar_components(uu, collar)
    assert np.max(np.abs(un)) < 1e-12
    assert np.max(np.abs(ut - (1.0 - collar.s[:, None]))) < 1e-12


def test_divergence_collar_zero_for_rigid(collar):
    def uu(pts):
        return np.stack([-pts[..., 1], pts[..., 0]], axis=-1)
    un, ut = collar_components(uu, collar)
    vals = (un[..., None] * collar.n_b[None]
            + ut[..., None] * collar.tau_b[None])
    div = divergence_collar(GridField(collar, vals))
    assert np.max(np.abs(div)) < 1e-10


def test_laplacian_collar_quadratic(collar):
    # q = (1-s)^2 = r^2 on the disk has Laplacian 4
    q = (1.0 - collar.s[:, None]) ** 2 * np.ones((1, collar.n_theta))
    lap = laplacian_collar(q, collar)
    assert np.max(np.abs(lap - 4.0)) < 1e-8
