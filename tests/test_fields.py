import numpy as np
import pytest

from pressure_lab.fields import (_THETA_PAD, FieldError, GridField,
                                 InteriorChart, RadialFlow,
                                 collar_components, make_rough_stream,
                                 radial_flow, rhs_double_divergence,
                                 sample_velocity)

from pressure_lab.geometry import GeodesicChart, GeometryError, build_curve

from conftest import disk_radii


def test_interior_chart_rejects_non_disk():
    # no interior chart is built on a non-disk: its curve is refused first
    with pytest.raises(GeometryError, match="disks only"):
        InteriorChart(build_curve({"kind": "ellipse", "a": 2.0, "b": 1.0},
                                  256), 32, 64)


def test_on_collar_matches_pointwise_interpolant(disk_chart, collar):
    # the two weight matrices equal scipy's bicubic s = 0 spline through the
    # same data (pole row, periodic theta pad), evaluated point by point on
    # every collar row, the wall row s = 0 and the deepest row s = delta
    # included
    interpolate = pytest.importorskip("scipy.interpolate")
    r = disk_radii(disk_chart)
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    # chart coordinates of the collar points, in closed form
    rel = collar.X - disk_chart.center
    rho = np.linalg.norm(rel, axis=-1) / disk_chart.radius
    theta = (np.arctan2(rel[..., 1], rel[..., 0]) * disk_chart.radius) \
        % disk_chart.curve.length
    p, L = _THETA_PAD, disk_chart.curve.length
    rho_nodes = np.concatenate([[0.0], disk_chart.rho])
    th_nodes = np.concatenate([disk_chart.theta[-p:] - L, disk_chart.theta,
                               disk_chart.theta[:p] + L])
    for values in (r**4 / 4.0 - 1.0 / 12.0, rough.psi(disk_chart.points)):
        data = np.vstack([np.full(disk_chart.n_theta,
                                  disk_chart.pole_value(values)), values])
        data = np.concatenate([data[:, -p:], data, data[:, :p]], axis=1)
        oracle = interpolate.RectBivariateSpline(rho_nodes, th_nodes, data,
                                                 kx=3, ky=3)
        grid = disk_chart.on_collar(values, collar)
        points = oracle(np.clip(rho, 0.0, 1.0), theta, grid=False)
        assert grid.shape == (collar.n_s + 1, collar.n_theta)
        assert np.max(np.abs(grid - points)) <= 1e-12
    wide = GeodesicChart(build_curve({"kind": "circle", "radius": 2.0}, 256),
                         0.4, 16, 64)
    with pytest.raises(GeometryError, match="circle"):
        disk_chart.on_collar(r, wide)


def test_on_collar_reproduces_cubics_and_nodes(circle):
    chart = InteriorChart(circle, 32, 64)
    h = chart.h_rho
    # a cubic in rho, constant in theta, on collar rows between the rings
    # (16 rows over delta = 0.4, 96 columns); its odd part rho^3 + 2 h^2 rho
    # has even Richardson pole value (4 f(h) - f(2h)) / 3 = f(0), so the pole
    # row is exact too and the not-a-knot spline reproduces the cubic
    cubic = lambda x: 0.3 - x**2 + 0.7 * (x**3 + 2.0 * h * h * x)
    between = GeodesicChart(circle, 0.4, 16, 96)
    got = chart.on_collar(np.repeat(cubic(chart.rho)[:, None], 64, axis=1),
                          between)
    want = cubic(1.0 - between.s)[:, None]
    assert got.shape == (17, 96)
    assert np.max(np.abs(got - want)) < 1e-13
    # a collar whose rows are the outer 13 rings (s = i h) and whose theta
    # nodes are the chart's: the resample returns the node values
    on_nodes = GeodesicChart(circle, 12 * h, 12, 64)
    values = make_rough_stream(1.0 / 3.0, 7, 1, chart).psi(chart.points)
    got = chart.on_collar(values, on_nodes)
    assert np.max(np.abs(got - values[::-1][:13])) < 1e-13
    # a vector's components are resampled together as each is alone
    both = chart.on_collar(np.stack([values, 2.0 * values], axis=-1), between)
    assert both.shape == (17, 96, 2)
    one = chart.on_collar(values, between)
    assert np.max(np.abs(both - np.stack([one, 2.0 * one], axis=-1))) < 1e-13


def test_chart_gradient_exact_on_polynomials(disk_chart):
    pts = disk_chart.points
    f = pts[..., 0] ** 2 - 3.0 * pts[..., 0] * pts[..., 1]
    partials = disk_chart.chart_partials(f)
    gx = 2.0 * pts[..., 0] - 3.0 * pts[..., 1]
    gy = -3.0 * pts[..., 0]
    err = max(np.max(np.abs(disk_chart.cart_component(partials, 0) - gx)),
              np.max(np.abs(disk_chart.cart_component(partials, 1) - gy)))
    assert err < 5e-4


def test_rigid_rotation_rhs(disk_chart):
    u = radial_flow(lambda r: r, disk_chart)
    f = rhs_double_divergence(u)
    assert np.max(np.abs(f - (-2.0))) < 1e-9


def test_radial_flow_pressure_oracle(disk_chart):
    flow_p = radial_flow(lambda r: r, disk_chart)
    flow = RadialFlow(lambda r: r, 1.0)
    r = disk_radii(disk_chart)
    p = flow.pressure(disk_chart.points)
    assert np.max(np.abs(p - (r**2 / 2 - 0.25))) < 1e-6
    assert flow_p.is_vector


@pytest.mark.parametrize("profile", [lambda r: r, lambda r: r**2],
                         ids=["rigid", "radial2"])
def test_radial_flow_psi_wall_and_curl(disk_chart, profile):
    flow = RadialFlow(profile, 1.0)
    # psi(R) = 0: exactly at points of radius R, to rounding on the wall row
    assert np.array_equal(flow.psi(np.array([[1.0, 0.0], [0.0, -1.0]])),
                          [0.0, 0.0])
    assert np.max(np.abs(flow.psi(disk_chart.points[-1]))) < 1e-15
    # grad^perp psi by centred differences of step d = 1e-2 within 5e-5:
    # the truncation, d^2/6 times the third derivative of psi, is 3.3e-5
    # for V = r^2, and the linear interpolation of the 2000-point
    # quadrature adds under 2e-6
    pts, d = disk_chart.points[:-1], 1e-2
    ex, ey = np.array([d, 0.0]), np.array([0.0, d])
    curl = np.stack([-(flow.psi(pts + ey) - flow.psi(pts - ey)),
                     flow.psi(pts + ex) - flow.psi(pts - ex)], axis=-1)
    assert np.max(np.abs(curl / (2.0 * d) - flow.velocity(pts))) < 5e-5


def test_rigid_rotation_psi_closed_form(disk_chart):
    # psi = (r^2 - R^2)/2; the trapezoid rule is exact for V = r, and the
    # linear interpolation between quadrature points errs by h^2/8 = 3.1e-8
    psi = RadialFlow(lambda r: r, 1.0).psi(disk_chart.points)
    r = disk_radii(disk_chart)
    assert np.max(np.abs(psi - (r**2 - 1.0) / 2.0)) < 4e-8


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
    # the samplers pass a (K, N, 2) view of a component-major array
    by_component = np.ascontiguousarray(np.moveaxis(pts, -1, 0))
    assert np.array_equal(rough.psi(np.moveaxis(by_component, 0, -1)),
                          stacked)
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
    # a lone point (the pole of sample_velocity) takes the value it has
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
    pole = sample_velocity(rough.velocity, disk_chart_fine).pole
    assert np.array_equal(pole, rough.velocity(np.stack(
        [rough.center, pts[0]]))[0])


def test_rough_stream_boundary_values(disk_chart):
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    # beta = 1 - r^2/R^2 vanishes on the wall up to rounding: 3.9e-16 here,
    # and at most 5.4e-16 over 4 alphas x 8 seeds x j_max 1, 2 on the
    # 32x64, 64x128 and 128x256 grids
    assert np.max(np.abs(rough.psi(disk_chart.points[-1]))) <= 1e-15
    u = sample_velocity(rough.velocity, disk_chart)
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


def test_collar_components_resample_once_per_field(disk_chart, collar):
    pts = disk_chart.points
    first = GridField(disk_chart, np.stack([pts[..., 1], -pts[..., 0]], -1))
    un, ut = collar_components(first, collar)
    again = collar_components(first, collar)
    assert again[0] is un and again[1] is ut
    assert not un.flags.writeable and not ut.flags.writeable
    # fields made after a field is dropped may reuse its id; each one gets
    # the components of its own values
    for k in range(1, 4):
        other = GridField(disk_chart, (1.0 + k) * first.values)
        got = collar_components(other, collar)
        fresh = collar_components(GridField(disk_chart, other.values.copy()),
                                  collar)
        assert np.array_equal(got[0], fresh[0])
        assert np.array_equal(got[1], fresh[1])
        assert not np.array_equal(got[1], ut)
        del other, got
    # another collar object gets its own resample
    coarse = GeodesicChart(collar.curve, collar.delta, 16, 32)
    assert collar_components(first, coarse)[0].shape == (17, 32)
    assert np.array_equal(collar_components(first, collar)[1], ut)
