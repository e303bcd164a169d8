import numpy as np
import pytest

from pressure_lab.geometry import (GeodesicChart, GeometryError, build_curve,
                                   build_cutoffs)


def test_circle_curvature_and_length():
    curve = build_curve({"kind": "circle", "radius": 1.0}, 512)
    assert abs(curve.length - 2.0 * np.pi) < 1e-10
    assert np.max(np.abs(curve.gamma + 1.0)) < 1e-10


def test_circle_radius_two():
    curve = build_curve({"kind": "circle", "radius": 2.0}, 256)
    assert abs(curve.length - 4.0 * np.pi) < 1e-9
    assert np.max(np.abs(curve.gamma + 0.5)) < 1e-10


def test_circle_tables_closed_form():
    # the node tables against the circle of radius R at the arc-length
    # angle theta / R; measured at most 1.7e-15 relative for n = 16..1024
    tol = 5e-15
    for radius in (0.7, 1.0, 2.0):
        for n in (16, 128, 1024):
            curve = build_curve({"kind": "circle", "radius": radius}, n)
            L = curve.length
            assert np.array_equal(curve.theta, L * np.arange(n) / n)
            assert abs(L - 2.0 * np.pi * radius) <= tol * radius
            t = curve.theta / radius
            radial = np.stack([np.cos(t), np.sin(t)], axis=-1)
            tangent = np.stack([-np.sin(t), np.cos(t)], axis=-1)
            assert np.max(np.abs(curve.x - radius * radial)) <= tol * radius
            assert np.max(np.abs(curve.tau - tangent)) <= tol
            assert np.max(np.abs(curve.normal + radial)) <= tol
            assert np.max(np.abs(curve.gamma + 1.0 / radius)) <= tol / radius
            assert np.max(np.abs(curve.center)) <= tol * radius


def test_build_curve_rejects_non_circle():
    # the pipeline runs on disks only, and build_curve is where that is said
    for spec, match in [({"kind": "ellipse", "a": 2.0, "b": 1.0}, "disks only"),
                        ({"kind": "star"}, "disks only"),
                        ({"radius": 1.0}, "disks only"),
                        ({"kind": "circle"}, "'radius'"),
                        ({"kind": "circle", "radius": 0.0}, "positive"),
                        ({"kind": "circle", "radius": -1.0}, "positive")]:
        with pytest.raises(GeometryError, match=match):
            build_curve(spec, 64)


def test_project_points_round_trip(disk_chart, collar):
    # points x(theta) + s n(theta) of the collar map back to (s, theta)
    # through the disk's closed-form collar coordinates
    rng = np.random.default_rng(5)
    s = rng.uniform(0.01, 0.35, 50)
    th = rng.uniform(0.0, collar.curve.length, 50)
    tau = collar.curve.tangent(th)
    normal = np.stack([-tau[:, 1], tau[:, 0]], axis=-1)
    pts = collar.curve.point(th) + s[:, None] * normal
    s2, th2 = disk_chart.collar_coords(pts)
    assert np.all((0.0 <= s2) & (s2 <= collar.delta))
    assert np.max(np.abs(s2 - s)) < 1e-8
    dth = np.abs(th2 - th)
    dth = np.minimum(dth, collar.curve.length - dth)
    assert np.max(dth) < 1e-8
    # the collar grid itself, to rounding; theta is compared modulo L, since
    # the theta = 0 column may come back as L across the seam
    L = collar.curve.length
    s, th = disk_chart.collar_coords(collar.X)
    assert np.max(np.abs(s - collar.s[:, None])) <= 1e-14
    dth = (th - collar.theta[None, :] + L / 2) % L - L / 2
    assert np.max(np.abs(dth)) <= 1e-14
    assert np.all((th >= 0.0) & (th <= L))
    # points just either side of the seam
    eps = 1e-9
    ang = np.array([eps, -eps]) / disk_chart.radius
    pts = disk_chart.center + 0.5 * np.stack([np.cos(ang), np.sin(ang)], -1)
    s, th = disk_chart.collar_coords(pts)
    assert np.max(np.abs(th - np.array([eps, L - eps]))) <= 1e-14
    assert np.max(np.abs(s - (disk_chart.radius - 0.5))) <= 1e-15


def test_tangent_is_unit_speed():
    curve = build_curve({"kind": "circle", "radius": 0.7}, 512)
    t = np.linspace(0.0, curve.length, 333, endpoint=False)
    tau = curve.tangent(t)
    assert np.max(np.abs(np.linalg.norm(tau, axis=-1) - 1.0)) < 1e-8


def test_interior_normal_points_inward():
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    x = curve.point(curve.theta)
    n = curve.normal
    # stepping along n reduces the distance to the center
    closer = np.linalg.norm(x + 0.1 * n, axis=-1)
    assert np.all(closer < 1.0)


def test_collar_chart_tables(collar):
    assert collar.s[0] == 0.0
    assert abs(collar.s[-1] - collar.delta) < 1e-14
    # J = 1 + s*gamma = 1 - s on the unit disk
    expected = 1.0 - collar.s[:, None]
    assert np.max(np.abs(collar.J - expected)) < 1e-12
    # X(s, theta) lands at radius 1 - s
    r = np.linalg.norm(collar.X, axis=-1)
    assert np.max(np.abs(r - expected)) < 1e-12


def test_collar_closed_form():
    # the collar of the circle of radius R: curvature -1/R and Jacobian
    # 1 - s/R exactly, points at distance R from the center, n = -(x - c)/R
    for radius in (0.7, 1.0, 2.0):
        curve = build_curve({"kind": "circle", "radius": radius}, 256)
        collar = GeodesicChart(curve, 0.4 * radius, 16, 128)
        c = curve.center
        assert collar.gamma_b == -1.0 / radius
        assert np.array_equal(collar.J, (1.0 - collar.s / radius)[:, None])
        rel = collar.x_b - c
        assert np.max(np.abs(np.linalg.norm(rel, axis=-1) - radius)) <= 1e-15
        assert np.max(np.abs(collar.n_b + rel / radius)) <= 1e-15
        assert np.max(np.abs(np.einsum("jk,jk->j", collar.tau_b,
                                       collar.n_b))) <= 1e-15
        # tau turns counterclockwise: the interior lies to its left
        tau, n = collar.tau_b, collar.n_b
        assert np.all(tau[:, 0] * n[:, 1] - tau[:, 1] * n[:, 0] > 0.0)


def test_cutoff_partition_values(cutoffs):
    s = np.linspace(0.0, 0.6, 400)
    phi = cutoffs.phi(s)
    assert np.all(phi[s <= cutoffs.delta - cutoffs.epsilon] == 1.0)
    assert np.all(phi[s >= cutoffs.delta] == 0.0)
    assert np.all((0.0 <= phi) & (phi <= 1.0))
    # phi_b = 1 where phi_i transitions and vice versa
    assert np.all(cutoffs.phi_b(s)[s <= cutoffs.delta3] == 1.0)
    assert np.all(cutoffs.phi_b(s)[s >= cutoffs.delta - cutoffs.epsilon]
                  == 0.0)
    assert np.all(cutoffs.phi_i(s)[s <= cutoffs.delta1] == 0.0)
    assert np.all(cutoffs.phi_i(s)[s >= cutoffs.delta2] == 1.0)
    # the interior and boundary windows overlap mid-collar: together they
    # cover every depth
    assert np.all(cutoffs.phi_i(s) + cutoffs.phi_b(s) >= 1.0)


def test_cutoff_derivative_consistency(cutoffs):
    s = np.linspace(0.0, 0.5, 2001)
    h = 1e-6
    d1 = (cutoffs.phi_b(s + h) - cutoffs.phi_b(s - h)) / (2 * h)
    assert np.max(np.abs(d1 - cutoffs.phi_b_d1(s))) < 1e-4
    d2 = (cutoffs.phi_b(s + h) - 2 * cutoffs.phi_b(s)
          + cutoffs.phi_b(s - h)) / h**2
    assert np.max(np.abs(d2 - cutoffs.phi_b_d2(s))) < 1e-2


def test_cutoff_chain_violation_raises():
    with pytest.raises(GeometryError, match="delta3 < delta - 2\\*epsilon"):
        build_cutoffs(0.4, 0.05, 0.1, 0.2, 0.31)
    with pytest.raises(GeometryError):
        build_cutoffs(0.4, 0.05, 0.2, 0.2, 0.25)


def test_geodesic_chart_rejects_deep_collar():
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    with pytest.raises(GeometryError):
        GeodesicChart(curve, 1.5, 16, 64)
    with pytest.raises(GeometryError, match="below the radius"):
        GeodesicChart(curve, 1.0, 16, 64)


def test_geodesic_chart_rejects_too_few_rows():
    # the wall stencils of the collar read rows 0..4
    curve = build_curve({"kind": "circle", "radius": 1.0}, 256)
    with pytest.raises(GeometryError, match="n_s >= 4"):
        GeodesicChart(curve, 0.4, 3, 64)
    assert GeodesicChart(curve, 0.4, 4, 64).s.size == 5
