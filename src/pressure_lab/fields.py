"""Fields on the two structured charts and the differential operators on them.

Two charts are used throughout:
  * interior polar chart (rho, theta) of the disk: x = c + rho*(x(theta) - c),
    rho_i = (i+1)/n_rho (the boundary row rho=1 is on the grid, the pole is
    not; pole values are carried separately when needed);
  * collar chart (s, theta) of the GeodesicChart, s_i = i*delta/n_s.

Vector fields are stored in Cartesian components; collar frame components
(v.n, v.tau) are derived on demand.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import RectBivariateSpline

from ._fourier import fourier_diff
from .geometry import BoundaryCurve, GeodesicChart, GeometryError

_THETA_PAD = 4


class FieldError(ValueError):
    pass


# ----------------------------------------------------------------------
# interior chart
# ----------------------------------------------------------------------

class InteriorChart:
    """Polar chart x = c + rho*(x(theta)-c) of a disk with metric tables.

    build_curve builds circles only.  This chart is the one owner of the
    disk's coordinates: chart and collar coordinates of physical points,
    depths, the boundary frame at the nodes, and interpolation.
    """

    def __init__(self, curve: BoundaryCurve, n_rho, n_theta):
        self.curve = curve
        self.n_rho = int(n_rho)
        self.n_theta = int(n_theta)
        self.h_rho = 1.0 / self.n_rho
        self.h_theta = curve.length / self.n_theta
        self.rho = (np.arange(self.n_rho) + 1.0) * self.h_rho
        self.theta = np.arange(self.n_theta) * self.h_theta
        self.center = curve.center.copy()
        self.radius = float(curve.spec["radius"])

        self.v = curve.point(self.theta) - self.center          # (nt, 2)
        self.vt = curve.tangent(self.theta)                     # d v / d theta
        self.w = self.v[:, 0] * self.vt[:, 1] - self.v[:, 1] * self.vt[:, 0]
        self.points = self.center + self.rho[:, None, None] * self.v[None, :, :]
        # gradients of the chart coordinates (used for Cartesian derivatives)
        self.grad_rho = np.stack([self.vt[:, 1], -self.vt[:, 0]], axis=-1) / self.w[:, None]
        self.grad_theta_num = np.stack([-self.v[:, 1], self.v[:, 0]], axis=-1) / self.w[:, None]

    # -- basic derivatives ------------------------------------------------

    def pole_value(self, values):
        """Field value at the chart center, Richardson-extrapolated from the
        two innermost rings (ring means are even in the ring radius)."""
        return (4.0 * values[0].mean(axis=0) - values[1].mean(axis=0)) / 3.0

    def d_theta(self, values):
        # spectral: theta lines are periodic and all generated fields are
        # band-limited; centered differences here would be amplified by the
        # 1/rho factor near the pole
        return fourier_diff(values, self.curve.length, axis=1)

    def d_rho(self, values, pole=None):
        h = self.h_rho
        out = np.empty_like(values)
        out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
        if pole is None:
            pole = self.pole_value(values)
        out[0] = (values[1] - pole) / (2.0 * h)
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
        return out

    def cart_gradient(self, values, pole=None):
        """Cartesian gradient of a scalar sample array; returns (n_rho, nt, 2)."""
        fr = self.d_rho(values, pole=pole)
        ft = self.d_theta(values)
        gtheta = self.grad_theta_num[None, :, :] / self.rho[:, None, None]
        return fr[..., None] * self.grad_rho[None, :, :] + ft[..., None] * gtheta

    def divergence(self, vec, poles=None):
        gx = self.cart_gradient(vec[..., 0], None if poles is None else poles[0])
        gy = self.cart_gradient(vec[..., 1], None if poles is None else poles[1])
        return gx[..., 0] + gy[..., 1]

    def curl(self, vec, poles=None):
        gx = self.cart_gradient(vec[..., 0], None if poles is None else poles[0])
        gy = self.cart_gradient(vec[..., 1], None if poles is None else poles[1])
        return gy[..., 0] - gx[..., 1]

    # -- disk coordinates -------------------------------------------------

    def depth(self, pts):
        """Distance of physical points to the boundary circle."""
        pts = np.asarray(pts, dtype=float)
        dx = pts[..., 0] - self.center[0]
        dy = pts[..., 1] - self.center[1]
        # the sum np.linalg.norm forms, by component instead of per point
        return self.radius - np.sqrt(dx * dx + dy * dy)

    def _arc(self, rel):
        """Arc-length angle in [0, L] of points relative to the center."""
        return (np.arctan2(rel[..., 1], rel[..., 0]) * self.radius) \
            % self.curve.length

    def collar_coords(self, pts):
        """(s, theta) of physical points, exact (the collar coordinates of a
        disk extend to its center)."""
        rel = np.asarray(pts, dtype=float) - self.center
        return self.radius - np.linalg.norm(rel, axis=-1), self._arc(rel)

    def chart_coords(self, pts):
        """(rho, theta) of physical points, in closed form."""
        rel = np.asarray(pts, dtype=float) - self.center
        return np.linalg.norm(rel, axis=-1) / self.radius, self._arc(rel)

    @cached_property
    def node_depth(self):
        """Distance to the boundary at the nodes; the boundary row is pinned
        to zero exactly.  This is also the collar depth s of the nodes."""
        depth = self.depth(self.points)
        depth[-1] = 0.0
        return depth

    @cached_property
    def collar_frame(self):
        """(theta, tau, n, gamma) at the nodes: the collar angle (the node
        angle exactly on the boundary row) and the boundary frame and
        curvature there."""
        th = self._arc(self.points - self.center)
        th[-1] = self.theta
        tau = self.curve.tangent(th.ravel()).reshape(th.shape + (2,))
        nrm = np.stack([-tau[..., 1], tau[..., 0]], axis=-1)
        gam = self.curve.curvature(th.ravel()).reshape(th.shape)
        return th, tau, nrm, gam

    # -- interpolation ----------------------------------------------------

    def spline(self, values):
        """Bicubic spline in chart coordinates with periodic theta padding,
        through the pole value at rho = 0 (a spline starting at the innermost
        ring would hold its value constant inside that ring)."""
        p, L = _THETA_PAD, self.curve.length
        rho = np.concatenate([[0.0], self.rho])
        th = np.concatenate([self.theta[-p:] - L, self.theta, self.theta[:p] + L])
        vals = np.vstack([np.full(self.n_theta, self.pole_value(values)), values])
        vals = np.concatenate([vals[:, -p:], vals, vals[:, :p]], axis=1)
        return RectBivariateSpline(rho, th, vals, kx=3, ky=3)

    def interpolant(self, values):
        """pts -> spline of the node values at physical points; points past
        the boundary read its row."""
        sp = self.spline(values)

        def evaluate(pts):
            rho, th = self.chart_coords(pts)
            return sp(np.clip(rho, 0.0, 1.0), th, grid=False)
        return evaluate

    def on_collar(self, values, collar: GeodesicChart):
        """Node values resampled onto the collar grid, shape (n_s+1, n_theta).

        The collar grid of the disk is a tensor grid of this chart,
        rho = 1 - s/R by the collar's theta, so the spline is evaluated once
        on that grid instead of point by point.  Rows follow the collar's
        (s ascending, rho descending)."""
        if (float(collar.curve.spec["radius"]) != self.radius
                or np.max(np.abs(collar.curve.center - self.center))
                > 1e-12 * self.radius):
            raise GeometryError("the collar is not on this chart's circle")
        rho = np.clip(1.0 - collar.s / self.radius, 0.0, 1.0)
        return self.spline(values)(rho[::-1], collar.theta)[::-1]


# ----------------------------------------------------------------------
# grid fields
# ----------------------------------------------------------------------

@dataclass
class GridField:
    """Samples on one of the two charts; vectors in Cartesian components."""

    chart: object            # InteriorChart or GeodesicChart
    values: np.ndarray       # (n1, n2) scalar or (n1, n2, 2) vector
    pole: object = None      # optional pole value(s) for interior fields

    @property
    def is_vector(self):
        return self.values.ndim == 3


@dataclass
class StreamFunction:
    """Scalar stream function on the interior chart with zero boundary trace."""

    field: GridField
    analytic: object = None   # optional callable psi(pts) for exact evaluation

    def __post_init__(self):
        vals = self.field.values
        if vals.ndim != 2:
            raise FieldError("stream function must be scalar")
        if np.max(np.abs(vals[-1])) > 1e-12:
            raise FieldError("stream function must vanish on the boundary row")


def stream_to_velocity(psi: StreamFunction) -> GridField:
    """u = (-d2 psi, d1 psi) by finite differences through the chart metric."""
    chart = psi.field.chart
    g = chart.cart_gradient(psi.field.values)
    u = np.stack([-g[..., 1], g[..., 0]], axis=-1)
    return GridField(chart, u)


# ----------------------------------------------------------------------
# analytic field families
# ----------------------------------------------------------------------

class RadialFlow:
    """u = V(r) e_theta on a disk; analytic pressure is available."""

    def __init__(self, profile, radius, center=(0.0, 0.0)):
        self.profile = profile
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)

    def velocity(self, pts):
        pts = np.asarray(pts, dtype=float)
        rel = pts - self.center
        r = np.linalg.norm(rel, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0, self.profile(r) / np.where(r > 0, r, 1.0), 0.0)
        return np.stack([-rel[..., 1], rel[..., 0]], axis=-1) * scale[..., None]

    def pressure(self, pts, n_quad=2000):
        """Mean-zero pressure from p'(r) = V(r)^2 / r."""
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts - self.center, axis=-1)
        rq = np.linspace(0.0, self.radius, n_quad)
        with np.errstate(invalid="ignore", divide="ignore"):
            integrand = np.where(rq > 0, self.profile(rq) ** 2 / np.where(rq > 0, rq, 1.0), 0.0)
        cumul = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rq))])
        mean = np.trapezoid(cumul * 2.0 * rq / self.radius**2, rq)
        return np.interp(r, rq, cumul) - mean


def radial_flow(profile, chart: InteriorChart) -> GridField:
    flow = RadialFlow(profile, chart.radius, chart.center)
    return GridField(chart, flow.velocity(chart.points), pole=np.zeros(2))


class RoughStream:
    """Lacunary stream function with C^{0,alpha}-bounded velocity on a disk.

    psi(x) = beta(x) * sum_j 4^{-j(1+alpha)} sin(4^j k0 (e_j . x) + phase_j),
    with beta = 1 - (r/R)^2 vanishing on the boundary, unit directions e_j and
    phases drawn from the seed.  Closed form, so psi and grad psi are exact.
    """

    base_wavenumber = 1.0

    def __init__(self, alpha, seed, j_max, chart: InteriorChart):
        if not 0.0 < alpha < 1.0:
            raise FieldError("alpha must lie in (0, 1)")
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.j_max = int(j_max)
        self.chart = chart
        self.radius = chart.radius
        self.center = chart.center.copy()

        finest = 2.0 * np.pi / (self.base_wavenumber * 4.0**self.j_max)
        cell = max(chart.h_rho * self.radius, chart.h_theta)
        if finest < 4.0 * cell - 1e-12:
            raise FieldError(
                f"finest wavelength {finest:.3g} under-resolved: need >= 4 cells "
                f"({4*cell:.3g}); use a finer grid or smaller j_max"
            )
        rng = np.random.default_rng(self.seed)
        js = np.arange(self.j_max + 1)
        ang = rng.uniform(0.0, 2.0 * np.pi, size=js.size)
        self.dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=js.size)
        self.amps = 4.0 ** (-js * (1.0 + self.alpha))
        self.freqs = self.base_wavenumber * 4.0**js
        self.kvec = self.freqs[:, None] * self.dirs                # (J, 2)

    def _beta(self, x, y):
        return 1.0 - (x * x + y * y) / self.radius**2

    def _phases(self, pts):
        """(x, y, phase): coordinates relative to the center and the (J, M)
        table k_j . x + phase_j over the M flattened points.  One matrix
        product forms k_j . x for every point; BLAS adds the two products of
        a lone row in the other order, so a lone point goes in beside a copy
        of itself, and a point's phase does not depend on the points that
        come with it."""
        pts = np.asarray(pts, dtype=float)
        x = pts[..., 0] - self.center[0]
        y = pts[..., 1] - self.center[1]
        rel = np.stack([x.ravel(), y.ravel()], axis=-1)
        rows = np.repeat(rel, 2, axis=0) if len(rel) == 1 else rel
        phase = (self.kvec @ rows.T)[:, :len(rel)]
        phase += self.phases[:, None]
        return x, y, phase

    def psi(self, pts):
        """Pointwise: a point's value does not depend on the points
        evaluated with it."""
        x, y, phase = self._phases(pts)
        np.sin(phase, out=phase)
        phase *= self.amps[:, None]
        return self._beta(x, y) * _sum_modes(phase).reshape(x.shape)

    def grad_psi(self, pts):
        """Pointwise, like psi; shape pts.shape."""
        x, y, phase = self._phases(pts)
        series = _sum_modes(self.amps[:, None] * np.sin(phase))
        slope = self.amps[:, None] * np.cos(phase)
        beta = self._beta(x, y).ravel()
        grad = [-2.0 * c.ravel() / self.radius**2 * series
                + beta * _sum_modes(slope * self.kvec[:, k, None])
                for k, c in enumerate((x, y))]
        return np.stack(grad, axis=-1).reshape(x.shape + (2,))

    def velocity(self, pts):
        g = self.grad_psi(pts)
        return np.stack([-g[..., 1], g[..., 0]], axis=-1)

    def stream_field(self) -> StreamFunction:
        vals = self.psi(self.chart.points)
        vals[-1] = 0.0       # boundary trace is exactly zero (beta vanishes)
        return StreamFunction(GridField(self.chart, vals), analytic=self.psi)

    def velocity_field(self) -> GridField:
        return GridField(self.chart, self.velocity(self.chart.points),
                         pole=self.velocity(self.center[None, :])[0])


def _sum_modes(terms):
    """Sum over the leading (mode) axis, left to right from zero, as np.sum
    adds the few modes a resolved field has (its pairwise summation only
    reorders from 8 terms on)."""
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


def make_rough_stream(alpha, seed, j_max, chart) -> RoughStream:
    return RoughStream(alpha, seed, j_max, chart)


# ----------------------------------------------------------------------
# collar operators (formulas in geodesic coordinates)
# ----------------------------------------------------------------------

def collar_components(u, chart: GeodesicChart):
    """Frame components (u.n, u.tau) tabulated on the collar grid.

    u may be a GridField on either chart (an interior one is resampled on
    the collar grid) or a callable pts -> (..., 2).
    """
    if callable(u):
        vals = u(chart.X.reshape(-1, 2))
    elif isinstance(u, GridField) and isinstance(u.chart, GeodesicChart):
        vals = u.values.reshape(-1, 2)
    elif isinstance(u, GridField):
        vals = np.stack([u.chart.on_collar(u.values[..., k], chart)
                         for k in (0, 1)], axis=-1)
    else:
        raise FieldError("unsupported velocity representation")
    vals = vals.reshape(chart.n_s + 1, chart.n_theta, 2)
    un = np.einsum("ijk,jk->ij", vals, chart.n_b)
    ut = np.einsum("ijk,jk->ij", vals, chart.tau_b)
    return un, ut


def _d_s(chart: GeodesicChart, q):
    h = chart.h_s
    out = np.empty_like(q)
    out[1:-1] = (q[2:] - q[:-2]) / (2.0 * h)
    out[0] = (-3.0 * q[0] + 4.0 * q[1] - q[2]) / (2.0 * h)
    out[-1] = (3.0 * q[-1] - 4.0 * q[-2] + q[-3]) / (2.0 * h)
    return out


def _d_theta(chart: GeodesicChart, q):
    return (np.roll(q, -1, axis=1) - np.roll(q, 1, axis=1)) / (2.0 * chart.h_theta)


def divergence_collar(v: GridField, chart: GeodesicChart = None):
    """(1/J)(d_s(J (v.n)) + d_theta(v.tau)) by centered differences."""
    chart = chart or v.chart
    vn, vt = collar_components(v, chart)
    return (_d_s(chart, chart.J * vn) + _d_theta(chart, vt)) / chart.J


def laplacian_collar(q, chart: GeodesicChart):
    """(1/J) d_s(J d_s q) + (1/J) d_theta((1/J) d_theta q), conservative."""
    q = np.asarray(q, dtype=float)
    h = chart.h_s
    J = chart.J
    out = np.empty_like(q)
    Jh = 0.5 * (J[1:] + J[:-1])                   # J at s half nodes
    flux = Jh * (q[1:] - q[:-1]) / h
    out[1:-1] = (flux[1:] - flux[:-1]) / h
    # one-sided expanded form at the wall rows: q_ss + (gamma/J) q_s
    gam = chart.gamma_b[None, :]
    q_s = _d_s(chart, q)
    for idx in (0, -1):
        if idx == 0:
            q_ss = (2.0 * q[0] - 5.0 * q[1] + 4.0 * q[2] - q[3]) / h**2
        else:
            q_ss = (2.0 * q[-1] - 5.0 * q[-2] + 4.0 * q[-3] - q[-4]) / h**2
        out[idx] = (q_ss + gam[0] / J[idx] * q_s[idx]) * J[idx]
    out /= J
    qt = _d_theta(chart, q)
    out += _d_theta(chart, qt / J) / J
    return out


# ----------------------------------------------------------------------
# interior-chart second-divergence right-hand side
# ----------------------------------------------------------------------

def rhs_double_divergence(u: GridField):
    """Discrete (grad x grad):(u x u) as a composition of two divergences."""
    chart = u.chart
    uv = u.values
    T11, T12, T22 = uv[..., 0] ** 2, uv[..., 0] * uv[..., 1], uv[..., 1] ** 2
    m1 = chart.cart_gradient(T11)[..., 0] + chart.cart_gradient(T12)[..., 1]
    m2 = chart.cart_gradient(T12)[..., 0] + chart.cart_gradient(T22)[..., 1]
    return chart.cart_gradient(m1)[..., 0] + chart.cart_gradient(m2)[..., 1]

