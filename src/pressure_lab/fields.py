"""Fields on the interior chart of the disk, the differential operators on
it, and the frame components and differences on the collar grid.

Two charts are used throughout:
  * interior polar chart (rho, theta) of the disk: x = c + rho*(x(theta) - c),
    rho_i = (i+1)/n_rho (the boundary row rho=1 is on the grid, the pole is
    not; pole values are carried separately when needed);
  * collar chart (s, theta) of the GeodesicChart, s_i = i*delta/n_s.

Fields live on the interior chart, vectors in Cartesian components; collar
frame components (v.n, v.tau) are derived on demand.

The one interpolant, the resample of node values onto the collar grid, is
a tensor-product not-a-knot cubic spline written as two weight matrices
(_not_a_knot_weights), built once per collar; the package runs on numpy
alone.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._fourier import fourier_diff
from .geometry import BoundaryCurve, GeodesicChart, GeometryError

_THETA_PAD = 4


def _cubic_bsplines(t, x):
    """Values of the cubic B-splines on the knots t at the points x,
    shape (len(x), len(t) - 4).  De Boor's recurrence forms the four that
    are nonzero in each point's knot interval; the last interval is closed,
    so x = t[-1] lies in it."""
    n = len(t) - 4
    left = np.clip(np.searchsorted(t, x, side="right") - 1, 3, n - 1)
    b = np.zeros((len(x), 4))
    b[:, 0] = 1.0
    for j in range(1, 4):
        saved = 0.0
        for i in range(j):
            right = t[left + 1 + i] - x
            back = x - t[left + 1 + i - j]
            term = b[:, i] / (right + back)
            b[:, i] = saved + right * term
            saved = back * term
        b[:, j] = saved
    out = np.zeros((len(x), n))
    np.put_along_axis(out, left[:, None] - 3 + np.arange(4), b, axis=1)
    return out


def _not_a_knot_weights(nodes, queries):
    """Weights W, shape (len(queries), len(nodes)), of the not-a-knot cubic
    spline through data at the increasing nodes: W @ data is its value at
    the queries, which lie in [nodes[0], nodes[-1]].

    The knots are the end nodes, four times each, and the interior nodes but
    the second and the second to last: FITPACK's knots for an s = 0 cubic,
    so this is the interpolant of scipy's RectBivariateSpline(kx=ky=3) along
    one axis.  W is the queries' B-spline values times the inverse of the
    nodes' collocation matrix."""
    t = np.concatenate([np.repeat(nodes[0], 4), nodes[2:-2],
                        np.repeat(nodes[-1], 4)])
    return np.linalg.solve(_cubic_bsplines(t, nodes).T,
                           _cubic_bsplines(t, queries).T).T


class FieldError(ValueError):
    pass


# ----------------------------------------------------------------------
# interior chart
# ----------------------------------------------------------------------

class InteriorChart:
    """Polar chart x = c + rho*(x(theta)-c) of a disk with metric tables.

    build_curve builds circles only.  This chart is the one owner of the
    disk's coordinates: collar coordinates of physical points,
    depths, the boundary frame at the nodes, and the resample of node values
    onto the collar grid.  Every Cartesian derivative on it (divergence,
    rhs_double_divergence) takes one component at a time, cart_component of
    the chart_partials, with the first ring differenced across pole_value.
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
        self.radius = curve.radius

        self.v = curve.point(self.theta) - self.center          # (nt, 2)
        self.vt = curve.tangent(self.theta)                     # d v / d theta
        self.w = self.v[:, 0] * self.vt[:, 1] - self.v[:, 1] * self.vt[:, 0]
        self.points = self.center + self.rho[:, None, None] * self.v[None, :, :]
        # gradients of the chart coordinates (used for Cartesian derivatives)
        self.grad_rho = np.stack([self.vt[:, 1], -self.vt[:, 0]], axis=-1) / self.w[:, None]
        self.grad_theta_num = np.stack([-self.v[:, 1], self.v[:, 0]], axis=-1) / self.w[:, None]
        self._resample = None   # (collar, W_rho, W_theta) of the last collar

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

    def d_rho(self, values):
        h = self.h_rho
        out = np.empty_like(values)
        out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
        out[0] = (values[1] - self.pole_value(values)) / (2.0 * h)
        out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
        return out

    @cached_property
    def grad_theta(self):
        """Gradient of the theta coordinate at the nodes, (n_rho, nt, 2)."""
        return self.grad_theta_num[None, :, :] / self.rho[:, None, None]

    def chart_partials(self, values):
        """(d_rho, d_theta) of a scalar sample array."""
        return self.d_rho(values), self.d_theta(values)

    def cart_component(self, partials, k):
        """Component k of the Cartesian gradient, formed alone from the
        chart_partials of the samples."""
        fr, ft = partials
        return fr * self.grad_rho[:, k] + ft * self.grad_theta[..., k]

    def divergence(self, vec):
        return (self.cart_component(self.chart_partials(vec[..., 0]), 0)
                + self.cart_component(self.chart_partials(vec[..., 1]), 1))

    # -- disk coordinates -------------------------------------------------

    def depth(self, x, y):
        """Distance of the physical points (x, y) to the boundary circle."""
        dx = np.subtract(x, self.center[0], out=np.empty(np.shape(x)))
        dy = np.subtract(y, self.center[1], out=np.empty(np.shape(y)))
        # the sum np.linalg.norm forms, by component instead of per point,
        # in the table of dx
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        return np.subtract(self.radius, dx, out=dx)[()]

    def _arc(self, rel):
        """Arc-length angle in [0, L] of points relative to the center."""
        return (np.arctan2(rel[..., 1], rel[..., 0]) * self.radius) \
            % self.curve.length

    def collar_coords(self, pts):
        """(s, theta) of physical points, exact (the collar coordinates of a
        disk extend to its center)."""
        rel = np.asarray(pts, dtype=float) - self.center
        return self.radius - np.linalg.norm(rel, axis=-1), self._arc(rel)

    @cached_property
    def node_depth(self):
        """Distance to the boundary at the nodes; the boundary row is pinned
        to zero exactly.  This is also the collar depth s of the nodes."""
        depth = self.depth(self.points[..., 0], self.points[..., 1])
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

    def _collar_weights(self, collar: GeodesicChart):
        """(W_rho, W_theta) of the resample onto the collar grid, built at the
        first resample onto that collar object and kept for the last one.

        The data rows are the pole row at rho = 0 (a spline starting at the
        innermost ring would hold its value constant inside that ring) and
        the rings; the data columns are the nodes with _THETA_PAD periodic
        columns either side.  The query rows are rho = 1 - s/R in the
        collar's order (s ascending), the query columns the collar's theta."""
        if self._resample is None or self._resample[0] is not collar:
            p, L = _THETA_PAD, self.curve.length
            rho = np.concatenate([[0.0], self.rho])
            th = np.concatenate([self.theta[-p:] - L, self.theta,
                                 self.theta[:p] + L])
            depth = np.clip(1.0 - collar.s / self.radius, 0.0, 1.0)
            self._resample = (collar, _not_a_knot_weights(rho, depth),
                              _not_a_knot_weights(th, collar.theta))
        return self._resample[1:]

    def on_collar(self, values, collar: GeodesicChart):
        """Node values (n_rho, n_theta, ...) resampled onto the collar grid,
        shape (n_s+1, collar n_theta, ...): W_rho @ V @ W_theta.T on the data
        V padded as _collar_weights says.

        The collar grid of the disk is a tensor grid of this chart,
        rho = 1 - s/R by the collar's theta, and the spline is linear in the
        data, so the resample is two matrix products; trailing axes, such as
        the components of a vector, are resampled together."""
        if (collar.curve.radius != self.radius
                or np.max(np.abs(collar.curve.center - self.center))
                > 1e-12 * self.radius):
            raise GeometryError("the collar is not on this chart's circle")
        w_rho, w_theta = self._collar_weights(collar)
        p = _THETA_PAD
        pole = np.broadcast_to(self.pole_value(values), (1,) + values.shape[1:])
        vals = np.concatenate([pole, values])
        vals = np.concatenate([vals[:, -p:], vals, vals[:, :p]], axis=1)
        rows = (w_rho @ vals.reshape(len(vals), -1)).reshape(
            len(w_rho), vals.shape[1], -1)
        return (w_theta @ rows).reshape(rows.shape[:1] + w_theta.shape[:1]
                                        + values.shape[2:])


# ----------------------------------------------------------------------
# grid fields
# ----------------------------------------------------------------------

@dataclass
class GridField:
    """Samples on the interior chart; vectors in Cartesian components.

    A vector field keeps its collar frame components for the
    last collar it was resampled on (see collar_components), so its values
    are not edited in place after resampling; the kept components are
    read-only.
    """

    chart: InteriorChart
    values: np.ndarray       # (n1, n2) scalar or (n1, n2, 2) vector
    pole: object = None      # optional pole value(s) for interior fields
    _on_collar: tuple = field(default=None, init=False, repr=False,
                              compare=False)   # (collar, u.n, u.tau)

    @property
    def is_vector(self):
        return self.values.ndim == 3


# ----------------------------------------------------------------------
# analytic field families
# ----------------------------------------------------------------------

class RadialFlow:
    """u = V(r) e_theta on a disk, with its stream function and pressure."""

    def __init__(self, profile, radius, center=(0.0, 0.0)):
        self.profile = profile
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)

    def velocity(self, pts):
        rel = np.asarray(pts, dtype=float) - self.center
        r = np.linalg.norm(rel, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0, self.profile(r) / np.where(r > 0, r, 1.0), 0.0)
        return np.stack([-rel[..., 1], rel[..., 0]], axis=-1) * scale[..., None]

    def psi(self, pts):
        """Stream function, psi' = V and psi(R) = 0: the velocity is
        grad^perp psi = (-d_2 psi, d_1 psi); (r^2 - R^2)/2 for V = r."""
        r = np.linalg.norm(np.asarray(pts, dtype=float) - self.center, axis=-1)
        rq, cumul = self._integral(self.profile)
        return np.interp(r, rq, cumul - cumul[-1])

    def pressure(self, pts, n_quad=2000):
        """Mean-zero pressure from p'(r) = V(r)^2 / r."""
        r = np.linalg.norm(np.asarray(pts, dtype=float) - self.center, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rq, cumul = self._integral(lambda q: np.where(
                q > 0, self.profile(q) ** 2 / np.where(q > 0, q, 1.0), 0.0),
                n_quad)
        mean = np.trapezoid(cumul * 2.0 * rq / self.radius**2, rq)
        return np.interp(r, rq, cumul) - mean

    def _integral(self, derivative, n_quad=2000):
        """(rq, F): n_quad points of [0, R], F' = derivative by trapezoids."""
        rq = np.linspace(0.0, self.radius, n_quad)
        f = derivative(rq)
        return rq, np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(rq))])


def sample_velocity(velocity, chart: InteriorChart) -> GridField:
    """velocity sampled on the chart's nodes, and at its center as the pole."""
    return GridField(chart, velocity(chart.points),
                     pole=velocity(chart.center[None, :])[0])


# sample_velocity of a RadialFlow; only perfbench/ and tests call it
def radial_flow(profile, chart: InteriorChart) -> GridField:
    return sample_velocity(
        RadialFlow(profile, chart.radius, chart.center).velocity, chart)


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

    def _phases(self, pts):
        """(x, y, phase): coordinates relative to the center and the (J, M)
        table k_j . x + phase_j over the M flattened points.  The center is
        subtracted one component at a time: broadcast over the (M, 2) table,
        numpy's inner loop would run two elements long.  One matrix product
        forms k_j . x for every point; BLAS adds the two products of a lone
        row in the other order, so a lone point goes in beside a copy of
        itself, and a point's phase does not depend on the points that come
        with it.  The product takes the (M, 2) table transposed: with one
        mode it is a matrix-vector product, and BLAS's kernel for a
        row-major (2, M) table would round some points differently by the
        number of points beside them."""
        pts = np.asarray(pts, dtype=float)
        rel = np.empty(pts.shape)
        for k in range(2):
            np.subtract(pts[..., k], self.center[k], out=rel[..., k])
        flat = rel.reshape(-1, 2)
        rows = np.repeat(flat, 2, axis=0) if len(flat) == 1 else flat
        phase = (self.kvec @ rows.T)[:, :len(flat)]
        phase += self.phases[:, None]
        return rel[..., 0], rel[..., 1], phase

    def psi(self, pts):
        """Pointwise: a point's value does not depend on the points
        evaluated with it."""
        x, y, phase = self._phases(pts)
        np.sin(phase, out=phase)
        phase *= self.amps[:, None]
        # the series is summed in the phase table's first row, beta is
        # formed in the table of x and y as grad_psi forms it, and the
        # product in the series
        series = _sum_modes(phase).reshape(x.shape)
        x *= x
        y *= y
        x += y
        x /= self.radius**2
        np.subtract(1.0, x, out=x)
        series *= x
        return series[()]

    def grad_psi(self, pts):
        """Pointwise, like psi; shape pts.shape."""
        x, y, phase = self._phases(pts)
        series = _sum_modes(self.amps[:, None] * np.sin(phase))
        slope = self.amps[:, None] * np.cos(phase)
        beta = (1.0 - (x * x + y * y) / self.radius**2).ravel()
        grad = [-2.0 * c.ravel() / self.radius**2 * series
                + beta * _sum_modes(slope * self.kvec[:, k, None])
                for k, c in enumerate((x, y))]
        return np.stack(grad, axis=-1).reshape(x.shape + (2,))

    def velocity(self, pts):
        g = self.grad_psi(pts)
        return np.stack([-g[..., 1], g[..., 0]], axis=-1)


def _sum_modes(terms):
    """Sum over the leading (mode) axis, left to right from zero, as np.sum
    adds the few modes a resolved field has (its pairwise summation only
    reorders from 8 terms on).  The sum is formed in the first term's row,
    as 0.0 + t0 (= t0 + 0.0), then + t1, ..., and that row is returned."""
    out = terms[0]
    out += 0.0
    for term in terms[1:]:
        out += term
    return out


# RoughStream(...) under its old name; only perfbench/ and tests call it
def make_rough_stream(alpha, seed, j_max, chart) -> RoughStream:
    return RoughStream(alpha, seed, j_max, chart)


# ----------------------------------------------------------------------
# collar frame components and differences
# ----------------------------------------------------------------------

def collar_components(u, chart: GeodesicChart):
    """Frame components (u.n, u.tau) tabulated on the collar grid.

    u may be a GridField on the interior chart or a callable
    pts -> (..., 2).  A GridField is resampled on the collar grid once: the
    field keeps the read-only components for that collar object.
    """
    if callable(u):
        vals = u(chart.X.reshape(-1, 2))
    elif isinstance(u, GridField):
        if u._on_collar is None or u._on_collar[0] is not chart:
            vals = u.chart.on_collar(u.values, chart)
            un, ut = _frame_components(vals, chart)
            un.flags.writeable = ut.flags.writeable = False
            u._on_collar = (chart, un, ut)
        return u._on_collar[1:]
    else:
        raise FieldError("unsupported velocity representation")
    return _frame_components(vals, chart)


def _frame_components(vals, chart: GeodesicChart):
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


# ----------------------------------------------------------------------
# interior-chart second-divergence right-hand side
# ----------------------------------------------------------------------

def rhs_double_divergence(u: GridField):
    """Discrete (grad x grad):(u x u) as a composition of two divergences."""
    chart = u.chart
    ux, uy = u.values[..., 0], u.values[..., 1]
    # the partials of T12 serve both m1 and m2; each term forms only the
    # Cartesian component it uses
    d12 = chart.chart_partials(ux * uy)
    m1 = (chart.cart_component(chart.chart_partials(ux**2), 0)
          + chart.cart_component(d12, 1))
    m2 = (chart.cart_component(d12, 0)
          + chart.cart_component(chart.chart_partials(uy**2), 1))
    del d12
    return (chart.cart_component(chart.chart_partials(m1), 0)
            + chart.cart_component(chart.chart_partials(m2), 1))

