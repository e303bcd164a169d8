"""The boundary circle of the disk: arc-length node tables, the geodesic
collar chart in closed form, and cutoff profiles.

Conventions (fixed once, validated by the analytic disk oracles):
  * counterclockwise arc-length parameterization theta in [0, L)
  * tangent tau = x'(theta), interior normal n = (-x2', x1')
  * signed curvature gamma = x1'' x2' - x1' x2''  (gamma = -1 on the unit circle)
  * frame derivatives n' = gamma tau and tau' = -gamma n
"""

from dataclasses import dataclass, field

import numpy as np

from ._fourier import fourier_diff, trig_interp


class GeometryError(ValueError):
    pass


@dataclass
class BoundaryCurve:
    """Arc-length node table of the boundary circle with frames."""

    radius: float
    n_nodes: int
    length: float
    theta: np.ndarray           # (n,) arc-length parameter nodes
    x: np.ndarray               # (n, 2) points
    tau: np.ndarray             # (n, 2) unit tangents
    normal: np.ndarray          # (n, 2) interior normals
    gamma: np.ndarray           # (n,) signed curvature
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))

    # -- evaluation by trigonometric interpolation of the node tables --

    def point(self, theta):
        return trig_interp(self.x, self.length, np.asarray(theta, dtype=float))

    def tangent(self, theta):
        t = trig_interp(self.tau, self.length, np.asarray(theta, dtype=float))
        return t / np.linalg.norm(t, axis=-1, keepdims=True)

    def curvature(self, theta):
        theta = np.asarray(theta, dtype=float) % self.length
        return trig_interp(self.gamma, self.length, theta)


def build_curve(spec, n_nodes):
    """Arc-length node tables of the circle spec = {"kind": "circle",
    "radius": R}.

    The pipeline runs on disks only, and this is the one place that says so:
    any other kind, a missing radius or a radius <= 0 is a GeometryError.
    The tables are trigonometric interpolants of max(4096, 8n) samples of
    the circle, evaluated at the nodes t = 2 pi j / n (arc length R t).
    """
    kind = spec.get("kind")
    if kind != "circle":
        raise GeometryError(
            f"the pipeline runs on disks only, not on a {kind!r} domain")
    if "radius" not in spec:
        raise GeometryError("the circle needs the key 'radius'")
    r = float(spec["radius"])
    if not r > 0:
        raise GeometryError("circle radius must be positive")
    if n_nodes < 16 or n_nodes % 2:
        raise GeometryError("n_nodes must be even and at least 16")
    m = max(4096, 8 * n_nodes)
    t_fine = 2.0 * np.pi * np.arange(m) / m
    xs = np.stack([r * np.cos(t_fine), r * np.sin(t_fine)], axis=-1)
    length = 2.0 * np.pi * r
    t_nodes = 2.0 * np.pi * np.arange(n_nodes) / n_nodes

    # node tables; theta-derivatives by chain rule through t(theta)
    x_t = trig_interp(fourier_diff(xs, 2.0 * np.pi, axis=0), 2.0 * np.pi, t_nodes)
    x_tt = trig_interp(fourier_diff(xs, 2.0 * np.pi, order=2, axis=0), 2.0 * np.pi, t_nodes)
    x_nodes = trig_interp(xs, 2.0 * np.pi, t_nodes)
    sigma = np.linalg.norm(x_t, axis=-1)
    sigma_t = np.einsum("ij,ij->i", x_t, x_tt) / sigma
    x_th = x_t / sigma[:, None]
    x_thth = (x_tt * sigma[:, None] - x_t * sigma_t[:, None]) / sigma[:, None] ** 3

    tau = x_th / np.linalg.norm(x_th, axis=-1, keepdims=True)
    normal = np.stack([-tau[:, 1], tau[:, 0]], axis=-1)
    gamma = x_thth[:, 0] * x_th[:, 1] - x_th[:, 0] * x_thth[:, 1]

    return BoundaryCurve(
        radius=r, n_nodes=n_nodes, length=length,
        theta=length * np.arange(n_nodes) / n_nodes,
        x=x_nodes, tau=tau, normal=normal, gamma=gamma,
        center=x_nodes.mean(axis=0),
    )


# ----------------------------------------------------------------------
# geodesic collar chart
# ----------------------------------------------------------------------

@dataclass
class GeodesicChart:
    """Collar coordinates (s, theta) with X(s, theta) = x(theta) + s n(theta),
    in closed form on the circle of radius R and center c: with
    e = (cos(theta/R), sin(theta/R)), x = c + R e, n = -e, the curvature
    gamma_b = -1/R (a scalar), J = 1 - s/R (a column) and X = c + (R - s) e.

    Grid: s_i = i*delta/n_s for i = 0..n_s (wall row s=0 included),
    theta_j = j*L/n_theta, periodic; n_s >= 4, as the wall stencils read
    rows 0..4, and delta < R, where J > 0.
    """

    curve: BoundaryCurve
    delta: float
    n_s: int
    n_theta: int

    def __post_init__(self):
        c = self.curve
        r = c.radius
        if self.n_s < 4:
            raise GeometryError(
                f"the collar needs n_s >= 4 rows, not {self.n_s}")
        if not self.delta < r:
            raise GeometryError(
                f"collar depth {self.delta} too large: it must stay below "
                f"the radius {r}")
        self.s = self.delta * np.arange(self.n_s + 1) / self.n_s
        self.theta = c.length * np.arange(self.n_theta) / self.n_theta
        self.h_s = self.delta / self.n_s
        self.h_theta = c.length / self.n_theta
        t = self.theta / r
        e = np.stack([np.cos(t), np.sin(t)], axis=-1)
        self.x_b = c.center + r * e
        self.tau_b = np.stack([-e[:, 1], e[:, 0]], axis=-1)
        self.n_b = -e
        self.gamma_b = -1.0 / r
        self.J = (1.0 - self.s / r)[:, None]
        self.X = c.center + (r - self.s)[:, None, None] * e[None, :, :]


# ----------------------------------------------------------------------
# cutoff profiles
# ----------------------------------------------------------------------

def _bump(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _bump_d1(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def _bump_d2(t):
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = np.exp(-1.0 / tp) * (1.0 / tp**4 - 2.0 / tp**3)
    return out


class _FallingStep:
    """C-infinity cutoff, 1 on (-inf, a] and 0 on [b, inf), built from
    exp(-1/t): 1 - A / (A + B) with A = bump(t), B = bump(1 - t) and
    t = (s - a) / (b - a) clipped to [0, 1].  d1 and d2 are its first and
    second derivatives, exactly zero outside (a, b)."""

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)
        self.w = float(b - a)

    def _parts(self, s):
        t = np.clip((s - self.a) / self.w, 0.0, 1.0)
        return t, _bump(t), _bump(1.0 - t)

    def __call__(self, s):
        _, A, B = self._parts(np.asarray(s, dtype=float))
        return 1.0 - A / (A + B)

    def d1(self, s):
        s = np.asarray(s, dtype=float)
        t, A, B = self._parts(s)
        Ap = _bump_d1(t)
        Bp = -_bump_d1(1.0 - t)
        rising = (Ap * B - A * Bp) / (A + B) ** 2
        inside = (s > self.a) & (s < self.b)
        return -np.where(inside, rising / self.w, 0.0)

    def d2(self, s):
        s = np.asarray(s, dtype=float)
        t, A, B = self._parts(s)
        Ap = _bump_d1(t)
        Bp = -_bump_d1(1.0 - t)
        App = _bump_d2(t)
        Bpp = _bump_d2(1.0 - t)
        N = Ap * B - A * Bp
        rising = (App * B - A * Bpp) / (A + B) ** 2 \
            - 2.0 * N * (Ap + Bp) / (A + B) ** 3
        inside = (s > self.a) & (s < self.b)
        return -np.where(inside, rising / self.w**2, 0.0)


@dataclass
class CutoffProfile:
    """The profiles phi, phi_b of the boundary/interior splitting, with the
    derivatives phi_b_d1, phi_b_d2.  delta1 and delta2 bound no profile;
    they enter the parameter chain only, which also orders the ends of
    each profile's step."""

    delta: float
    epsilon: float
    delta1: float
    delta2: float
    delta3: float

    def __post_init__(self):
        d, e = self.delta, self.epsilon
        d1, d2, d3 = self.delta1, self.delta2, self.delta3
        checks = [
            (0.0 < d1, "0 < delta1"),
            (d1 < d2 - e, "delta1 < delta2 - epsilon"),
            (d2 - e < d3, "delta2 - epsilon < delta3"),
            (d3 < d - 2.0 * e, "delta3 < delta - 2*epsilon"),
            (e > 0.0, "epsilon > 0"),
        ]
        for ok, name in checks:
            if not ok:
                raise GeometryError(f"cutoff parameter chain violated: {name}")
        # phi: 1 on [0, d-e], 0 on [d, inf)
        self.phi = _FallingStep(d - e, d)
        # phi_b: 1 on [0, d3+e], 0 on [d-e, inf)
        self.phi_b = _FallingStep(d3 + e, d - e)
        self.phi_b_d1 = self.phi_b.d1
        self.phi_b_d2 = self.phi_b.d2


def build_cutoffs(delta, epsilon, delta1, delta2, delta3):
    return CutoffProfile(delta, epsilon, delta1, delta2, delta3)


def default_cutoffs(delta):
    """Default transition ranges as fixed fractions of the collar depth."""
    return CutoffProfile(
        delta=delta, epsilon=0.125 * delta,
        delta1=0.25 * delta, delta2=0.5 * delta, delta3=0.625 * delta,
    )
