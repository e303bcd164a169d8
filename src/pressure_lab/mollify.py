"""Tangency- and divergence-preserving regularization u -> u^eta.

Pipeline: recover the stream function, split it into a boundary part (cutoff
times psi, handled in collar coordinates with odd extension through the wall)
and an interior part (Euclidean convolution), convolve each with a compactly
supported radial bump, and differentiate the smoothed stream function.

The convolution is evaluated pointwise as a weighted sum over a fixed
stencil of offsets xi_k = (eta/4) * k, |xi_k| < eta, so every invariant is
structural: the kernel weights are even in each offset axis, the extended
boundary stream is odd in s, hence the smoothed stream (and its theta
derivative) vanish identically at s = 0 -- tangency and zero trace hold to
rounding, for every eta.  Velocities are centered derivatives of the smoothed
stream, so the divergence vanishes identically for commuting difference
stencils; the diagnostic is evaluated on a uniform Cartesian probe grid
where the commutation is exact.

Both samplers read the stream function through one callable of physical
points: the analytic stream when the caller supplies one, otherwise the
chart interpolant of the recovered stream's node values.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import (GridField, InteriorChart, StreamFunction,
                     stream_to_velocity)
from .geometry import CutoffProfile, GeodesicChart
from .elliptic import solve_dirichlet_stream


class MollifyError(ValueError):
    pass


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------

@dataclass
class MollifierKernel:
    """Radial C^infty bump exp(-1/(1-|x/eta|^2)), support radius exactly eta,
    discretized on a (2n+1)^2 offset stencil with spacing eta/n and weights
    normalized to unit mass."""

    eta: float
    n_sub: int = 4
    weights: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.eta <= 0:
            raise MollifyError("eta must be positive")
        n = self.n_sub
        a = np.arange(-n, n + 1)
        r2 = (a[:, None] ** 2 + a[None, :] ** 2) / float(n * n)
        w = np.zeros_like(r2)
        inside = r2 < 1.0
        w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        self.weights = w / w.sum()
        self.offsets = a * (self.eta / n)

    @property
    def spacing(self):
        return self.eta / self.n_sub


class _StencilConvolution:
    """Pointwise convolution of a 2-variable sampler with a MollifierKernel,
    returning the smoothed value and its two centered first derivatives."""

    def __init__(self, sampler, kernel: MollifierKernel):
        self.sampler = sampler
        self.kernel = kernel
        n = kernel.n_sub
        d = kernel.spacing
        # union stencil includes one extra ring for the derivative shifts
        self.shifts = np.arange(-n - 1, n + 2) * d
        w = np.zeros((2 * n + 3, 2 * n + 3))
        w[1:-1, 1:-1] = kernel.weights
        self.w0 = w
        self.w1 = (np.roll(w, -1, axis=0) - np.roll(w, 1, axis=0)) / (2.0 * d)
        self.w2 = (np.roll(w, -1, axis=1) - np.roll(w, 1, axis=1)) / (2.0 * d)

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        val = np.zeros_like(x1)
        d1 = np.zeros_like(x1)
        d2 = np.zeros_like(x1)
        for a, sa in enumerate(self.shifts):
            for b, sb in enumerate(self.shifts):
                if self.w0[a, b] == 0.0 and self.w1[a, b] == 0.0 \
                        and self.w2[a, b] == 0.0:
                    continue
                sample = self.sampler(x1 - sa, x2 - sb)
                if self.w0[a, b] != 0.0:
                    val += self.w0[a, b] * sample
                if self.w1[a, b] != 0.0:
                    d1 += self.w1[a, b] * sample
                if self.w2[a, b] != 0.0:
                    d2 += self.w2[a, b] * sample
        return val, d1, d2


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

class _Sampler:
    """A cutoff-weighted part of the stream psi, a callable of physical
    points (the analytic stream or the chart interpolant)."""

    def __init__(self, psi, cutoffs: CutoffProfile, chart: InteriorChart):
        self.psi = psi
        self.cutoffs = cutoffs
        self.chart = chart


class _BoundarySampler(_Sampler):
    """Odd-in-s sampler of the boundary stream part phi(s) * psi(X(s, theta)).

    Exactly odd: f(-s, theta) = -f(s, theta); zero for s >= delta (the cutoff
    vanishes there), which keeps the convolution footprint inside the collar.
    """

    def _positive(self, s, theta):
        out = np.zeros_like(s)
        mask = s < self.cutoffs.delta
        if not np.any(mask):
            return out
        chart = self.chart
        sm, tm = s[mask], theta[mask] % chart.curve.length
        ang = tm / chart.radius
        pts = chart.center + (chart.radius - sm)[:, None] * \
            np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        out[mask] = self.cutoffs.phi(sm) * self.psi(pts)
        return out

    def __call__(self, s, theta):
        s = np.asarray(s, dtype=float)
        flat_s = np.abs(s).ravel()
        flat_t = np.asarray(theta, dtype=float).ravel()
        vals = self._positive(flat_s, flat_t)
        return (np.sign(s.ravel()) * vals).reshape(s.shape)


class _InteriorSampler(_Sampler):
    """(1 - phi(depth)) * psi in Cartesian coordinates; zero within
    delta - epsilon of the boundary, so its mollification never reaches
    the wall."""

    def __call__(self, x1, x2):
        pts = np.stack([np.ravel(x1), np.ravel(x2)], axis=-1)
        depth = self.chart.depth(pts)
        out = np.zeros(pts.shape[0])
        mask = depth > self.cutoffs.delta - self.cutoffs.epsilon
        if np.any(mask):
            out[mask] = (1.0 - self.cutoffs.phi(depth[mask])) * \
                self.psi(pts[mask])
        return out.reshape(np.shape(x1))


# ----------------------------------------------------------------------
# spec-shaped pipeline pieces
# ----------------------------------------------------------------------

def recover_stream(u: GridField, tol=1e-6):
    """Stream function of a divergence-free tangential field: solve
    -Delta psi = -curl u with zero boundary trace, so grad^perp psi = u."""
    chart = u.chart
    div = chart.divergence(u.values)
    div_max = float(np.max(np.abs(div[:-1])))   # boundary row is one-sided
    if div_max > tol:
        raise MollifyError(f"velocity is not discretely divergence-free: "
                           f"max |div u| = {div_max:.3e} > {tol:.1e}")
    _, _, normal, _ = chart.collar_frame
    tang = float(np.max(np.abs(np.einsum("jk,jk->j", u.values[-1], normal[-1]))))
    if tang > tol:
        raise MollifyError(f"velocity is not tangential: max |u.n| = "
                           f"{tang:.3e} > {tol:.1e}")
    omega = chart.curl(u.values)
    psi, report = solve_dirichlet_stream(GridField(chart, -omega))
    round_trip = float(np.max(np.abs(
        stream_to_velocity(psi).values[:-1] - u.values[:-1])))
    psi.round_trip_error = round_trip
    psi.solver_report = report
    return psi


def split_stream(psi: StreamFunction, cutoffs: CutoffProfile):
    """psi = psi_b + psi_i with psi_b = phi(depth) psi near the boundary."""
    chart = psi.field.chart
    phi = cutoffs.phi(chart.node_depth)
    psi_b = GridField(chart, phi * psi.field.values)
    psi_i = GridField(chart, (1.0 - phi) * psi.field.values)
    return psi_b, psi_i


def odd_extend(psi_b, tol=1e-10):
    """Odd extension through s=0 of a collar sample array (n_s+1, n_theta);
    returns samples on (-delta..delta) with shape (2 n_s + 1, n_theta)."""
    vals = psi_b.values if isinstance(psi_b, GridField) else np.asarray(psi_b)
    trace = float(np.max(np.abs(vals[0])))
    if trace > tol:
        raise MollifyError(f"boundary trace {trace:.3e} exceeds {tol:.1e}; "
                           "odd extension would be discontinuous")
    return np.concatenate([-vals[:0:-1], vals], axis=0)


# ----------------------------------------------------------------------
# regularized velocity
# ----------------------------------------------------------------------

@dataclass
class RegularizedVelocity:
    u_eta: GridField
    psi_eta: StreamFunction
    eta: float
    kernel: MollifierKernel
    boundary_tangential: np.ndarray      # u^eta . tau on the boundary nodes
    normal_component: np.ndarray         # u^eta . n at the chart nodes
    trace_max: float
    tangency_max: float
    divergence_max: float
    provenance: dict

    def diagnostics(self):
        return {"eta": self.eta, "trace_max": self.trace_max,
                "tangency_max": self.tangency_max,
                "divergence_max": self.divergence_max}


def mollify_velocity(u: GridField, eta, cutoffs: CutoffProfile,
                     collar: GeodesicChart, psi: StreamFunction = None,
                     n_sub=4, probe_n=128):
    """Regularize a divergence-free tangential field at scale eta.

    u must live on an InteriorChart; psi may be supplied (e.g. an analytic
    stream from the rough-field generator) and is otherwise recovered by the
    Dirichlet solve.  eta must satisfy eta <= epsilon / 4 so that supports
    stay inside the cutoff bands.
    """
    if eta > cutoffs.epsilon / 4.0 + 1e-12:
        raise MollifyError(f"eta = {eta:.3g} exceeds epsilon/4 = "
                           f"{cutoffs.epsilon / 4.0:.3g}")
    chart = u.chart
    if psi is None:
        psi = recover_stream(u)
    sample = psi.analytic
    if sample is None:
        sample = chart.interpolant(psi.field.values)
    kernel = MollifierKernel(float(eta), n_sub=n_sub)
    conv_b = _StencilConvolution(_BoundarySampler(sample, cutoffs, chart),
                                 kernel)
    conv_i = _StencilConvolution(_InteriorSampler(sample, cutoffs, chart),
                                 kernel)

    # --- chart evaluation -------------------------------------------------
    th, tau, nrm, gam = chart.collar_frame
    depth = chart.node_depth             # the collar depth s of the nodes
    psi_vals = np.zeros_like(depth)
    u_vals = np.zeros(depth.shape + (2,))
    un_vals = np.zeros_like(depth)

    # the smoothed boundary part reaches at most depth delta + eta
    bmask = depth <= cutoffs.delta + eta + 2.0 * kernel.spacing
    if np.any(bmask):
        pb, ds, dt = conv_b(depth[bmask], th[bmask])
        J = 1.0 + depth[bmask] * gam[bmask]
        ut = -ds
        un = dt / J
        psi_vals[bmask] += pb
        u_vals[bmask] += ut[:, None] * tau[bmask] + un[:, None] * nrm[bmask]
        un_vals[bmask] += un

    imask = depth >= cutoffs.delta - cutoffs.epsilon - eta - 2.0 * kernel.spacing
    if np.any(imask):
        x = chart.points[imask]
        pi, d1, d2 = conv_i(x[:, 0], x[:, 1])
        psi_vals[imask] += pi
        ui = np.stack([-d2, d1], axis=-1)
        u_vals[imask] += ui
        un_vals[imask] += np.einsum("jk,jk->j", ui, nrm[imask])

    psi_vals[-1] = 0.0
    _, p_d1, p_d2 = conv_i(chart.center[:1], chart.center[1:])
    pole_u = np.array([-p_d2[0], p_d1[0]])

    # --- structural diagnostics ------------------------------------------
    trace_vals, _, trace_dt = conv_b(np.zeros_like(collar.theta), collar.theta)
    trace_max = float(np.max(np.abs(trace_vals)))
    tangency_max = float(np.max(np.abs(trace_dt)))   # J = 1 at s = 0
    divergence_max = _probe_divergence(conv_b, conv_i, chart, cutoffs,
                                       probe_n)

    ut_boundary = -conv_b(np.zeros_like(chart.theta), chart.theta)[1]

    psi_eta = StreamFunction(GridField(chart, psi_vals))
    return RegularizedVelocity(
        u_eta=GridField(chart, u_vals, pole=pole_u),
        psi_eta=psi_eta,
        eta=float(eta),
        kernel=kernel,
        boundary_tangential=ut_boundary,
        normal_component=un_vals,
        trace_max=trace_max,
        tangency_max=tangency_max,
        divergence_max=divergence_max,
        provenance={"source": "stream", "kernel_sub": n_sub,
                    "analytic": psi.analytic is not None},
    )


def _probe_divergence(conv_b, conv_i, chart, cutoffs, probe_n):
    """Discrete divergence of grad^perp psi^eta on a uniform Cartesian probe
    grid (centered differences commute there, so this measures pure rounding
    noise -- the structural divergence-free property)."""
    lo = np.min(chart.curve.x, axis=0) - 0.0
    hi = np.max(chart.curve.x, axis=0)
    xs = np.linspace(lo[0], hi[0], probe_n)
    ys = np.linspace(lo[1], hi[1], probe_n)
    hp_x = xs[1] - xs[0]
    hp_y = ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    depth, theta = (c.reshape(X.shape) for c in chart.collar_coords(pts))
    inside = depth > 2.0 * max(hp_x, hp_y)
    psi = np.zeros_like(X)
    # boundary part of psi on the probe points near the collar
    eta = conv_b.kernel.eta
    near = inside & (depth <= cutoffs.delta + 2.0 * eta)
    if np.any(near):
        psi[near] += conv_b(depth[near], theta[near])[0]
    deep = inside & (depth >= cutoffs.delta - cutoffs.epsilon -
                     2.0 * conv_i.kernel.eta)
    if np.any(deep):
        psi[deep] += conv_i(X[deep], Y[deep])[0]
    # u = grad^perp psi by centered differences, divergence likewise
    core = np.zeros_like(inside)
    core[2:-2, 2:-2] = True
    for shift in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1),
                  (-1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)):
        core &= np.roll(np.roll(inside, shift[0], axis=0), shift[1], axis=1)
    u1 = -(np.roll(psi, -1, axis=1) - np.roll(psi, 1, axis=1)) / (2.0 * hp_y)
    u2 = (np.roll(psi, -1, axis=0) - np.roll(psi, 1, axis=0)) / (2.0 * hp_x)
    div = (np.roll(u1, -1, axis=0) - np.roll(u1, 1, axis=0)) / (2.0 * hp_x) \
        + (np.roll(u2, -1, axis=1) - np.roll(u2, 1, axis=1)) / (2.0 * hp_y)
    if not np.any(core):
        return 0.0
    return float(np.max(np.abs(div[core])))
