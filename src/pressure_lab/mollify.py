"""Tangency-preserving regularization u -> u^eta.

Pipeline: take the stream function of u from the caller, split it into a
boundary part (cutoff times psi, handled in collar coordinates with odd
extension through the wall) and an interior part (Euclidean convolution),
convolve each with a compactly supported radial bump, and differentiate the
smoothed stream function.

The convolution is evaluated pointwise as a weighted sum over a fixed
stencil of offsets xi_k = (eta/4) * k, |xi_k| < eta, so every invariant is
structural: the kernel weights are even in each offset axis, the extended
boundary stream is odd in s, hence the smoothed stream (and its theta
derivative) vanish identically at s = 0 -- tangency and zero trace hold to
rounding, for every eta.  Velocities are centered differences (weights w1,
w2 on a stencil one ring wider) of each smoothed part.

The shift-sum runs in point-major blocks.  The points are split into equal
chunks, and each sampler call takes one chunk with every active shift in
row-major order, so the work that a shift component leaves unchanged is
done once per distinct component value of the whole stencil.  Each output
then adds its w * sample rows in that shift order, starting from +0.0 (a
lone point is added by an explicit loop, since numpy sums a single column
pairwise), so the blocked sums are the per-shift sums bit for bit.  A
request for the smoothed value alone visits only the shifts of the
kernel's support.

divergence_max does not measure the returned u_eta.  It is the rounding of
the centered-difference divergence of a centered-difference curl of
psi^eta on a uniform Cartesian probe grid, where the two difference
operators commute, so it reads rounding noise for any psi^eta.  The
returned u_eta differentiates the boundary and interior parts in their own
coordinates, and is not divergence-free across the cutoff band.

Both samplers read the stream function through the caller's callable of
physical points, such as RoughStream.psi.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import GridField, InteriorChart
from .geometry import CutoffProfile, GeodesicChart


class MollifyError(ValueError):
    pass


# (shift, point) pairs per sampler evaluation: a chunk of points holds about
# _BLOCK_POINTS / (number of active shifts) points, which bounds the
# temporaries of one call (psi's phases are a few times this many floats);
# twice as many raised the peak RSS of a 64x128 study record by about 1 MB
# and ran no faster
_BLOCK_POINTS = 8192


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
    returning the smoothed value and its two centered first derivatives.
    Each sampler call takes every active shift on a chunk of points, at most
    _BLOCK_POINTS (shift, point) pairs."""

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
        # the two requests, each formed once: its active shifts and, per
        # output, the rows of its nonzero weights and those weights
        self._requests = {value_only: self._request(value_only)
                          for value_only in (False, True)}

    def _request(self, value_only):
        weights = (self.w0,) if value_only else (self.w0, self.w1, self.w2)
        active = np.argwhere(np.any([w != 0.0 for w in weights], axis=0))
        shifts = _Shifts(self.shifts[active[:, 0]], self.shifts[active[:, 1]])
        terms = []
        for w in weights:
            wa = w[active[:, 0], active[:, 1]]
            rows = np.flatnonzero(wa)
            terms.append((rows, wa[rows, None]))
        return shifts, terms

    def __call__(self, x1, x2, value_only=False):
        """(value, d1, d2) at the points, or the value alone, which visits
        only the shifts of the kernel's own support."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shifts, terms = self._requests[value_only]
        outs = [np.empty_like(x1) for _ in terms]
        # equal chunks, so that a remainder is never a lone point
        n = x1.size
        n_chunks = -(-n // max(1, _BLOCK_POINTS // len(shifts.a)))
        bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            samples = self.sampler(x1[lo:hi], x2[lo:hi], shifts)
            for out, (rows, w) in zip(outs, terms):
                products = w * samples[rows]
                if hi - lo > 1:
                    # rows added in shift order, from +0.0 (so a column of
                    # -0.0 sums to +0.0 on any numpy, as it did shift by
                    # shift into zeros)
                    np.add.reduce(products, axis=0, initial=0.0,
                                  out=out[lo:hi])
                else:
                    # numpy would sum a lone column pairwise
                    total = 0.0
                    for p in products[:, 0]:
                        total += p
                    out[lo] = total
        return outs[0] if value_only else tuple(outs)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

class _Shifts:
    """K stencil shifts in row-major order: the components (a, b) of each
    shift, and the distinct values of each component (ua, ub) with each
    shift's index among them (ia, ib)."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.ua, self.ia = np.unique(a, return_inverse=True)
        self.ub, self.ib = np.unique(b, return_inverse=True)


class _Sampler:
    """A cutoff-weighted part of the stream psi, a callable of physical
    points.

    A sampler is called with N base points (x1, x2) and K _Shifts and
    returns the (K, N) samples at (x1 - a_k, x2 - b_k); psi is evaluated
    once, on the points of all K shifts stacked together.
    """

    def __init__(self, psi, cutoffs: CutoffProfile, chart: InteriorChart):
        self.psi = psi
        self.cutoffs = cutoffs
        self.chart = chart


class _BoundarySampler(_Sampler):
    """Odd-in-s sampler of the boundary stream part phi(s) * psi(X(s, theta)).

    Exactly odd: f(-s, theta) = -f(s, theta); zero for s >= delta (the cutoff
    vanishes there), which keeps the convolution footprint inside the collar.
    The depth terms (|s - a|, its sign, the cutoff and the radius factor)
    are computed once per distinct shift component a and the angle terms
    once per distinct b; only psi is evaluated per shift.
    """

    def __call__(self, s, theta, shifts):
        chart = self.chart
        ia = shifts.ia
        shifted = s - shifts.ua[:, None]
        depth = np.abs(shifted)
        inside = depth < self.cutoffs.delta
        pairs = inside[ia]
        out = np.zeros(pairs.shape)
        k, n = np.nonzero(pairs)
        if len(k):
            cut = np.zeros_like(depth)
            cut[inside] = self.cutoffs.phi(depth[inside])
            ang = ((theta - shifts.ub[:, None]) % chart.curve.length) \
                / chart.radius
            # flat (a, point) and (b, point) positions of the pairs
            at, bt = ia[k] * len(s) + n, shifts.ib[k] * len(s) + n
            rad = (chart.radius - depth).take(at)
            pts = np.stack([chart.center[0] + rad * np.cos(ang).take(bt),
                            chart.center[1] + rad * np.sin(ang).take(bt)],
                           axis=-1)
            out[pairs] = cut.take(at) * self.psi(pts)
        return np.sign(shifted)[ia] * out


class _InteriorSampler(_Sampler):
    """(1 - phi(depth)) * psi in Cartesian coordinates; zero within
    delta - epsilon of the boundary, so its mollification never reaches
    the wall.  The cutoff is evaluated on the band delta - epsilon < depth
    < delta only: deeper, 1 - phi is exactly 1."""

    def __call__(self, x1, x2, shifts):
        p1, p2 = x1 - shifts.a[:, None], x2 - shifts.b[:, None]
        depth = self.chart.depth(p1, p2)
        out = np.zeros(depth.shape)
        mask = depth > self.cutoffs.delta - self.cutoffs.epsilon
        if np.any(mask):
            out[mask] = self.psi(np.stack([p1[mask], p2[mask]], axis=-1))
            band = mask & (depth < self.cutoffs.delta)
            out[band] *= 1.0 - self.cutoffs.phi(depth[band])
        return out


# ----------------------------------------------------------------------
# regularized velocity
# ----------------------------------------------------------------------

@dataclass
class RegularizedVelocity:
    u_eta: GridField
    psi_eta: GridField
    eta: float
    boundary_tangential: np.ndarray      # u^eta . tau on the boundary nodes
    normal_component: np.ndarray         # u^eta . n at the chart nodes
    trace_max: float
    tangency_max: float
    divergence_max: float

    def diagnostics(self):
        return {"eta": self.eta, "trace_max": self.trace_max,
                "tangency_max": self.tangency_max,
                "divergence_max": self.divergence_max}


def mollify_velocity(psi, chart: InteriorChart, eta, cutoffs: CutoffProfile,
                     collar: GeodesicChart, n_sub=4, probe_n=128):
    """Regularize the divergence-free tangential field grad^perp psi at
    scale eta, on the nodes of the chart.

    psi is the stream function, a callable of physical points that vanishes
    on the boundary (e.g. RoughStream.psi).  eta must satisfy
    eta <= epsilon / 4 so that supports stay inside the cutoff bands.
    """
    if eta > cutoffs.epsilon / 4.0 + 1e-12:
        raise MollifyError(f"eta = {eta:.3g} exceeds epsilon/4 = "
                           f"{cutoffs.epsilon / 4.0:.3g}")
    kernel = MollifierKernel(float(eta), n_sub=n_sub)
    conv_b = _StencilConvolution(_BoundarySampler(psi, cutoffs, chart),
                                 kernel)
    conv_i = _StencilConvolution(_InteriorSampler(psi, cutoffs, chart),
                                 kernel)

    # --- chart evaluation -------------------------------------------------
    th, tau, nrm, gam = chart.collar_frame
    depth = chart.node_depth             # the collar depth s of the nodes
    psi_vals = np.zeros_like(depth)
    u_vals = np.zeros(depth.shape + (2,))
    un_vals = np.zeros_like(depth)

    # the smoothed boundary part reaches at most depth delta + eta; the wall
    # row (depth 0.0, angle chart.theta, both exactly) is its last n_theta
    # points, and its ut is the boundary tangential component
    bmask = depth <= cutoffs.delta + eta + 2.0 * kernel.spacing
    pb, ds, dt = conv_b(depth[bmask], th[bmask])
    J = 1.0 + depth[bmask] * gam[bmask]
    ut = -ds
    un = dt / J
    psi_vals[bmask] += pb
    u_vals[bmask] += ut[:, None] * tau[bmask] + un[:, None] * nrm[bmask]
    un_vals[bmask] += un
    ut_boundary = ut[-chart.n_theta:]

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

    return RegularizedVelocity(
        u_eta=GridField(chart, u_vals, pole=pole_u),
        psi_eta=GridField(chart, psi_vals),
        eta=float(eta),
        boundary_tangential=ut_boundary,
        normal_component=un_vals,
        trace_max=trace_max,
        tangency_max=tangency_max,
        divergence_max=divergence_max,
    )


def _probe_divergence(conv_b, conv_i, chart, cutoffs, probe_n):
    """Rounding of a difference-curl's divergence: psi^eta is resampled on a
    uniform Cartesian probe grid (value-only shift-sums) and the centered
    difference divergence of its centered-difference curl is taken there.
    The two operators commute on that grid, so the result is rounding noise
    for any psi^eta; it reads nothing of the returned u_eta."""
    lo = np.min(chart.curve.x, axis=0)
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
        psi[near] += conv_b(depth[near], theta[near], value_only=True)
    deep = inside & (depth >= cutoffs.delta - cutoffs.epsilon -
                     2.0 * conv_i.kernel.eta)
    if np.any(deep):
        psi[deep] += conv_i(X[deep], Y[deep], value_only=True)
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
