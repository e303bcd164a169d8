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
then adds its w * sample rows in that shift order, starting from +0.0, so
the blocked sums are the per-shift sums bit for bit.  Each call names the
outputs it reads, and visits only the shifts where one of their weights
is nonzero.

The samplers are dense: psi is evaluated on every (shift, point) pair of a
chunk, also where the cutoff weight is zero (the boundary part past depth
delta, the interior part above depth delta - epsilon), and the sample
there is the product 0 * psi, a signed zero.  A partial sum started at
+0.0 is never -0.0, and adding a signed zero leaves any other partial sum
as it is, so these pairs change no sum.  They cost psi points only: at
64x128 a record evaluates 0.3 % (eta = 0.003125) to 4 % (eta = 0.0125)
more than on the support alone.

A record makes four shift-sums: one boundary and one interior sum over
the chart nodes, and the two value-only sums of the divergence probe.  The
boundary batch ends with the collar wall (0, collar.theta), whose rows give
trace_max and tangency_max; the interior batch ends with the chart center,
whose row gives the pole velocity.  The boundary batch reads all three
outputs; the interior batch reads the two derivatives only, and so skips
the center shift, whose derivative weights are zero.

The two node batches run on the calling thread and the probe's two sums on
one helper thread started per call and joined before mollify_velocity
returns, so no thread outlives a call (a process that forks afterwards,
such as a study's worker pool, copies none).  The probe depends on psi
alone and has its own convolutions, so the threads share no mutable state;
numpy releases the GIL in the sine, BLAS and reduction loops of each
chunk, so the two halves run mostly in parallel, and each sum does the
same operations in the same order as it would alone.  The pressure solve
that follows stays on one thread: its CG makes about thirty short numpy
calls per iteration, and the GIL hand-offs of running the probe beside it
cost more than the overlap saved.

divergence_max does not measure the returned u_eta.  It is the rounding of
the centered-difference divergence of a centered-difference curl of
psi^eta on a uniform Cartesian probe grid, where the two difference
operators commute, so it reads rounding noise for any psi^eta.  The
returned u_eta differentiates the boundary and interior parts in their own
coordinates, and is not divergence-free across the cutoff band.

Both samplers read the stream function through the caller's callable of
physical points, such as RoughStream.psi.
"""

import threading
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
    """Pointwise convolution of a 2-variable sampler with a MollifierKernel:
    the smoothed value and its two centered first derivatives, of which
    each call names the ones it wants.  Each sampler call takes every active
    shift on a chunk of points, at most _BLOCK_POINTS (shift, point) pairs.
    Callers pass at least two points: numpy sums a lone column pairwise, not
    in shift order, so a single point would match the per-shift sum only to
    rounding."""

    def __init__(self, sampler, kernel: MollifierKernel):
        self.sampler = sampler
        self.kernel = kernel
        n = kernel.n_sub
        d = kernel.spacing
        # union stencil includes one extra ring for the derivative shifts
        self.shifts = np.arange(-n - 1, n + 2) * d
        w = np.zeros((2 * n + 3, 2 * n + 3))
        w[1:-1, 1:-1] = kernel.weights
        self.weights = {
            "value": w,
            "d1": (np.roll(w, -1, axis=0) - np.roll(w, 1, axis=0)) / (2.0 * d),
            "d2": (np.roll(w, -1, axis=1) - np.roll(w, 1, axis=1)) / (2.0 * d),
        }
        # the requests formed so far, by the outputs they name: the active
        # shifts and, per output, the rows of its nonzero weights and those
        # weights
        self._requests = {}

    def _request(self, outputs):
        if outputs not in self._requests:
            weights = [self.weights[name] for name in outputs]
            active = np.argwhere(np.any([w != 0.0 for w in weights], axis=0))
            shifts = _Shifts(self.shifts[active[:, 0]],
                             self.shifts[active[:, 1]])
            terms = []
            for w in weights:
                wa = w[active[:, 0], active[:, 1]]
                rows = np.flatnonzero(wa)
                terms.append((rows, wa[rows, None]))
            self._requests[outputs] = shifts, terms
        return self._requests[outputs]

    def __call__(self, x1, x2, outputs=("value", "d1", "d2")):
        """The named outputs at the points, a tuple in the order named.  The
        sampler visits only the shifts where a named output has a nonzero
        weight: ("value",) the kernel's own support, ("d1", "d2") every
        shift of the wider ring but the center."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shifts, terms = self._request(tuple(outputs))
        outs = [np.empty_like(x1) for _ in terms]
        # equal chunks, so that a remainder is never a lone point
        n = x1.size
        n_chunks = -(-n // max(1, _BLOCK_POINTS // len(shifts.a)))
        bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            samples = self.sampler(x1[lo:hi], x2[lo:hi], shifts)
            for out, (rows, w) in zip(outs, terms):
                # rows added in shift order, from +0.0 (so a column of -0.0
                # sums to +0.0 on any numpy, as it did shift by shift into
                # zeros)
                np.add.reduce(w * samples[rows], axis=0, initial=0.0,
                              out=out[lo:hi])
        return tuple(outs)


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
    once, on the whole (K, N) table of points, a view of a (2, K, N) array
    so that psi reads each coordinate contiguously.  A pair where the cutoff
    weight vanishes is evaluated too, and its sample is the signed zero
    0 * psi; the shift-sum adds it to a partial sum started at +0.0, which
    it leaves as it was (such a partial sum is never -0.0), so these pairs
    change no sum.  Every such point lies in the closed disk, where psi is
    defined.
    """

    def __init__(self, psi, cutoffs: CutoffProfile, chart: InteriorChart):
        self.psi = psi
        self.cutoffs = cutoffs
        self.chart = chart


class _BoundarySampler(_Sampler):
    """Odd-in-s sampler of the boundary stream part phi(s) * psi(X(s, theta)).

    Exactly odd: f(-s, theta) = -f(s, theta); zero for s >= delta (the cutoff
    vanishes there), which keeps the convolution footprint inside the collar.
    The depth terms (|s - a|, its sign, the cutoff and the radius R - |s - a|)
    are computed once per distinct shift component a and the angle terms
    once per distinct b; row gathers of them form the (K, N) table of points,
    and psi is evaluated on all of it, past the cutoff's support too.  A
    record's batches keep |s - a| below delta + 3 eta, so those points lie
    at radius R - |s - a|, inside the disk.
    """

    def __call__(self, s, theta, shifts):
        chart = self.chart
        ia, ib = shifts.ia, shifts.ib
        shifted = s - shifts.ua[:, None]
        depth = np.abs(shifted)
        cut = np.zeros_like(depth)
        inside = depth < self.cutoffs.delta
        cut[inside] = self.cutoffs.phi(depth[inside])
        rad = (chart.radius - depth)[ia]
        ang = ((theta - shifts.ub[:, None]) % chart.curve.length) \
            / chart.radius
        xy = np.empty((2,) + rad.shape)
        np.multiply(rad, np.cos(ang)[ib], out=xy[0])
        np.multiply(rad, np.sin(ang)[ib], out=xy[1])
        xy += chart.center[:, None, None]
        psi = self.psi(np.moveaxis(xy, 0, -1))
        return np.sign(shifted)[ia] * (cut[ia] * psi)


class _InteriorSampler(_Sampler):
    """(1 - phi(depth)) * psi in Cartesian coordinates; zero within
    delta - epsilon of the boundary, so its mollification never reaches
    the wall.  The weight is 0 there, 1 - phi in the band delta - epsilon
    < depth < delta (the cutoff is evaluated there only) and exactly 1
    deeper."""

    def __call__(self, x1, x2, shifts):
        xy = np.empty((2, len(shifts.a), len(x1)))
        p1 = np.subtract(x1, shifts.a[:, None], out=xy[0])
        p2 = np.subtract(x2, shifts.b[:, None], out=xy[1])
        depth = self.chart.depth(p1, p2)
        support = depth > self.cutoffs.delta - self.cutoffs.epsilon
        weight = support.astype(float)
        band = support & (depth < self.cutoffs.delta)
        weight[band] = 1.0 - self.cutoffs.phi(depth[band])
        return weight * self.psi(np.moveaxis(xy, 0, -1))


# ----------------------------------------------------------------------
# regularized velocity
# ----------------------------------------------------------------------

@dataclass
class RegularizedVelocity:
    u_eta: GridField
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
    on the boundary (e.g. RoughStream.psi).  It is called from two threads
    at once (the node batches and the divergence probe), so it must be a
    pure function of its points, as RoughStream.psi is.  eta must satisfy
    eta <= epsilon / 4 so that supports stay inside the cutoff bands.
    """
    if eta > cutoffs.epsilon / 4.0 + 1e-12:
        raise MollifyError(f"eta = {eta:.3g} exceeds epsilon/4 = "
                           f"{cutoffs.epsilon / 4.0:.3g}")
    kernel = MollifierKernel(float(eta), n_sub=n_sub)
    conv_b, conv_i = _convolutions(psi, kernel, cutoffs, chart)

    # --- divergence probe, on a helper thread beside the node batches ----
    probe = {}

    def run_probe():
        try:
            probe["max"] = _probe_divergence(
                *_convolutions(psi, kernel, cutoffs, chart), chart, cutoffs,
                probe_n)
        except BaseException as exc:     # re-raised on the calling thread
            probe["error"] = exc

    helper = threading.Thread(target=run_probe, name="mollify-probe")
    helper.start()
    try:
        u_eta, ut_boundary, un_vals, trace_max, tangency_max = _node_batches(
            conv_b, conv_i, chart, eta, kernel, cutoffs, collar)
    finally:
        helper.join()
    if "error" in probe:
        raise probe["error"]

    return RegularizedVelocity(
        u_eta=u_eta,
        eta=float(eta),
        boundary_tangential=ut_boundary,
        normal_component=un_vals,
        trace_max=trace_max,
        tangency_max=tangency_max,
        divergence_max=probe["max"],
    )


def _convolutions(psi, kernel, cutoffs, chart):
    """A (boundary, interior) pair of convolutions of psi; each has its own
    request cache, so each thread gets its own pair."""
    return (_StencilConvolution(_BoundarySampler(psi, cutoffs, chart),
                                kernel),
            _StencilConvolution(_InteriorSampler(psi, cutoffs, chart),
                                kernel))


def _node_batches(conv_b, conv_i, chart, eta, kernel, cutoffs, collar):
    """(u_eta, boundary tangential, normal component, trace_max,
    tangency_max) from the boundary and interior shift-sums at the chart
    nodes."""
    th, tau, nrm, gam = chart.collar_frame
    depth = chart.node_depth             # the collar depth s of the nodes
    u_vals = np.zeros(depth.shape + (2,))
    un_vals = np.zeros_like(depth)

    # the smoothed boundary part reaches at most depth delta + eta.  The
    # collar wall (0, collar.theta) follows the nodes in the batch, for
    # trace_max and tangency_max.  The nodes' wall row (depth 0.0, angle
    # chart.theta, both exactly) is their last n_theta points, and its ut is
    # the boundary tangential component
    bmask = depth <= cutoffs.delta + eta + 2.0 * kernel.spacing
    n_b = np.count_nonzero(bmask)
    pb, ds, dt = conv_b(np.concatenate([depth[bmask],
                                        np.zeros_like(collar.theta)]),
                        np.concatenate([th[bmask], collar.theta]))
    trace_max = float(np.max(np.abs(pb[n_b:])))
    tangency_max = float(np.max(np.abs(dt[n_b:])))   # J = 1 at s = 0
    J = 1.0 + depth[bmask] * gam[bmask]
    ut = -ds[:n_b]
    un = dt[:n_b] / J
    u_vals[bmask] += ut[:, None] * tau[bmask] + un[:, None] * nrm[bmask]
    un_vals[bmask] += un
    ut_boundary = ut[-chart.n_theta:]

    # the chart center follows the nodes in the batch: its row is the pole
    imask = depth >= cutoffs.delta - cutoffs.epsilon - eta - 2.0 * kernel.spacing
    x = np.concatenate([chart.points[imask], chart.center[None, :]])
    d1, d2 = conv_i(x[:, 0], x[:, 1], outputs=("d1", "d2"))
    ui = np.stack([-d2, d1], axis=-1)
    pole_u = ui[-1]
    u_vals[imask] += ui[:-1]
    un_vals[imask] += np.einsum("jk,jk->j", ui[:-1], nrm[imask])
    return (GridField(chart, u_vals, pole=pole_u), ut_boundary, un_vals,
            trace_max, tangency_max)


def _probe_divergence(conv_b, conv_i, chart, cutoffs, probe_n):
    """Rounding of a difference-curl's divergence: psi^eta is resampled on a
    uniform Cartesian probe grid (value-only shift-sums) and the centered
    difference divergence of its centered-difference curl is taken there.
    The two operators commute on that grid, so the result is rounding noise
    for any psi^eta; it reads nothing of the returned u_eta.

    The divergence is read on the core: the points more than two probe
    cells deep whose two-cell neighbourhood is too.  On the disk that core
    is empty for probe_n <= 10, which raises MollifyError."""
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
    core = np.zeros_like(inside)
    core[2:-2, 2:-2] = True
    for shift in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1),
                  (-1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)):
        core &= np.roll(np.roll(inside, shift[0], axis=0), shift[1], axis=1)
    if not np.any(core):
        raise MollifyError(f"probe_n = {probe_n} leaves the divergence "
                           "probe no core point")
    psi = np.zeros_like(X)
    # boundary part of psi on the probe points near the collar
    eta = conv_b.kernel.eta
    near = inside & (depth <= cutoffs.delta + 2.0 * eta)
    if np.any(near):
        psi[near] += conv_b(depth[near], theta[near], outputs=("value",))[0]
    deep = inside & (depth >= cutoffs.delta - cutoffs.epsilon -
                     2.0 * conv_i.kernel.eta)
    if np.any(deep):
        psi[deep] += conv_i(X[deep], Y[deep], outputs=("value",))[0]
    # u = grad^perp psi by centered differences, divergence likewise
    u1 = -(np.roll(psi, -1, axis=1) - np.roll(psi, 1, axis=1)) / (2.0 * hp_y)
    u2 = (np.roll(psi, -1, axis=0) - np.roll(psi, 1, axis=0)) / (2.0 * hp_x)
    div = (np.roll(u1, -1, axis=0) - np.roll(u1, 1, axis=0)) / (2.0 * hp_x) \
        + (np.roll(u2, -1, axis=1) - np.roll(u2, 1, axis=1)) / (2.0 * hp_y)
    return float(np.max(np.abs(div[core])))
