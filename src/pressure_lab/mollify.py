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
rounding, for every eta.  Velocities are centered differences (weights d1,
d2 on a stencil one ring wider) of each smoothed part.  The kernel owns
that wider stencil: its shifts and the weight tables value, d1 and d2.

The shift-sum (_shift_sum) runs in point-major blocks.  The points are
split into equal chunks, and each sampler call takes one chunk with every
active shift in row-major order, so the work that a shift component
leaves unchanged is done once per distinct component value of the whole
stencil.  The chunks write their points into one table, allocated once
per shift-sum.  Each output then gathers its sample rows, scales them by
w in place and adds them in that shift order, starting from +0.0, so the
blocked sums are the per-shift sums bit for bit.  Each call passes the
kernel's tables it reads, one output per table, and visits only the
shifts where one of them is nonzero.

The samplers are dense: psi is evaluated on every (shift, point) pair of a
chunk, also where the cutoff weight is zero (the boundary part past depth
delta, the interior part above depth delta - epsilon), and the sample
there is the product 0 * psi, a signed zero.  A partial sum started at
+0.0 is never -0.0, and adding a signed zero leaves any other partial sum
as it is, so these pairs change no sum.  They cost psi points only: at
64x128 a record evaluates 0.3 % (eta = 0.003125) to 4 % (eta = 0.0125)
more than on the support alone.

A record makes four shift-sums: one boundary and one interior sum over
the chart nodes in mollify_velocity, and the two value-only sums of
divergence_probe.  The boundary batch ends with the collar wall
(0, collar.theta), whose rows give trace_max and tangency_max; the interior
batch ends with the chart center, whose row gives the pole velocity.  The
boundary batch reads all three tables; the interior batch reads the two
derivative tables only, and so skips the center shift, whose derivative
weights are zero.

mollify_velocity starts no thread: it runs the boundary batch and then
the interior one on the calling thread.  A record's one helper thread
belongs to pressure.field_record (the record of solve and of every study
row), which at eta > 0 runs divergence_probe on it beside mollify_velocity
and the pressure solve.
The probe builds its own kernel, so the two threads share only psi, which
must therefore be a pure function of its points.  The probe takes chunks
of _PROBE_BLOCK_POINTS pairs, four times the nodes' _BLOCK_POINTS: fewer
chunks take the GIL less often from the calling thread, whose CG makes
many short numpy calls.

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
# (shift, point) pairs per sampler evaluation of the divergence probe, which
# runs on a helper thread beside the mollifier and the pressure solve: fewer
# chunks take the GIL from the calling thread less often (see the module
# docstring)
_PROBE_BLOCK_POINTS = 32768


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------

@dataclass
class MollifierKernel:
    """Radial C^infty bump exp(-1/(1-|x/eta|^2)), support radius exactly eta,
    discretized on a (2n+1)^2 offset stencil with spacing eta/n and weights
    normalized to unit mass.

    The kernel owns the stencil of the shift-sums: the shift components
    `shifts` of a (2n+3)^2 stencil, one ring wider than the weights' own,
    and on it three weight tables, `value` (the normalized
    weights, zero on the outer ring) and `d1`, `d2`, its centered
    differences along the first and the second shift axis."""

    eta: float
    n_sub: int = 4
    shifts: np.ndarray = field(init=False, repr=False)
    value: np.ndarray = field(init=False, repr=False)
    d1: np.ndarray = field(init=False, repr=False)
    d2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.eta <= 0:
            raise MollifyError("eta must be positive")
        n, d = self.n_sub, self.spacing
        a = np.arange(-n, n + 1)
        r2 = (a[:, None] ** 2 + a[None, :] ** 2) / float(n * n)
        w = np.zeros_like(r2)
        inside = r2 < 1.0
        w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        # normalized over the (2n+1)^2 stencil, in its summation order, then
        # widened by the ring the derivative shifts reach
        self.value = np.pad(w / w.sum(), 1)
        self.d1 = (np.roll(self.value, -1, axis=0)
                   - np.roll(self.value, 1, axis=0)) / (2.0 * d)
        self.d2 = (np.roll(self.value, -1, axis=1)
                   - np.roll(self.value, 1, axis=1)) / (2.0 * d)
        self.shifts = np.arange(-n - 1, n + 2) * d

    @property
    def spacing(self):
        return self.eta / self.n_sub


def _shift_sum(sampler, kernel, x1, x2, weights, block_points=_BLOCK_POINTS):
    """The convolution of a 2-variable sampler with each of the kernel's
    weight tables in `weights` (such as (kernel.d1, kernel.d2)) at the
    points: a tuple of one array per table, in their order.

    The sampler visits only the shifts where one of the tables has a
    nonzero weight: at n_sub = 4, (kernel.value,) the 45 shifts of the
    kernel's support, (kernel.d1, kernel.d2) the 68 its differences reach,
    which leave out the center.  Each sampler
    call takes every such shift on a chunk of points, at most block_points
    (shift, point) pairs; zero points make no call.  Callers pass at least
    two points: numpy sums a lone column pairwise, not in shift order, so a
    single point would match the per-shift sum only to rounding."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    outs = tuple(np.empty_like(x1) for _ in weights)
    n = x1.size
    if n == 0:
        return outs
    active = np.argwhere(np.any([w != 0.0 for w in weights], axis=0))
    shifts = _Shifts(kernel.shifts[active[:, 0]], kernel.shifts[active[:, 1]])
    # per table, the rows of its nonzero weights among the active shifts
    # and those weights
    terms = []
    for w in weights:
        wa = w[active[:, 0], active[:, 1]]
        rows = np.flatnonzero(wa)
        terms.append((rows, wa[rows, None]))
    # equal chunks, so that a remainder is never a lone point
    k = len(shifts.a)
    n_chunks = -(-n // max(1, block_points // k))
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    # one table of points serves every chunk, so that the chunks reuse its
    # memory: a fresh table per chunk, with psi's temporaries above it, is
    # handed back to the system and faulted in again each chunk
    points = np.empty(2 * k * -(-n // n_chunks))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        samples = sampler(x1[lo:hi], x2[lo:hi], shifts,
                          points[:2 * k * (hi - lo)].reshape(2, k, hi - lo))
        for out, (rows, w) in zip(outs, terms):
            table = samples[rows]
            table *= w
            # rows added in shift order, from +0.0 (so a column of -0.0
            # sums to +0.0 on any numpy, as it did shift by shift into
            # zeros)
            np.add.reduce(table, axis=0, initial=0.0, out=out[lo:hi])
        # freed before the next chunk is sampled
        del samples, table
    return outs


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

    A sampler is called with N base points (x1, x2), K _Shifts and a
    (2, K, N) array xy that it may overwrite, and returns the (K, N)
    samples at (x1 - a_k, x2 - b_k).  It writes the points into xy,
    component by component, and psi is evaluated once, on the whole
    (K, N, 2) view of it, so that psi reads each coordinate contiguously.
    A pair where the cutoff weight vanishes is evaluated too, and its
    sample is the signed zero 0 * psi; the shift-sum adds it to a partial
    sum started at +0.0, which it leaves as it was (such a partial sum is
    never -0.0), so these pairs change no sum.  Every such point lies in
    the closed disk, where psi is defined.
    """

    def __init__(self, psi, cutoffs: CutoffProfile, chart: InteriorChart):
        self.psi = psi
        self.cutoffs = cutoffs
        self.chart = chart


class _BoundarySampler(_Sampler):
    """Odd-in-s sampler of the boundary stream part phi(s) * psi(X(s, theta)).

    Exactly odd: f(-s, theta) = -f(s, theta); zero for s >= delta (the cutoff
    vanishes there), which keeps the convolution footprint inside the collar.
    The depth terms (|s - a|, the signed cutoff sign(s - a) phi(|s - a|)
    and the radius R - |s - a|) are computed once per distinct shift
    component a and the angle terms once per distinct b; row gathers of
    them form the (K, N) table of points, and psi is evaluated on all of it,
    past the cutoff's support too.  The sign is -1, 0 or 1, so the signed
    cutoff times psi is sign * (cutoff * psi) exactly.  A record's batches
    keep |s - a| below delta + 3 eta, so those points lie at radius
    R - |s - a|, inside the disk.
    """

    def __call__(self, s, theta, shifts, xy):
        chart = self.chart
        ia, ib = shifts.ia, shifts.ib
        shifted = s - shifts.ua[:, None]
        depth = np.abs(shifted)
        # phi is exactly 1 up to delta - epsilon, so it is evaluated on the
        # band (delta - epsilon, delta) only, as the interior sampler does
        plateau = self.cutoffs.delta - self.cutoffs.epsilon
        cut = (depth <= plateau).astype(float)
        band = (depth > plateau) & (depth < self.cutoffs.delta)
        cut[band] = self.cutoffs.phi(depth[band])
        signed_cut = np.sign(shifted)
        signed_cut *= cut
        rad = (chart.radius - depth)[ia]
        del shifted, depth, cut, band
        ang = ((theta - shifts.ub[:, None]) % chart.curve.length) \
            / chart.radius
        # mode="clip" takes straight into out (the default mode goes through
        # a buffer); ia and ib index the distinct values, so none is clipped
        np.take(np.cos(ang), ib, axis=0, out=xy[0], mode="clip")
        np.take(np.sin(ang), ib, axis=0, out=xy[1], mode="clip")
        xy *= rad
        del rad, ang
        xy += chart.center[:, None, None]
        psi = self.psi(np.moveaxis(xy, 0, -1))
        # the signed cutoff is gathered into the table of points, read by now
        np.take(signed_cut, ia, axis=0, out=xy[0], mode="clip")
        psi *= xy[0]
        return psi


class _InteriorSampler(_Sampler):
    """(1 - phi(depth)) * psi in Cartesian coordinates; zero within
    delta - epsilon of the boundary, so its mollification never reaches
    the wall.  The weight is 0 there, 1 - phi in the band delta - epsilon
    < depth < delta (the cutoff is evaluated there only) and exactly 1
    deeper."""

    def __call__(self, x1, x2, shifts, xy):
        np.subtract(x1, shifts.a[:, None], out=xy[0])
        np.subtract(x2, shifts.b[:, None], out=xy[1])
        psi = self.psi(np.moveaxis(xy, 0, -1))
        # the weight is formed in the depth's own table
        weight = self.chart.depth(xy[0], xy[1])
        support = weight > self.cutoffs.delta - self.cutoffs.epsilon
        band = support & (weight < self.cutoffs.delta)
        in_band = 1.0 - self.cutoffs.phi(weight[band])
        np.copyto(weight, support)
        weight[band] = in_band
        psi *= weight
        return psi


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


def mollify_velocity(psi, chart: InteriorChart, eta, cutoffs: CutoffProfile,
                     collar: GeodesicChart, n_sub=4):
    """Regularize the divergence-free tangential field grad^perp psi at
    scale eta, on the nodes of the chart.

    psi is the stream function, a callable of physical points that vanishes
    on the boundary (e.g. RoughStream.psi); it is called on the calling
    thread only, by the boundary node batch and then by the interior one.
    eta must satisfy eta <= epsilon / 4 so that supports stay inside the
    cutoff bands.
    """
    kernel = _kernel(eta, cutoffs, n_sub)
    th, tau, nrm, gam = chart.collar_frame
    depth = chart.node_depth             # the collar depth s of the nodes

    # the smoothed boundary part reaches at most depth delta + eta.  The
    # collar wall (0, collar.theta) follows the nodes in the batch, for
    # trace_max and tangency_max.  The nodes' wall row (depth 0.0, angle
    # chart.theta, both exactly) is their last n_theta points, and its ut is
    # the boundary tangential component
    bmask = depth <= cutoffs.delta + eta + 2.0 * kernel.spacing
    n_b = np.count_nonzero(bmask)
    s_b = np.concatenate([depth[bmask], np.zeros_like(collar.theta)])
    theta_b = np.concatenate([th[bmask], collar.theta])
    # the chart center follows the nodes in the batch: its row is the pole
    imask = depth >= cutoffs.delta - cutoffs.epsilon - eta - 2.0 * kernel.spacing
    x = np.concatenate([chart.points[imask], chart.center[None, :]])

    pb, ds, dt = _shift_sum(_BoundarySampler(psi, cutoffs, chart), kernel,
                            s_b, theta_b, (kernel.value, kernel.d1, kernel.d2))
    d1, d2 = _shift_sum(_InteriorSampler(psi, cutoffs, chart), kernel,
                        x[:, 0], x[:, 1], (kernel.d1, kernel.d2))

    u_vals = np.zeros(depth.shape + (2,))
    un_vals = np.zeros_like(depth)
    trace_max = float(np.max(np.abs(pb[n_b:])))
    tangency_max = float(np.max(np.abs(dt[n_b:])))   # J = 1 at s = 0
    J = 1.0 + depth[bmask] * gam[bmask]
    ut = -ds[:n_b]
    un = dt[:n_b] / J
    u_vals[bmask] += ut[:, None] * tau[bmask] + un[:, None] * nrm[bmask]
    un_vals[bmask] += un

    ui = np.stack([-d2, d1], axis=-1)
    u_vals[imask] += ui[:-1]
    un_vals[imask] += np.einsum("jk,jk->j", ui[:-1], nrm[imask])
    return RegularizedVelocity(
        u_eta=GridField(chart, u_vals, pole=ui[-1]),
        eta=float(eta),
        boundary_tangential=ut[-chart.n_theta:],
        normal_component=un_vals,
        trace_max=trace_max,
        tangency_max=tangency_max,
    )


def _kernel(eta, cutoffs, n_sub):
    """The kernel at scale eta, which must keep supports inside the cutoff
    bands: eta <= epsilon / 4."""
    if eta > cutoffs.epsilon / 4.0 + 1e-12:
        raise MollifyError(f"eta = {eta:.3g} exceeds epsilon/4 = "
                           f"{cutoffs.epsilon / 4.0:.3g}")
    return MollifierKernel(float(eta), n_sub=n_sub)


def divergence_probe(psi, chart: InteriorChart, eta, cutoffs: CutoffProfile,
                     n_sub=4, probe_n=128):
    """Rounding of a difference-curl's divergence, the divergence_max of a
    record: psi^eta is resampled on a uniform Cartesian probe grid of side
    probe_n (value-only shift-sums, with the kernel mollify_velocity uses
    at the same eta and n_sub) and the centered-difference divergence of
    its centered-difference curl is taken there.

    It does not measure the u_eta that mollify_velocity returns.  The two
    difference operators commute on the probe grid, so the result is
    rounding noise for any psi^eta; it reads nothing of u_eta, which
    differentiates the boundary and interior parts in their own coordinates
    and is not divergence-free across the cutoff band.

    The divergence is read on the core: the points more than two probe
    cells deep whose two-cell neighbourhood is too.  On the disk that core
    is empty for probe_n <= 10, which raises MollifyError."""
    kernel = _kernel(eta, cutoffs, n_sub)
    lo = np.min(chart.curve.x, axis=0)
    hi = np.max(chart.curve.x, axis=0)
    xs = np.linspace(lo[0], hi[0], probe_n)
    ys = np.linspace(lo[1], hi[1], probe_n)
    hp_x = xs[1] - xs[0]
    hp_y = ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    depth, theta = (c.reshape(X.shape) for c in chart.collar_coords(pts))
    del pts
    inside = depth > 2.0 * max(hp_x, hp_y)
    core = np.zeros_like(inside)
    core[2:-2, 2:-2] = True
    for shift in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1),
                  (-1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)):
        core &= np.roll(np.roll(inside, shift[0], axis=0), shift[1], axis=1)
    if not np.any(core):
        raise MollifyError(f"probe_n = {probe_n} leaves the divergence "
                           "probe no core point")
    # the boundary part of psi^eta on the probe points near the collar,
    # the interior part on the deep ones.  The grids are freed once read,
    # and psi^eta is assembled after the shift-sums, so that their chunks
    # reuse the memory the grids held
    near = inside & (depth <= cutoffs.delta + 2.0 * kernel.eta)
    deep = inside & (depth >= cutoffs.delta - cutoffs.epsilon -
                     2.0 * kernel.eta)
    near_st = depth[near], theta[near]
    deep_xy = X[deep], Y[deep]
    del X, Y, depth, theta, inside
    psi_b, = _shift_sum(_BoundarySampler(psi, cutoffs, chart), kernel,
                        *near_st, (kernel.value,), _PROBE_BLOCK_POINTS)
    psi_i, = _shift_sum(_InteriorSampler(psi, cutoffs, chart), kernel,
                        *deep_xy, (kernel.value,), _PROBE_BLOCK_POINTS)
    psi_eta = np.zeros((probe_n, probe_n))
    psi_eta[near] += psi_b
    psi_eta[deep] += psi_i
    # u = grad^perp psi by centered differences, divergence likewise; the
    # core lies two cells inside the grid, so the differences are taken on
    # the slices that reach it, u1 on the columns 1..n-2 and u2 on the rows
    # 1..n-2, and div on the rows and columns 1..n-2
    u1 = -(psi_eta[:, 2:] - psi_eta[:, :-2]) / (2.0 * hp_y)
    u2 = (psi_eta[2:, :] - psi_eta[:-2, :]) / (2.0 * hp_x)
    del psi_eta
    div = (u1[2:, :] - u1[:-2, :]) / (2.0 * hp_x) \
        + (u2[:, 2:] - u2[:, :-2]) / (2.0 * hp_y)
    return float(np.max(np.abs(div[core[1:-1, 1:-1]])))
