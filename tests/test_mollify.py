import sys
import threading

import numpy as np
import pytest

from pressure_lab import mollify
from pressure_lab.fields import make_rough_stream
from pressure_lab.geometry import GeodesicChart
from pressure_lab.mollify import (MollifierKernel, MollifyError,
                                  mollify_velocity)


def test_kernel_unit_mass_and_support():
    for eta in (0.0125, 0.00625):
        k = MollifierKernel(eta)
        assert abs(np.sum(k.weights) - 1.0) < 1e-12
        # support strictly inside radius eta
        rr = np.hypot(k.offsets[:, None], k.offsets[None, :])
        assert np.all(k.weights[rr >= eta] == 0.0)
        assert np.all(k.weights >= 0.0)


def test_eta_guard(disk_chart, cutoffs, collar):
    rough = make_rough_stream(0.5, 0, 1, disk_chart)
    with pytest.raises(MollifyError, match="eta"):
        mollify_velocity(rough.psi, disk_chart, 0.1, cutoffs, collar)


def test_mollify_invariants_one_field(disk_chart, cutoffs, collar):
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    rv = mollify_velocity(rough.psi, disk_chart, 0.0125, cutoffs, collar)
    assert rv.trace_max <= 1e-10
    assert rv.tangency_max <= 1e-8
    assert rv.divergence_max <= 1e-8
    assert rv.u_eta.values.shape == disk_chart.points.shape


@pytest.mark.parametrize("eta", [0.0125, 0.00625, 0.003125])
def test_boundary_tangential_is_trace_of_u_eta(disk_chart, cutoffs, collar,
                                               eta):
    # the Neumann datum of the pressure solve reads boundary_tangential: it
    # is the tangential trace of the returned field, not a second estimate
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    rv = mollify_velocity(rough.psi, disk_chart, eta, cutoffs, collar)
    tau = disk_chart.collar_frame[1]
    trace = np.einsum("jk,jk->j", rv.u_eta.values[-1], tau[-1])
    ut = rv.boundary_tangential
    assert ut.shape == (disk_chart.n_theta,)
    assert np.max(np.abs(ut - trace)) <= 1e-14 * np.max(np.abs(ut))


def test_mollify_smooth_field_convergence(disk_chart, cutoffs, collar):
    # analytic smooth stream: convergence of u^eta -> u under eta halving
    def psi_fn(pts):
        rr = np.einsum("...k,...k->...", pts, pts)
        return (1.0 - rr) * np.sin(pts[..., 0])

    import sympy as sp
    x, y = sp.symbols("x y")
    p = (1 - x**2 - y**2) * sp.sin(x)
    fu = sp.lambdify((x, y), sp.Matrix([-sp.diff(p, y), sp.diff(p, x)]),
                     "numpy")
    uv = fu(disk_chart.points[..., 0], disk_chart.points[..., 1])
    uvals = np.stack([np.asarray(uv[0]), np.asarray(uv[1])], axis=-1)
    uvals = uvals.reshape(disk_chart.points.shape)

    errs = []
    for eta in (0.0125, 0.00625, 0.003125):
        rv = mollify_velocity(psi_fn, disk_chart, eta, cutoffs, collar)
        errs.append(np.max(np.abs(rv.u_eta.values - uvals)))
    assert errs[0] > errs[1] > errs[2]
    # pre-asymptotic at these eta (cutoff-band constants ~1/eps^2 and an
    # O(eta) wall seam), so demand halving rather than full quartering
    assert errs[0] / errs[2] > 3.0


def test_mollify_preserves_smooth_holder_norm(disk_chart, cutoffs, collar):
    from pressure_lab.norms import build_pair_plan, holder_norm
    rough = make_rough_stream(0.5, 4, 2, disk_chart)
    plan = build_pair_plan(disk_chart.points, seed=0, n_random=10000)
    base = holder_norm(rough.velocity_field(), 0.5, plan).norm
    for eta in (0.0125, 0.00625):
        rv = mollify_velocity(rough.psi, disk_chart, eta, cutoffs, collar)
        ratio = holder_norm(rv.u_eta, 0.5, plan).norm / base
        assert ratio <= 5.0


def test_mollify_diagnostics_record(disk_chart, cutoffs, collar):
    rough = make_rough_stream(0.25, 1, 1, disk_chart)
    rv = mollify_velocity(rough.psi, disk_chart, 0.00625, cutoffs, collar)
    d = rv.diagnostics()
    assert set(d) == {"eta", "trace_max", "tangency_max", "divergence_max"}
    assert d["eta"] == 0.00625


# ----------------------------------------------------------------------
# the per-shift shift-sum, kept as the oracle of the blocked one
# ----------------------------------------------------------------------

def _boundary_shift(sampler, s, theta):
    """Boundary sampler at one shift, as it was evaluated shift by shift."""
    chart, cutoffs = sampler.chart, sampler.cutoffs
    r = np.abs(s)
    out = np.zeros_like(r)
    mask = r < cutoffs.delta
    if np.any(mask):
        sm = r[mask]
        ang = (theta[mask] % chart.curve.length) / chart.radius
        pts = chart.center + (chart.radius - sm)[:, None] * \
            np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        out[mask] = cutoffs.phi(sm) * sampler.psi(pts)
    return np.sign(s) * out


def _interior_shift(sampler, x1, x2):
    """Interior sampler at one shift, as it was evaluated shift by shift."""
    pts = np.stack([x1, x2], axis=-1)
    depth = sampler.chart.depth(x1, x2)
    out = np.zeros(len(pts))
    mask = depth > sampler.cutoffs.delta - sampler.cutoffs.epsilon
    if np.any(mask):
        out[mask] = (1.0 - sampler.cutoffs.phi(depth[mask])) * \
            sampler.psi(pts[mask])
    return out


def _per_shift_sum(conv, shift_sample, x1, x2):
    """(value, d1, d2) one shift at a time, in row-major shift order."""
    weights = [conv.weights[name] for name in ("value", "d1", "d2")]
    sums = [np.zeros_like(x1) for _ in weights]
    for a, sa in enumerate(conv.shifts):
        for b, sb in enumerate(conv.shifts):
            if all(w[a, b] == 0.0 for w in weights):
                continue
            sample = shift_sample(x1 - sa, x2 - sb)
            for total, w in zip(sums, weights):
                if w[a, b] != 0.0:
                    total += w[a, b] * sample
    return tuple(sums)


def _active_shifts(conv, outputs):
    """(sa, sb) of the shifts where a named output has a nonzero weight, in
    row-major order."""
    weights = [conv.weights[name] for name in outputs]
    return [(sa, sb) for a, sa in enumerate(conv.shifts)
            for b, sb in enumerate(conv.shifts)
            if any(w[a, b] != 0.0 for w in weights)]


# the requests a record makes: every output (boundary nodes), the
# derivatives alone (interior nodes) and the value alone (the probe), with
# their active shift counts
REQUESTS = {("value", "d1", "d2"): 69, ("d1", "d2"): 68, ("value",): 45}


# the sampled stream is the analytic one, the only kind the mollifier takes
@pytest.mark.parametrize("stream", ["analytic"])
@pytest.mark.parametrize("part", ["boundary", "interior"])
# one chunk, a count that chunks of _BLOCK_POINTS // 69 points would leave
# a lone remainder of, and many chunks
@pytest.mark.parametrize("n_points", [40, mollify._BLOCK_POINTS // 69 + 1,
                                      mollify._BLOCK_POINTS // 3 + 1])
def test_blocked_shift_sum_matches_per_shift_loop(disk_chart, cutoffs, stream,
                                                  part, n_points):
    psi = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart).psi
    kernel = MollifierKernel(0.0125)
    rng = np.random.default_rng(n_points)
    if part == "boundary":
        # depths on both sides of the wall and past the cutoff's support
        # on both sides; then the wall from either side (s = +0.0, -0.0)
        # and depths equal to stencil shifts, where s - a is exactly 0 and
        # its sign is 0
        x1 = rng.uniform(-cutoffs.delta - 0.05, cutoffs.delta + 0.05,
                         n_points)
        x1[-6:] = [0.0, -0.0, kernel.spacing, -kernel.spacing,
                   5.0 * kernel.spacing, -5.0 * kernel.spacing]
        x2 = rng.uniform(0.0, disk_chart.curve.length, n_points)
        sampler = mollify._BoundarySampler(psi, cutoffs, disk_chart)
        shift_sample = _boundary_shift
    else:
        # the disk, including the cutoff band and the core
        r = np.sqrt(rng.uniform(0.0, 1.0, n_points))
        t = rng.uniform(0.0, 2.0 * np.pi, n_points)
        x1, x2 = r * np.cos(t), r * np.sin(t)
        sampler = mollify._InteriorSampler(psi, cutoffs, disk_chart)
        shift_sample = _interior_shift
    calls = []

    def recorded(x1, x2, shifts):
        calls.append((x1.copy(), x2.copy(), shifts))
        return sampler(x1, x2, shifts)

    def check_calls(outputs):
        shifts = _active_shifts(conv, outputs)
        assert len(shifts) == REQUESTS[outputs]
        # every chunk gets the one _Shifts formed for the request
        formed = conv._requests[outputs][0]
        assert all(c[2] is formed for c in calls)
        assert list(zip(formed.a, formed.b)) == shifts
        # the chunks cover every point once, in order, with no lone
        # remainder and at most _BLOCK_POINTS pairs each
        assert np.array_equal(np.concatenate([c[0] for c in calls]), x1)
        assert np.array_equal(np.concatenate([c[1] for c in calls]), x2)
        sizes = [len(c[0]) for c in calls]
        assert min(sizes) > 1
        assert max(sizes) * len(shifts) <= mollify._BLOCK_POINTS
        calls.clear()

    conv = mollify._StencilConvolution(recorded, kernel)
    expected = dict(zip(("value", "d1", "d2"), _per_shift_sum(
        conv, lambda x1, x2: shift_sample(sampler, x1, x2), x1, x2)))
    assert np.any(expected["value"] != 0.0)
    assert np.any(expected["d1"] != 0.0)
    for outputs in REQUESTS:
        got = conv(x1, x2, outputs=outputs)
        check_calls(outputs)
        assert len(got) == len(outputs)
        for name, g in zip(outputs, got):
            assert np.array_equal(expected[name], g)
            # an all-zero sum is +0.0, as the per-shift sum from zeros gives
            assert np.array_equal(np.signbit(expected[name]), np.signbit(g))


def test_psi_is_sampled_in_the_closed_disk(disk_chart, cutoffs, collar):
    # the samplers evaluate psi past the cutoff's support too, and weight
    # it by zero there; that is safe for a stream defined on the closed
    # disk only if every point it is given lies in it
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    radii = []

    def recorded(pts):
        rel = pts - disk_chart.center
        radii.append(np.max(np.hypot(rel[..., 0], rel[..., 1])))
        return rough.psi(pts)

    for eta in (0.0125, 0.003125):
        rv = mollify_velocity(recorded, disk_chart, eta, cutoffs, collar)
        assert rv.trace_max <= 1e-10
    # the wall is reached at radius R - |s - a| = R, up to the rounding of
    # the angle's cosine and sine
    assert max(radii) <= disk_chart.radius * (1.0 + 4.0 * np.finfo(float).eps)


def test_empty_probe_core_raises(disk_chart, cutoffs, collar):
    # a probe grid of side 10 has no point two cells inside the disk with
    # its two-cell neighbourhood; it used to report divergence_max = 0.0
    psi = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart).psi
    with pytest.raises(MollifyError, match="probe_n = 10"):
        mollify_velocity(psi, disk_chart, 0.0125, cutoffs, collar,
                         probe_n=10)
    rv = mollify_velocity(psi, disk_chart, 0.0125, cutoffs, collar,
                          probe_n=11)
    assert 0.0 < rv.divergence_max <= 1e-8


@pytest.mark.parametrize("eta", [0.0125, 0.00625, 0.003125])
def test_pole_and_wall_trace_ride_in_the_node_batches(disk_chart, circle,
                                                      cutoffs, eta):
    # the pole velocity is the interior shift-sum at the chart center, and
    # the trace diagnostics the boundary shift-sum on the collar wall; a
    # collar of 97 angles meets the chart's 128 wall nodes at theta = 0 only
    collar = GeodesicChart(circle, cutoffs.delta, 16, 97)
    psi = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart).psi
    rv = mollify_velocity(psi, disk_chart, eta, cutoffs, collar)
    kernel = MollifierKernel(eta)

    inner = mollify._InteriorSampler(psi, cutoffs, disk_chart)
    conv = mollify._StencilConvolution(inner, kernel)
    c = disk_chart.center
    _, d1, d2 = _per_shift_sum(
        conv, lambda x1, x2: _interior_shift(inner, x1, x2), c[:1], c[1:])
    assert np.array_equal(rv.u_eta.pole, [-d2[0], d1[0]])

    wall = mollify._BoundarySampler(psi, cutoffs, disk_chart)
    conv = mollify._StencilConvolution(wall, kernel)
    value, _, dt = _per_shift_sum(
        conv, lambda x1, x2: _boundary_shift(wall, x1, x2),
        np.zeros_like(collar.theta), collar.theta)
    assert rv.trace_max == np.max(np.abs(value))
    assert rv.tangency_max == np.max(np.abs(dt))


# ----------------------------------------------------------------------
# the divergence probe's helper thread
# ----------------------------------------------------------------------

def test_no_thread_outlives_mollify(disk_chart, cutoffs, collar):
    # the probe runs on a helper thread started and joined per call: after a
    # normal call, a probe that raises and a node batch that raises, no
    # thread is left behind (a study forks its pool workers afterwards)
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    caller = threading.current_thread()
    before = threading.active_count()
    threads = set()

    def recorded(pts):
        threads.add(threading.current_thread())
        return rough.psi(pts)

    mollify_velocity(recorded, disk_chart, 0.0125, cutoffs, collar)
    # psi was called on the caller's thread and on one other
    assert caller in threads and len(threads) == 2
    assert not any(t.is_alive() for t in threads - {caller})
    assert threading.active_count() == before

    with pytest.raises(MollifyError, match="probe_n = 10"):
        mollify_velocity(rough.psi, disk_chart, 0.0125, cutoffs, collar,
                         probe_n=10)
    assert threading.active_count() == before

    class NodeBatchError(Exception):
        pass

    def raising(pts):
        if threading.current_thread() is caller:
            raise NodeBatchError
        return rough.psi(pts)

    with pytest.raises(NodeBatchError):
        mollify_velocity(raising, disk_chart, 0.0125, cutoffs, collar)
    assert threading.active_count() == before


def test_outputs_do_not_depend_on_thread_switching(disk_chart, cutoffs,
                                                   collar):
    # each shift-sum sees the same operations in the same order whatever
    # the interleaving of the two threads: a switch every microsecond
    # changes no bit, and divergence_max is the probe's own value
    psi = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart).psi
    eta = 0.00625
    default = mollify_velocity(psi, disk_chart, eta, cutoffs, collar)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        switched = mollify_velocity(psi, disk_chart, eta, cutoffs, collar)
    finally:
        sys.setswitchinterval(interval)
    for name in ("boundary_tangential", "normal_component"):
        assert np.array_equal(getattr(default, name), getattr(switched, name))
    assert np.array_equal(default.u_eta.values, switched.u_eta.values)
    assert np.array_equal(default.u_eta.pole, switched.u_eta.pole)
    assert default.diagnostics() == switched.diagnostics()
    kernel = MollifierKernel(eta)
    alone = mollify._probe_divergence(
        *mollify._convolutions(psi, kernel, cutoffs, disk_chart), disk_chart,
        cutoffs, 128)
    assert switched.divergence_max == alone
