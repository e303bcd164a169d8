import threading

import numpy as np
import pytest

from pressure_lab import mollify
from pressure_lab.fields import make_rough_stream, sample_velocity
from pressure_lab.geometry import GeodesicChart
from pressure_lab.mollify import (MollifierKernel, MollifyError,
                                  divergence_probe, mollify_velocity)


def test_kernel_unit_mass_and_support():
    for eta in (0.0125, 0.00625):
        k = MollifierKernel(eta)
        assert k.shifts.shape == (2 * k.n_sub + 3,)
        assert np.all(np.diff(k.shifts) > 0.0)
        assert np.array_equal(k.shifts, -k.shifts[::-1])
        assert abs(np.sum(k.value) - 1.0) < 1e-12
        # support strictly inside radius eta
        rr = np.hypot(k.shifts[:, None], k.shifts[None, :])
        assert np.all(k.value[rr >= eta] == 0.0)
        assert np.all(k.value >= 0.0)
        # the derivative weights reach one shift past the value's support
        for d in (k.d1, k.d2):
            assert np.any((d != 0.0) & (k.value == 0.0))


def test_kernel_derivative_tables_are_centered_differences():
    # d1 and d2 are the centered differences of value along the first and
    # the second shift axis, at the stencil's spacing, with value zero
    # beyond the stencil
    for n_sub in (2, 4):
        k = MollifierKernel(0.0125, n_sub=n_sub)
        v = np.pad(k.value, 1)
        h2 = 2.0 * k.spacing
        assert np.array_equal(k.d1, (v[2:, 1:-1] - v[:-2, 1:-1]) / h2)
        assert np.array_equal(k.d2, (v[1:-1, 2:] - v[1:-1, :-2]) / h2)
        # even in each axis, so each derivative is odd along its own axis
        assert np.array_equal(k.d1, -k.d1[::-1])
        assert np.array_equal(k.d2, -k.d2[:, ::-1])


def test_eta_guard(disk_chart, cutoffs, collar):
    rough = make_rough_stream(0.5, 0, 1, disk_chart)
    with pytest.raises(MollifyError, match="eta"):
        mollify_velocity(rough.psi, disk_chart, 0.1, cutoffs, collar)


def test_mollify_invariants_one_field(disk_chart, cutoffs, collar):
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    rv = mollify_velocity(rough.psi, disk_chart, 0.0125, cutoffs, collar)
    assert rv.trace_max <= 1e-10
    assert rv.tangency_max <= 1e-8
    assert divergence_probe(rough.psi, disk_chart, 0.0125, cutoffs) <= 1e-8
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
    base = holder_norm(sample_velocity(rough.velocity, disk_chart), 0.5,
                       plan).norm
    for eta in (0.0125, 0.00625):
        rv = mollify_velocity(rough.psi, disk_chart, eta, cutoffs, collar)
        ratio = holder_norm(rv.u_eta, 0.5, plan).norm / base
        assert ratio <= 5.0


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


def _per_shift_sum(kernel, shift_sample, x1, x2):
    """(value, d1, d2) one shift at a time, in row-major shift order."""
    weights = [kernel.value, kernel.d1, kernel.d2]
    sums = [np.zeros_like(x1) for _ in weights]
    for a, sa in enumerate(kernel.shifts):
        for b, sb in enumerate(kernel.shifts):
            if all(w[a, b] == 0.0 for w in weights):
                continue
            sample = shift_sample(x1 - sa, x2 - sb)
            for total, w in zip(sums, weights):
                if w[a, b] != 0.0:
                    total += w[a, b] * sample
    return tuple(sums)


def _active_shifts(kernel, weights):
    """(sa, sb) of the shifts where one of the tables has a nonzero weight,
    in row-major order."""
    return [(sa, sb) for a, sa in enumerate(kernel.shifts)
            for b, sb in enumerate(kernel.shifts)
            if any(w[a, b] != 0.0 for w in weights)]


# the tables a record's shift-sums read, by name: all three (boundary
# nodes), the derivatives alone (interior nodes) and the value alone (the
# probe), with their active shift counts
TABLE_SETS = {("value", "d1", "d2"): 69, ("d1", "d2"): 68, ("value",): 45}


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

    def recorded(x1, x2, shifts, xy):
        calls.append((x1.copy(), x2.copy(), shifts))
        assert xy.shape == (2, len(shifts.a), len(x1))
        return sampler(x1, x2, shifts, xy)

    def tables(names):
        return tuple(getattr(kernel, name) for name in names)

    def check_calls(names):
        shifts = _active_shifts(kernel, tables(names))
        assert len(shifts) == TABLE_SETS[names]
        # every chunk gets the one _Shifts formed for the call
        formed = calls[0][2]
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

    expected = dict(zip(("value", "d1", "d2"), _per_shift_sum(
        kernel, lambda x1, x2: shift_sample(sampler, x1, x2), x1, x2)))
    assert np.any(expected["value"] != 0.0)
    assert np.any(expected["d1"] != 0.0)
    for names in TABLE_SETS:
        got = mollify._shift_sum(recorded, kernel, x1, x2, tables(names))
        check_calls(names)
        assert len(got) == len(names)
        for name, g in zip(names, got):
            assert np.array_equal(expected[name], g)
            # an all-zero sum is +0.0, as the per-shift sum from zeros gives
            assert np.array_equal(np.signbit(expected[name]), np.signbit(g))
    # the divergence probe's chunks are larger; the sums are the same
    value, = mollify._shift_sum(sampler, kernel, x1, x2, (kernel.value,),
                                mollify._PROBE_BLOCK_POINTS)
    assert np.array_equal(expected["value"], value)
    assert np.array_equal(np.signbit(expected["value"]), np.signbit(value))


def test_shift_sum_over_no_points():
    # zero points make no chunk and no sampler call: one empty sum per
    # table
    kernel = MollifierKernel(0.0125)

    def sampler(*args):
        raise AssertionError("sampled with no points")

    got = mollify._shift_sum(sampler, kernel, np.empty(0), np.empty(0),
                             (kernel.d1, kernel.d2))
    assert len(got) == 2
    assert all(g.shape == (0,) and g.dtype == float for g in got)


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
        divergence_probe(psi, disk_chart, 0.0125, cutoffs, probe_n=10)
    assert 0.0 < divergence_probe(psi, disk_chart, 0.0125, cutoffs,
                                  probe_n=11) <= 1e-8
    # the probe checks the mollifier's eta guard itself
    with pytest.raises(MollifyError, match="eta"):
        divergence_probe(psi, disk_chart, 0.1, cutoffs)


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
    c = disk_chart.center
    _, d1, d2 = _per_shift_sum(
        kernel, lambda x1, x2: _interior_shift(inner, x1, x2), c[:1], c[1:])
    assert np.array_equal(rv.u_eta.pole, [-d2[0], d1[0]])

    wall = mollify._BoundarySampler(psi, cutoffs, disk_chart)
    value, _, dt = _per_shift_sum(
        kernel, lambda x1, x2: _boundary_shift(wall, x1, x2),
        np.zeros_like(collar.theta), collar.theta)
    assert rv.trace_max == np.max(np.abs(value))
    assert rv.tangency_max == np.max(np.abs(dt))


# ----------------------------------------------------------------------
# no thread in the mollifier
# ----------------------------------------------------------------------

def test_no_thread_outlives_mollify(disk_chart, cutoffs, collar,
                                    monkeypatch):
    # mollify_velocity starts no thread: psi is called on the caller's
    # thread only, by the boundary node batch and then by the interior one,
    # so an error of the boundary batch is raised before the interior batch
    # runs
    rough = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart)
    caller = threading.current_thread()
    before = threading.active_count()
    threads = set()

    def recorded(pts):
        threads.add(threading.current_thread())
        return rough.psi(pts)

    mollify_velocity(recorded, disk_chart, 0.0125, cutoffs, collar)
    assert threads == {caller}
    assert threading.active_count() == before

    class BoundaryError(Exception):
        pass

    def raising(pts):
        raise BoundaryError

    interior = mollify._InteriorSampler.__call__
    interior_calls = []

    def counted(self, *args):
        interior_calls.append(threading.current_thread())
        return interior(self, *args)

    monkeypatch.setattr(mollify._InteriorSampler, "__call__", counted)
    with pytest.raises(BoundaryError):
        mollify_velocity(raising, disk_chart, 0.0125, cutoffs, collar)
    assert interior_calls == []
    assert threading.active_count() == before
    # the counting sampler is the interior batch's
    mollify_velocity(rough.psi, disk_chart, 0.0125, cutoffs, collar)
    assert interior_calls and set(interior_calls) == {caller}
