import numpy as np
import pytest

from pressure_lab import mollify
from pressure_lab.fields import make_rough_stream
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
    val, d1, d2 = (np.zeros_like(x1) for _ in range(3))
    for a, sa in enumerate(conv.shifts):
        for b, sb in enumerate(conv.shifts):
            if conv.w0[a, b] == 0.0 and conv.w1[a, b] == 0.0 \
                    and conv.w2[a, b] == 0.0:
                continue
            sample = shift_sample(x1 - sa, x2 - sb)
            if conv.w0[a, b] != 0.0:
                val += conv.w0[a, b] * sample
            if conv.w1[a, b] != 0.0:
                d1 += conv.w1[a, b] * sample
            if conv.w2[a, b] != 0.0:
                d2 += conv.w2[a, b] * sample
    return val, d1, d2


def _active_shifts(conv, value_only):
    """(sa, sb) of the shifts with a nonzero weight, in row-major order."""
    weights = (conv.w0,) if value_only else (conv.w0, conv.w1, conv.w2)
    return [(sa, sb) for a, sa in enumerate(conv.shifts)
            for b, sb in enumerate(conv.shifts)
            if any(w[a, b] != 0.0 for w in weights)]


# the sampled stream is the analytic one, the only kind the mollifier takes
@pytest.mark.parametrize("stream", ["analytic"])
@pytest.mark.parametrize("part", ["boundary", "interior"])
# a lone point (the pole, for the interior), one chunk, a count that chunks
# of _BLOCK_POINTS // 69 points would leave a lone remainder of, and many
# chunks
@pytest.mark.parametrize("n_points", [1, 40, mollify._BLOCK_POINTS // 69 + 1,
                                      mollify._BLOCK_POINTS // 3 + 1])
def test_blocked_shift_sum_matches_per_shift_loop(disk_chart, cutoffs, stream,
                                                  part, n_points):
    psi = make_rough_stream(1.0 / 3.0, 7, 2, disk_chart).psi
    kernel = MollifierKernel(0.0125)
    rng = np.random.default_rng(n_points)
    if part == "boundary":
        # depths on both sides of the wall and past the cutoff's support
        # on both sides
        x1 = rng.uniform(-cutoffs.delta - 0.05, cutoffs.delta + 0.05,
                         n_points)
        x2 = rng.uniform(0.0, disk_chart.curve.length, n_points)
        sampler = mollify._BoundarySampler(psi, cutoffs, disk_chart)
        shift_sample = _boundary_shift
    elif n_points == 1:
        x1, x2 = disk_chart.center[:1], disk_chart.center[1:]
        sampler = mollify._InteriorSampler(psi, cutoffs, disk_chart)
        shift_sample = _interior_shift
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

    def check_calls(value_only):
        shifts = _active_shifts(conv, value_only)
        assert len(shifts) == (45 if value_only else 69)
        # every chunk gets the one _Shifts formed for the request
        formed = conv._requests[value_only][0]
        assert all(c[2] is formed for c in calls)
        assert list(zip(formed.a, formed.b)) == shifts
        # the chunks cover every point once, in order, with no lone
        # remainder and at most _BLOCK_POINTS pairs each
        assert np.array_equal(np.concatenate([c[0] for c in calls]), x1)
        assert np.array_equal(np.concatenate([c[1] for c in calls]), x2)
        sizes = [len(c[0]) for c in calls]
        assert min(sizes) > 1 or n_points == 1
        assert max(sizes) * len(shifts) <= mollify._BLOCK_POINTS
        calls.clear()

    conv = mollify._StencilConvolution(recorded, kernel)
    expected = _per_shift_sum(
        conv, lambda x1, x2: shift_sample(sampler, x1, x2), x1, x2)
    got = conv(x1, x2)
    check_calls(value_only=False)
    for e, g in zip(expected, got):
        assert np.array_equal(e, g)
        # an all-zero sum is +0.0, as the per-shift sum from zeros gives
        assert np.array_equal(np.signbit(e), np.signbit(g))
    assert np.any(expected[0] != 0.0) and np.any(expected[1] != 0.0)
    value = conv(x1, x2, value_only=True)
    check_calls(value_only=True)
    assert np.array_equal(value, expected[0])
    assert np.array_equal(np.signbit(value), np.signbit(expected[0]))
