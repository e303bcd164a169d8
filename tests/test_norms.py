import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressure_lab.fields import InteriorChart
from pressure_lab.norms import (_BLOCK, NormError, PairPlan, build_pair_plan,
                                c0_distance, h_minus2_norm, holder_norm)


@pytest.fixture(scope="module")
def plan(disk_chart_factory=None):
    from pressure_lab.geometry import build_curve
    from pressure_lab.fields import InteriorChart
    chart = InteriorChart(build_curve({"kind": "circle", "radius": 1.0}, 256),
                          32, 64)
    return chart, build_pair_plan(chart.points, seed=0, n_random=5000)


def test_h_minus2_cosine_value():
    th = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    val = h_minus2_norm(np.cos(th), 2.0 * np.pi)
    assert abs(val - 1.0 / (2.0 * np.sqrt(2.0))) < 1e-12


def test_h_minus2_constant():
    # mean mode carries weight one: ||c||_{H^-2} = |c|
    val = h_minus2_norm(np.full(64, 3.25), 2.0 * np.pi)
    assert abs(val - 3.25) < 1e-13


def test_h_minus2_high_modes_suppressed():
    th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    low = h_minus2_norm(np.cos(th), 2.0 * np.pi)
    high = h_minus2_norm(np.cos(16 * th), 2.0 * np.pi)
    assert high < low / 100.0


def test_h_minus2_length_guard():
    with pytest.raises(NormError, match="power of two"):
        h_minus2_norm(np.zeros(100), 2.0 * np.pi)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.integers(min_value=1, max_value=10))
def test_h_minus2_scaling(scale, mode):
    th = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    g = np.sin(mode * th)
    base = h_minus2_norm(g, 2.0 * np.pi)
    scaled = h_minus2_norm(scale * g, 2.0 * np.pi)
    assert abs(scaled - abs(scale) * base) < 1e-12 * max(1.0, abs(scale))


def test_holder_constant_field(plan):
    chart, pp = plan
    f = np.full((chart.n_rho, chart.n_theta), 2.5)
    est = holder_norm(f, 0.5, pp)
    assert est.seminorm == 0.0
    assert est.norm == 2.5


def test_holder_lower_bound_linear(plan):
    # f = x1 with alpha = 1: seminorm is exactly 1, sampling from below
    chart, pp = plan
    f = chart.points[..., 0]
    est = holder_norm(f, 0.999, pp)
    # seminorm of x1 at alpha -> 1 tends to 1, up to d^0.001 for d <= 2
    assert 0.5 < est.norm <= 1.0 + 2.0 ** 0.001 + 1e-9


def test_holder_monotone_in_alpha(plan):
    # seminorm grows as alpha does for separations < 1
    chart, pp = plan
    f = np.cos(3.0 * chart.points[..., 0]) * chart.points[..., 1]
    lo = holder_norm(f, 0.25, pp).seminorm
    hi = holder_norm(f, 0.75, pp).seminorm
    assert hi >= lo


def test_holder_vector_is_component_max(plan):
    chart, pp = plan
    f1 = chart.points[..., 0] ** 2
    f2 = np.zeros_like(f1)
    stacked = np.stack([f1, f2], axis=-1)
    est1 = holder_norm(f1, 0.5, pp)
    est2 = holder_norm(stacked, 0.5, pp)
    assert abs(est1.norm - est2.norm) < 1e-14


def _row_gather_holder(values, alpha, plan):
    """(seminorm, sup) by a gather of whole rows and a max over the
    component axis: the formula holder_norm used before it reduced column
    by column, kept as its oracle."""
    npts = values.shape[0] * values.shape[1]
    flat = np.ascontiguousarray(values.reshape((npts,) + values.shape[2:]))
    diff = np.abs(flat[plan.idx_a] - flat[plan.idx_b])
    if diff.ndim > 1:
        diff = diff.max(axis=tuple(range(1, diff.ndim)))
    return (float(np.max(diff * plan.dist ** (-alpha))),
            float(np.max(np.abs(flat))))


def test_holder_matches_row_gather_oracle(disk_chart):
    from pressure_lab.fields import make_rough_stream, sample_velocity
    from pressure_lab.pressure import tensor_square
    pp = build_pair_plan(disk_chart.points, seed=0, n_random=20000)
    rough = make_rough_stream(1.0 / 3.0, 3, 2, disk_chart)
    u = sample_velocity(rough.velocity, disk_chart)
    for f in (tensor_square(u), u, u.values[..., 0]):
        values = f.values if hasattr(f, "values") else f
        for alpha in (0.25, 1.0 / 3.0, 0.75):
            est = holder_norm(f, alpha, pp)
            assert (est.seminorm, est.sup_norm) == \
                _row_gather_holder(values, alpha, pp)
    # a NaN in one component still poisons the seminorm
    values = tensor_square(u).values.copy()
    values[5, 7, 1] = np.nan
    assert np.isnan(holder_norm(values, 0.5, pp).seminorm)
    assert np.isnan(_row_gather_holder(values, 0.5, pp)[0])


def _only_in(plan, start, stop):
    """A point that pairs of plan[start:stop] use and no other pair does."""
    inside = np.union1d(plan.idx_a[start:stop], plan.idx_b[start:stop])
    rest = np.concatenate([plan.idx_a[:start], plan.idx_a[stop:],
                           plan.idx_b[:start], plan.idx_b[stop:]])
    return int(np.setdiff1d(inside, rest)[0])


def test_holder_blocks_match_row_gather_oracle(disk_chart):
    # plans of less than one block and of a partial last block; a NaN read
    # only by the first or only by the last block poisons the seminorm
    full = build_pair_plan(disk_chart.points, seed=0, n_random=20000)
    rng = np.random.default_rng(11)
    values = rng.normal(size=(disk_chart.n_rho, disk_chart.n_theta, 3))
    for count in (_BLOCK // 3, 2 * _BLOCK + 123):
        assert count % _BLOCK
        # random pairs only, so a point read by one block alone exists
        order = np.arange(full.n_pairs - count, full.n_pairs)
        pp = PairPlan(full.idx_a[order], full.idx_b[order], full.dist[order],
                      full.seed, full.n_random)
        for f in (values, values[..., 1]):
            for alpha in (0.25, 0.75):
                est = holder_norm(f, alpha, pp)
                assert (est.seminorm, est.sup_norm) == \
                    _row_gather_holder(f, alpha, pp)
        last = ((count - 1) // _BLOCK) * _BLOCK
        for start, stop in ((0, min(_BLOCK, count)), (last, count)):
            point = _only_in(pp, start, stop)
            poisoned = values.copy()
            poisoned.reshape(-1, 3)[point, 2] = np.nan
            assert np.isnan(holder_norm(poisoned, 0.5, pp).seminorm)
            assert np.isnan(_row_gather_holder(poisoned, 0.5, pp)[0])


def test_holder_memory_bounded_by_blocks(disk_chart_fine):
    # 128x256: 479 K pairs.  A reduction over the whole plan at once holds
    # several pair-length temporaries (about 20 MB); the blocked one holds
    # one copy of the field (0.8 MB) and a few 64 KB blocks
    pp = build_pair_plan(disk_chart_fine.points, seed=0, n_random=20000)
    values = np.random.default_rng(5).normal(
        size=(disk_chart_fine.n_rho, disk_chart_fine.n_theta, 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        holder_norm(values, 0.5, pp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert pp.n_pairs > 50 * _BLOCK
    assert peak < 4e6


def _row_gather_plan(points, seed, n_random):
    """(idx_a, idx_b, dist) by the formula build_pair_plan used before it
    filtered piece by piece: one gather of whole rows of the unfiltered
    plan and np.linalg.norm, kept as its oracle."""
    n1, n2 = points.shape[:2]
    npts = n1 * n2
    flat = points.reshape(npts, 2)
    index = np.arange(npts).reshape(n1, n2)
    d1 = np.linalg.norm(points[1:] - points[:-1], axis=-1)
    d2 = np.linalg.norm(np.roll(points, -1, axis=1) - points, axis=-1)
    candidates = np.concatenate([d1.ravel(), d2.ravel()])
    min_dist = float(np.min(candidates[candidates > 0]))
    ia, ib = [], []
    sep = 1
    while sep < max(n1, n2):
        if sep < n1:
            ia.append(index[:-sep].ravel())
            ib.append(index[sep:].ravel())
        if sep < n2:
            ia.append(index.ravel())
            ib.append(np.roll(index, -sep, axis=1).ravel())
        sep *= 2
    rng = np.random.default_rng(seed)
    ia.append(rng.integers(0, npts, size=n_random))
    ib.append(rng.integers(0, npts, size=n_random))
    idx_a, idx_b = np.concatenate(ia), np.concatenate(ib)
    dist = np.linalg.norm(flat[idx_a] - flat[idx_b], axis=-1)
    keep = dist >= min_dist * (1.0 - 1e-12)
    return idx_a[keep], idx_b[keep], dist[keep]


@pytest.mark.parametrize("shape", [(16, 32), (64, 128), (40, 24)])
def test_pair_plan_matches_row_gather_oracle(circle, shape):
    chart = InteriorChart(circle, *shape)
    pp = build_pair_plan(chart.points, seed=2, n_random=5000)
    idx_a, idx_b, dist = _row_gather_plan(chart.points, 2, 5000)
    assert pp.idx_a.dtype == pp.idx_b.dtype == np.int32
    assert np.array_equal(pp.idx_a.astype(np.int64), idx_a)
    assert np.array_equal(pp.idx_b.astype(np.int64), idx_b)
    assert pp.dist.tobytes() == dist.tobytes()


def test_pair_plan_deterministic():
    from pressure_lab.geometry import build_curve
    from pressure_lab.fields import InteriorChart
    chart = InteriorChart(build_curve({"kind": "circle", "radius": 1.0}, 256),
                          16, 32)
    a = build_pair_plan(chart.points, seed=3, n_random=1000)
    b = build_pair_plan(chart.points, seed=3, n_random=1000)
    assert np.array_equal(a.idx_a, b.idx_a)
    assert np.array_equal(a.idx_b, b.idx_b)
    c = build_pair_plan(chart.points, seed=4, n_random=1000)
    assert not np.array_equal(a.idx_a, c.idx_a)


def test_pair_plan_min_separation():
    from pressure_lab.geometry import build_curve
    from pressure_lab.fields import InteriorChart
    chart = InteriorChart(build_curve({"kind": "circle", "radius": 1.0}, 256),
                          16, 32)
    pp = build_pair_plan(chart.points, seed=0, n_random=2000)
    assert np.min(pp.dist) > 0.0


def test_c0_distance():
    a = np.array([[0.0, 1.0], [2.0, -3.0]])
    b = np.array([[0.5, 1.0], [2.0, -1.0]])
    assert c0_distance(a, b) == 2.0
    assert c0_distance(a, a) == 0.0

