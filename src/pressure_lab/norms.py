"""Norm estimators: sup, C^{0,alpha} Holder (sampled lower bound), and the
negative Sobolev H^{-2} norm on the boundary circle.

The Holder seminorm is estimated over a fixed pair plan (axis-neighbor pairs
at dyadic separations plus seeded random pairs) and is always a lower bound
of the true seminorm; ratio diagnostics must reuse one plan on both sides.

A plan grows like N log N pairs (118 K at 64x128, 2.1 M at 256x512); the
memory around it does not.  The plan stores int32 indices and is filtered
one dyadic piece at a time, so its build never holds the unfiltered plan.
holder_norm reduces the pairs in blocks of _BLOCK = 8192: besides one
contiguous copy of the field, each of its temporaries holds at most 8192
doubles (64 KB), below glibc's 128 KB mmap threshold, whatever the pair
count.  Maxima are exact in any order, so every value is the same bit for
bit as a reduction over the whole plan at once.
"""

from dataclasses import dataclass

import numpy as np

from .fields import GridField


class NormError(ValueError):
    pass


_BLOCK = 8192           # pairs per block of holder_norm


# ----------------------------------------------------------------------
# pair plans
# ----------------------------------------------------------------------

@dataclass
class PairPlan:
    """Sampled point pairs on a fixed point cloud, with their distances."""

    idx_a: np.ndarray
    idx_b: np.ndarray
    dist: np.ndarray
    seed: int
    n_random: int

    @property
    def n_pairs(self):
        return self.idx_a.size


def build_pair_plan(points, seed=0, n_random=100_000):
    """Pair plan on a structured point cloud of shape (n1, n2, 2).

    Axis-neighbor pairs at separations 1, 2, 4, ... cells along both grid
    axes, plus n_random seeded uniform pairs.  Pairs closer than one grid
    cell (physically) are dropped.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[-1] != 2:
        raise NormError("expected points with shape (n1, n2, 2)")
    n1, n2 = points.shape[:2]
    npts = n1 * n2
    if npts >= 2**31:
        raise NormError(f"{npts} points exceed the int32 pair indices")
    x = np.ascontiguousarray(points[..., 0]).ravel()
    y = np.ascontiguousarray(points[..., 1]).ravel()
    index = np.arange(npts, dtype=np.int32).reshape(n1, n2)

    # smallest positive axis-neighbor distance defines "one grid cell"
    d1 = np.linalg.norm(points[1:] - points[:-1], axis=-1)
    d2 = np.linalg.norm(np.roll(points, -1, axis=1) - points, axis=-1)
    candidates = np.concatenate([d1.ravel(), d2.ravel()])
    floor = float(np.min(candidates[candidates > 0])) * (1.0 - 1e-12)

    ia, ib, dist = [], [], []

    def add(a, b):
        # |p_a - p_b| is the sum np.linalg.norm forms, by component instead
        # of per pair; each piece is filtered as it is made, so the
        # unfiltered plan is never held
        dx = x.take(a) - x.take(b)
        dy = y.take(a) - y.take(b)
        d = np.sqrt(dx * dx + dy * dy)
        keep = d >= floor
        ia.append(a[keep])
        ib.append(b[keep])
        dist.append(d[keep])

    sep = 1
    while sep < max(n1, n2):
        if sep < n1:
            add(index[:-sep].ravel(), index[sep:].ravel())
        if sep < n2:
            add(index.ravel(), np.roll(index, -sep, axis=1).ravel())
        sep *= 2
    rng = np.random.default_rng(seed)
    # int64 draws keep the generator's stream; the values fit int32
    ra = rng.integers(0, npts, size=n_random)
    rb = rng.integers(0, npts, size=n_random)
    add(ra.astype(np.int32), rb.astype(np.int32))
    dist = np.concatenate(dist)
    if dist.size == 0:
        raise NormError("empty pair plan after the minimum-distance filter")
    return PairPlan(np.concatenate(ia), np.concatenate(ib), dist,
                    int(seed), int(n_random))


# ----------------------------------------------------------------------
# Holder estimates
# ----------------------------------------------------------------------

@dataclass
class HolderEstimate:
    alpha: float
    sup_norm: float
    seminorm: float
    plan_seed: int
    pair_count: int

    @property
    def norm(self):
        return self.sup_norm + self.seminorm


def holder_norm(f, alpha, plan: PairPlan) -> HolderEstimate:
    """Sampled lower bound of the C^{0,alpha} norm over the plan's pairs.

    f: GridField or sample array whose first two axes match the plan's point
    cloud; trailing axes are treated as components (seminorm and sup take the
    componentwise max).
    """
    if not 0.0 < alpha < 1.0:
        raise NormError("alpha must lie in (0, 1)")
    values = f.values if isinstance(f, GridField) else np.asarray(f, dtype=float)
    npts = values.shape[0] * values.shape[1]
    flat = values.reshape(npts, -1)
    if plan.n_pairs == 0:
        raise NormError("empty pair plan")
    # a private copy, one contiguous column per component: each gather
    # reads one column, and the sup takes |.| of the copy in place
    columns = flat.T.copy()
    semi = -np.inf
    for start in range(0, plan.n_pairs, _BLOCK):
        ia = plan.idx_a[start:start + _BLOCK]
        ib = plan.idx_b[start:start + _BLOCK]
        # componentwise max of |a - b|; max is exact in any order
        diff = None
        for column in columns:
            d = np.abs(column.take(ia) - column.take(ib))
            diff = d if diff is None else np.maximum(diff, d, out=diff)
        diff *= plan.dist[start:start + _BLOCK] ** (-alpha)
        # np.maximum, not max(): a NaN still poisons the seminorm
        semi = np.maximum(semi, diff.max())
    sup = float(np.max(np.abs(columns, out=columns)))
    return HolderEstimate(float(alpha), sup, float(semi),
                          plan.seed, int(plan.n_pairs))


def c0_distance(f, g):
    """sup |f - g| for two sample sets on a common grid."""
    fv = f.values if isinstance(f, GridField) else np.asarray(f, dtype=float)
    gv = g.values if isinstance(g, GridField) else np.asarray(g, dtype=float)
    if fv.shape != gv.shape:
        raise NormError(f"shape mismatch {fv.shape} vs {gv.shape}")
    return float(np.max(np.abs(fv - gv)))


# ----------------------------------------------------------------------
# negative Sobolev norm on the boundary circle
# ----------------------------------------------------------------------

def h_minus2_norm(samples, period):
    """H^{-2} norm (a float) of boundary samples on a uniform theta grid of
    length 2^k.

    ||g||^2 = sum_k (1 + (2 pi k / L)^2)^{-2} |g_k|^2 with
    g_k = (1/L) * integral of g e^{-2 pi i k theta / L}; the mean mode k=0
    carries weight one.
    """
    g = np.asarray(samples, dtype=float)
    if g.ndim != 1:
        raise NormError("expected one-dimensional boundary samples")
    n = g.size
    if n < 2 or n & (n - 1):
        raise NormError(f"sample count {n} must be a power of two")
    coeffs = np.fft.rfft(g) / n
    k = np.arange(coeffs.size)
    weights = (1.0 + (2.0 * np.pi * k / period) ** 2) ** -2
    mags = np.abs(coeffs) ** 2
    # double the strictly-positive modes (negative k twins); the Nyquist
    # coefficient of an even-length real FFT already aggregates +/- k
    mult = np.full(coeffs.size, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    return float(np.sqrt(np.sum(weights * mags * mult)))
