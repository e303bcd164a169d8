"""Norm estimators: sup, C^{0,alpha} Holder (sampled lower bound), and the
negative Sobolev H^{-2} norm on the boundary circle.

The Holder seminorm is estimated over a fixed pair plan (axis-neighbor pairs
at dyadic separations plus seeded random pairs) and is always a lower bound
of the true seminorm; ratio diagnostics must reuse one plan on both sides.
"""

from dataclasses import dataclass

import numpy as np

from .fields import GridField


class NormError(ValueError):
    pass


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
    description: str = "dyadic-axis+random"

    @property
    def n_pairs(self):
        return self.idx_a.size


def build_pair_plan(points, seed=0, n_random=100_000, min_dist=None):
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
    flat = points.reshape(npts, 2)
    index = np.arange(npts).reshape(n1, n2)

    if min_dist is None:
        # smallest positive axis-neighbor distance defines "one grid cell"
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
    idx_a = np.concatenate(ia)
    idx_b = np.concatenate(ib)

    dist = np.linalg.norm(flat[idx_a] - flat[idx_b], axis=-1)
    keep = dist >= min_dist * (1.0 - 1e-12)
    if not np.any(keep):
        raise NormError("empty pair plan after the minimum-distance filter")
    return PairPlan(idx_a[keep].astype(np.int64), idx_b[keep].astype(np.int64),
                    dist[keep], int(seed), int(n_random))


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

    def as_record(self):
        return {"alpha": self.alpha, "sup": self.sup_norm,
                "seminorm": self.seminorm, "plan_seed": self.plan_seed,
                "pair_count": self.pair_count}


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
    inv = plan.dist ** (-alpha)
    # component by component, each one contiguous; max is exact in any order
    diff = None
    for column in np.ascontiguousarray(flat.T):
        d = np.abs(column.take(plan.idx_a) - column.take(plan.idx_b))
        diff = d if diff is None else np.maximum(diff, d, out=diff)
    semi = float(np.max(diff * inv))
    sup = float(np.max(np.abs(flat)))
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

@dataclass
class NegSobolevNorm:
    order: int
    period: float
    value: float


def h_minus2_norm(samples, period):
    """H^{-2} norm of boundary samples on a uniform theta grid of length 2^k.

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
    value = float(np.sqrt(np.sum(weights * mags * mult)))
    return NegSobolevNorm(-2, float(period), value)
