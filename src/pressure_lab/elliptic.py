"""Linear solvers: pure-Neumann Poisson on the interior chart, and the mixed
Neumann/Dirichlet slab problem on the collar with its discrete Green
columns.

The interior solver uses a vertex-centered finite-volume stencil on the
polar (rho, theta) chart of the disk with a dedicated pole cell, so the
operator is symmetric positive semidefinite and conjugate gradients
applies; the constant nullspace of the Neumann problem is projected out
every iteration.  The CG runs in place: the stencil is one kernel on the
flat vector (grid rows, pole) that writes into a caller's buffer, and
every update writes into buffers allocated once per solve.
Each element sees the operations of the textbook form (np.roll stencil,
allocating updates) in the same order, so iterates, iteration counts and
residuals are the same bit for bit.
Boundary data enter through face fluxes: with theta an arc-length parameter
the outer face of a boundary cell carries exactly -g * h_theta for interior
normal data d_n p = g.

The slab operator has one coefficient per row on the disk's collar and is
diagonal in theta: it factors the tridiagonal system of every theta-mode
once, and each solve is an rFFT, one forward and one backward sweep over
the rows acting on all modes together, and the inverse rFFT.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import GridField, InteriorChart
from .geometry import GeodesicChart


class SolverError(RuntimeError):
    pass


@dataclass
class LinearSolveReport:
    iterations: int
    residual: float
    compat_defect: float = 0.0
    converged: bool = True

    def as_record(self):
        return {"iterations": self.iterations, "residual": self.residual,
                "compat_defect": self.compat_defect,
                "converged": self.converged}


# ----------------------------------------------------------------------
# interior-chart stencil
# ----------------------------------------------------------------------

class _StarStencil:
    """Face coefficients and cell volumes of the interior-chart Laplacian.

    The polar chart of the disk is orthogonal (grad rho orthogonal to grad
    theta), so the face-flux coefficients below carry no cross-metric term.
    """

    def __init__(self, chart: InteriorChart):
        self.chart = chart
        n, h, ht = chart.n_rho, chart.h_rho, chart.h_theta
        w = chart.w
        rho = chart.rho
        rho_face = rho[:-1] + 0.5 * h                     # faces between rows
        # rho-direction: flux coeff = (rho_face / w) * h_theta / h
        self.cs = (rho_face[:, None] / w[None, :]) * ht / h
        # pole face sits at rho = h/2, one per theta column
        self.cp = ht / (2.0 * w)
        # theta-direction: coeff = cell_height / (rho * w_face * h_theta)
        w_face = 0.5 * (w + np.roll(w, -1))
        height = np.full(n, h)
        height[-1] = 0.5 * h                              # boundary half cell
        self.ct = height[:, None] / (rho[:, None] * w_face[None, :] * ht)
        # exact cell volumes (integral of rho * w over the cell)
        lo = np.clip(rho - 0.5 * h, 0.0, None)
        hi = np.minimum(rho + 0.5 * h, 1.0)
        self.vol = (0.5 * (hi**2 - lo**2))[:, None] * w[None, :] * ht
        self.vol_pole = float(np.sum(w) * ht * h**2 / 8.0)
        # Jacobi diagonal (Neumann form, pole coupled)
        diag = np.zeros((n, chart.n_theta))
        diag[:-1] += self.cs
        diag[1:] += self.cs
        diag[0] += self.cp
        diag += self.ct + np.roll(self.ct, 1, axis=1)
        self.diag = diag
        self.diag_pole = float(np.sum(self.cp))
        # work buffers of apply(), so a stencil serves one solve at a time
        self._flux = np.empty(n * chart.n_theta)
        self._pflux = np.empty(chart.n_theta)

    def apply(self, x, out):
        """out = A x for the flat vector x = (grid values row by row, pole),
        written into out with no temporaries.

        5-point stencil plus the pole unknown: cs couples rows i and i+1
        through the rho face between them, cp the pole cell to row 0, ct
        columns j and j+1 (periodic) within a row.  A is the negative
        discrete flux divergence: symmetric positive semidefinite with
        nullspace = constants.  The theta-differences are taken on the
        contiguous flat rows, p[k+1] - p[k], and the wrap column j = n_theta-1,
        where that pairs the row's last value with the next row's first, is
        then overwritten with p[i, 0] - p[i, -1].  Every element sees the
        same operations in the same order as the textbook np.roll form.
        """
        n, nt = self.chart.n_rho, self.chart.n_theta
        size = n * nt
        p, o = x[:size], out[:size]
        grid, o2 = p.reshape(n, nt), o.reshape(n, nt)
        # rho-direction fluxes between consecutive rows
        flux = self._flux[:size - nt].reshape(n - 1, nt)
        np.subtract(p[nt:], p[:-nt], out=flux.reshape(-1))
        flux *= self.cs
        np.subtract(0.0, flux, out=o2[:-1])
        o2[-1] = 0.0
        o2[1:] += flux
        # theta-direction fluxes (periodic), in the buffer of the rho fluxes
        tflux = self._flux.reshape(n, nt)
        np.subtract(p[1:], p[:-1], out=self._flux[:-1])
        np.subtract(grid[:, 0], grid[:, -1], out=tflux[:, -1])
        tflux *= self.ct
        o2 -= tflux
        o2[:, 1:] += tflux[:, :-1]
        o2[:, 0] += tflux[:, -1]
        pflux = self._pflux
        np.subtract(grid[0], x[size], out=pflux)          # pole -> row 0
        pflux *= self.cp
        o2[0] += pflux
        out[size] = -np.sum(pflux)

    def matvec(self, p, pole):
        """A applied to the grid p and the pole value: (grid, pole)."""
        x = np.append(p, pole)
        out = np.empty_like(x)
        self.apply(x, out)
        return out[:-1].reshape(p.shape), float(out[-1])


def _pcg(apply_a, b, diag, x0, tol, maxiter):
    """Preconditioned CG on flat vectors; apply_a(v, out) writes A v into
    out.  Every update writes into a buffer allocated once, with the
    operations of the textbook form in its order, so the iterates are the
    same bit for bit.  The constant nullspace of the Neumann operator is
    removed from iterates and residuals.  The means are np.add.reduce(v) /
    v.size, the sum and division v.mean() forms, without its Python
    wrapper: the same bits."""
    x = x0.copy()
    x -= np.add.reduce(x) / x.size
    ap = np.empty_like(b)
    apply_a(x, ap)
    r = b - ap
    r -= np.add.reduce(r) / r.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), LinearSolveReport(0, 0.0)
    z = r / diag
    p = z.copy()
    step = np.empty_like(b)
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        apply_a(p, ap)
        alpha = rz / float(p @ ap)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=step)
        x -= np.add.reduce(x) / x.size
        r -= np.add.reduce(r) / r.size
        rnorm = math.sqrt(r @ r)          # np.linalg.norm of a 1-D vector
        if rnorm <= tol * bnorm:
            return x, LinearSolveReport(it, rnorm / bnorm)
        np.divide(r, diag, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(
        f"conjugate gradients stalled at relative residual "
        f"{rnorm / bnorm:.3e} after {maxiter} iterations")


# ----------------------------------------------------------------------
# pure-Neumann Poisson solve
# ----------------------------------------------------------------------

def solve_neumann(f, g, chart: InteriorChart, tol=1e-10, maxiter=100_000,
                  x0=None):
    """-Delta p = f in Omega, d_n p = g on the boundary (interior normal),
    with the volume mean of p, pole cell included, pinned to zero.

    f: GridField (scalar, optional pole value) or sample array; g: boundary
    samples on the chart's theta nodes.  Returns (GridField, report).
    """
    st = _StarStencil(chart)
    if isinstance(f, GridField):
        fvals, fpole = f.values, f.pole
    else:
        fvals, fpole = np.asarray(f, dtype=float), None
    if fpole is None:
        fpole = chart.pole_value(fvals)
    g = np.asarray(g, dtype=float)

    b = fvals * st.vol
    b[-1] -= g * chart.h_theta
    b_pole = float(fpole) * st.vol_pole

    # discrete compatibility: sum of the RHS must vanish for solvability
    total_vol = float(np.sum(st.vol)) + st.vol_pole
    defect = float(np.sum(b)) + b_pole
    fnorm = float(np.max(np.abs(fvals))) if np.any(fvals) else 0.0
    hard_cap = max(1e-3 * fnorm, 1e-12)
    if abs(defect) > hard_cap:
        raise SolverError(
            f"compatibility defect {defect:.3e} exceeds the cap "
            f"{hard_cap:.3e}: int f != boundary flux of g")
    b -= defect * st.vol / total_vol
    b_pole -= defect * st.vol_pole / total_vol

    n = fvals.size
    bflat = np.concatenate([b.ravel(), [b_pole]])
    diag = np.concatenate([st.diag.ravel(), [st.diag_pole]])
    shape = fvals.shape

    start = np.zeros(n + 1) if x0 is None else np.asarray(x0, dtype=float).copy()
    x, report = _pcg(st.apply, bflat, diag, start, tol, maxiter)

    p = x[:-1].reshape(shape)
    pole = float(x[-1])
    mean = (float(np.sum(p * st.vol)) + pole * st.vol_pole) / total_vol
    p = p - mean
    pole = pole - mean
    report.compat_defect = defect
    return GridField(chart, p, pole=pole), report


# ----------------------------------------------------------------------
# collar slab problem (-Delta_dn)^{-1}
# ----------------------------------------------------------------------

class SlabOperator:
    """FV discretization of -Delta on the collar slab (0, delta) x circle,
    Neumann at s=0, homogeneous Dirichlet at s=delta.

    Unknowns live on rows i = 0..n_s-1 (the Dirichlet row is eliminated).
    A w = J F V (+ boundary terms).  The collar of a disk has constant
    curvature, so each coefficient is one column over the rows (cs on the
    s-faces, ct on the theta-faces, the cell volumes vol) that the matvec,
    the factors and the source share, and A diagonalizes in theta.  The
    tridiagonal systems of all n_theta/2+1 modes are factored once per
    operator, on first use, and every solve (green_column included) sweeps
    the rows once forward and once backward over all modes together.
    """

    def __init__(self, chart: GeodesicChart):
        self.chart = chart
        ns = chart.n_s
        h, ht = chart.h_s, chart.h_theta
        gam = chart.gamma_b
        s = chart.s[:ns, None]
        height = np.full((ns, 1), h)
        height[0] = 0.5 * h                                  # wall half cell
        self.cs = (1.0 + (s + 0.5 * h) * gam) * ht / h
        self.ct = (height / (1.0 + s * gam)) / ht
        self.vol = height * ht

    # -- per-mode tridiagonal machinery ------------------------------------

    @cached_property
    def _factors(self):
        """Symmetric tridiagonal factors of every theta-mode, built once.

        Mode m has diagonal cs_{i-1} + cs_i + ct_i lam_m and off-diagonal
        -cs_i.  Its factorization L D L^T has pivots d_i = diag_i -
        cs_{i-1}^2 / d_{i-1} and multipliers l_i = -cs_i / d_i.  Every mode
        matrix is weakly diagonally dominant and irreducible, with a strictly
        dominant Dirichlet row, so the pivots stay positive without pivoting.
        Returns (pivots, multipliers), shapes (n_s, n_modes) and
        (n_s-1, n_modes).
        """
        cs = self.cs
        # eigenvalues of the periodic second difference; rfftfreq gives m/nt
        lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(
            self.chart.n_theta))
        diag = cs.copy()
        diag[1:] += cs[:-1]
        pivots = diag + self.ct * lam
        mult = np.empty((len(cs) - 1, lam.size))
        for i in range(len(mult)):
            mult[i] = -cs[i] / pivots[i]
            pivots[i + 1] += cs[i] * mult[i]
        return pivots, mult

    def solve_modes(self, rhs):
        """Direct solve of A w = rhs: one forward and one backward sweep over
        the rows, each row step acting on all theta-modes at once.  Returns
        the full grid (n_s+1, n_theta), the zero Dirichlet row included."""
        pivots, mult = self._factors
        y = np.fft.rfft(rhs, axis=1)                         # (ns, n_modes)
        for i in range(len(mult)):
            y[i + 1] -= mult[i] * y[i]
        y /= pivots
        for i in range(len(mult) - 1, -1, -1):
            y[i] -= mult[i] * y[i + 1]
        full = np.zeros((len(rhs) + 1, rhs.shape[1]))
        full[:-1] = np.fft.irfft(y, n=rhs.shape[1], axis=1)
        return full

    def matvec(self, w):
        out = np.zeros_like(w)
        flux = self.cs[:-1] * (w[1:] - w[:-1])
        out[:-1] -= flux
        out[1:] += flux
        out[-1] += self.cs[-1] * w[-1]        # Dirichlet neighbor w = 0
        tflux = self.ct * (np.roll(w, -1, axis=1) - w)
        out -= tflux
        out += np.roll(tflux, 1, axis=1)
        return out

    def rhs_from_source(self, F, neumann=None):
        b = self.chart.J[:-1] * F[:self.chart.n_s] * self.vol
        if neumann is not None:
            b[0] -= np.asarray(neumann, dtype=float) * self.chart.h_theta
        return b

    def solve(self, b):
        """Solve A w = b for a raw right-hand side; returns the full grid
        (n_s+1, n_theta) including the zero Dirichlet row."""
        return self.solve_modes(b)

    def green_column(self, i0, j0):
        """Discrete Green kernel column k(., .; s_i0, theta_j0): the solve
        with a unit point load, so that sum(G * (J F) * vol) reproduces the
        solution value at (i0, j0) by symmetry of the stencil."""
        b = np.zeros((self.chart.n_s, self.chart.n_theta))
        b[i0, j0] = 1.0
        return self.solve_modes(b)
