"""Linear solvers: pure-Neumann Poisson on the interior chart, homogeneous
Dirichlet stream solve, the mixed Neumann/Dirichlet slab problem on the
collar, and the image-method Green kernel diagnostic.

The interior solvers use a vertex-centered finite-volume stencil on the
polar (rho, theta) chart of the disk with a dedicated pole cell, so the
operator is symmetric (positive semidefinite for Neumann) and conjugate
gradients applies; the constant nullspace of the Neumann problem is
projected out every iteration.
Boundary data enter through face fluxes: with theta an arc-length parameter
the outer face of a boundary cell carries exactly -g * h_theta for interior
normal data d_n p = g.

The slab operator is diagonal in theta on the disk's collar: it factors the
symmetric tridiagonal system of every theta-mode once, and each solve is an
rFFT, one forward and one backward sweep over the rows acting on all modes
together, and the inverse rFFT.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import GridField, InteriorChart, StreamFunction
from .geometry import GeodesicChart, GeometryError


class SolverError(RuntimeError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals if residuals is not None else []


@dataclass
class LinearSolveReport:
    iterations: int
    residual: float
    compat_defect: float = 0.0
    mean_value: float = 0.0
    converged: bool = True

    def as_record(self):
        return {"iterations": self.iterations, "residual": self.residual,
                "compat_defect": self.compat_defect,
                "mean_value": self.mean_value, "converged": self.converged}


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

    def matvec(self, p, pole, pole_coupled=True):
        """5-point stencil plus the pole unknown: cs couples rows i and i+1
        through the rho face between them, cp the pole cell to row 0, ct
        columns j and j+1 (periodic) within a row.  A is the negative
        discrete flux divergence: symmetric positive semidefinite with
        nullspace = constants."""
        out = np.zeros_like(p)
        # rho-direction fluxes between consecutive rows
        flux = self.cs * (p[1:] - p[:-1])                  # (n_rho-1, nt)
        out[:-1] -= flux
        out[1:] += flux
        # theta-direction fluxes (periodic)
        tflux = self.ct * (np.roll(p, -1, axis=1) - p)
        out -= tflux
        out += np.roll(tflux, 1, axis=1)
        if pole_coupled:
            pflux = self.cp * (p[0] - pole)                # pole -> row 0
            out[0] += pflux
            out_pole = -float(np.sum(pflux))
        else:
            out_pole = 0.0
        return out, out_pole


def _pcg(apply_a, b, diag, x0, tol, maxiter, project=None):
    """Preconditioned CG on flat vectors; 'project' removes a known nullspace
    component from iterates and residuals (pure-Neumann case)."""
    x = x0.copy()
    if project is not None:
        project(x)
    r = b - apply_a(x)
    if project is not None:
        project(r)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), LinearSolveReport(0, 0.0)
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    residuals = []
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        if project is not None:
            project(x)
            project(r)
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if rnorm <= tol * bnorm:
            return x, LinearSolveReport(it, rnorm / bnorm)
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"conjugate gradients stalled at relative residual "
        f"{residuals[-1] / bnorm:.3e} after {maxiter} iterations", residuals)


# ----------------------------------------------------------------------
# pure-Neumann Poisson solve
# ----------------------------------------------------------------------

def solve_neumann(f, g, chart: InteriorChart, mean_target=0.0, tol=1e-10,
                  maxiter=100_000, x0=None):
    """-Delta p = f in Omega, d_n p = g on the boundary (interior normal),
    with the volume mean of p pinned to mean_target.

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

    def apply_a(vec):
        out, out_pole = st.matvec(vec[:-1].reshape(shape), vec[-1], True)
        return np.concatenate([out.ravel(), [out_pole]])

    def project(vec):
        vec -= vec.mean()

    start = np.zeros(n + 1) if x0 is None else np.asarray(x0, dtype=float).copy()
    x, report = _pcg(apply_a, bflat, diag, start, tol, maxiter, project)

    p = x[:-1].reshape(shape)
    pole = float(x[-1])
    mean = (float(np.sum(p * st.vol)) + pole * st.vol_pole) / total_vol
    p = p - mean + mean_target
    pole = pole - mean + mean_target
    report.compat_defect = defect
    report.mean_value = mean_target
    return GridField(chart, p, pole=pole), report


# ----------------------------------------------------------------------
# homogeneous-Dirichlet stream solve
# ----------------------------------------------------------------------

def solve_dirichlet_stream(omega, chart: InteriorChart = None, tol=1e-10,
                           maxiter=100_000):
    """-Delta psi = omega with psi = 0 on the boundary row; returns a
    StreamFunction (exact zero trace) plus the solver report."""
    if isinstance(omega, GridField):
        chart = omega.chart
        ovals, opole = omega.values, omega.pole
    else:
        ovals, opole = np.asarray(omega, dtype=float), None
    if opole is None:
        opole = chart.pole_value(ovals)
    st = _StarStencil(chart)

    b = ovals * st.vol
    b[-1] = 0.0
    b_pole = float(opole) * st.vol_pole
    bflat = np.concatenate([b.ravel(), [b_pole]])
    diag = np.concatenate([st.diag.ravel(), [st.diag_pole]])
    shape = ovals.shape

    def apply_a(vec):
        field = vec[:-1].reshape(shape).copy()
        field[-1] = 0.0
        out, out_pole = st.matvec(field, vec[-1], True)
        out[-1] = vec[:-1].reshape(shape)[-1]     # identity on the fixed row
        return np.concatenate([out.ravel(), [out_pole]])

    x, report = _pcg(apply_a, bflat, diag, np.zeros(ovals.size + 1), tol,
                     maxiter)
    psi = x[:-1].reshape(shape)
    psi[-1] = 0.0
    field = GridField(chart, psi, pole=float(x[-1]))
    return StreamFunction(field), report


# ----------------------------------------------------------------------
# collar slab problem (-Delta_dn)^{-1}
# ----------------------------------------------------------------------

class SlabOperator:
    """FV discretization of -Delta on the collar slab (0, delta) x circle,
    Neumann at s=0, homogeneous Dirichlet at s=delta.

    Unknowns live on rows i = 0..n_s-1 (the Dirichlet row is eliminated).
    A w = J F V (+ boundary terms).  The collar of a disk has constant
    curvature, so A diagonalizes in theta.  The tridiagonal systems of all
    n_theta/2+1 modes are factored once per operator, on first use, and
    every solve (green_column included) sweeps the rows once forward and
    once backward over all modes together.
    """

    def __init__(self, chart: GeodesicChart):
        self.chart = chart
        ns, nt = chart.n_s, chart.n_theta
        h, ht = chart.h_s, chart.h_theta
        gam = chart.gamma_b
        s = chart.s
        s_face = s[:ns] + 0.5 * h
        self.j_face_s = 1.0 + s_face[:, None] * gam[None, :]   # (ns, nt)
        gam_face = 0.5 * (gam + np.roll(gam, -1))
        self.j_face_t = 1.0 + s[:ns, None] * gam_face[None, :]
        if np.min(self.j_face_s) <= 0 or np.min(self.j_face_t) <= 0:
            raise GeometryError("collar depth exceeds the curvature reach")
        self.height = np.full(ns, h)
        self.height[0] = 0.5 * h
        self.cs = self.j_face_s * ht / h
        self.ct = (self.height[:, None] / self.j_face_t) / ht
        self.vol = self.height[:, None] * ht * np.ones((1, nt))
        self.J = chart.J[:ns]
        self.gamma_const = float(np.mean(gam))

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
        ns, nt = self.chart.n_s, self.chart.n_theta
        h, ht = self.chart.h_s, self.chart.h_theta
        gam = self.gamma_const
        s = self.chart.s[:ns]
        cs = (1.0 + (s + 0.5 * h) * gam) * ht / h            # (ns,)
        ctheta = (self.height / (1.0 + s * gam)) / ht        # (ns,)
        # eigenvalues of the periodic second difference; rfftfreq gives m/nt
        lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(nt))
        diag = cs.copy()
        diag[1:] += cs[:-1]
        pivots = diag[:, None] + ctheta[:, None] * lam[None, :]
        mult = np.empty((ns - 1, lam.size))
        for i in range(ns - 1):
            mult[i] = -cs[i] / pivots[i]
            pivots[i + 1] += cs[i] * mult[i]
        return pivots, mult

    def solve_modes(self, rhs):
        """Direct solve of A w = rhs: one forward and one backward sweep over
        the rows, each row step acting on all theta-modes at once."""
        pivots, mult = self._factors
        y = np.fft.rfft(rhs, axis=1)                         # (ns, n_modes)
        for i in range(len(mult)):
            y[i + 1] -= mult[i] * y[i]
        y /= pivots
        for i in range(len(mult) - 1, -1, -1):
            y[i] -= mult[i] * y[i + 1]
        return np.fft.irfft(y, n=rhs.shape[1], axis=1)

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
        b = self.J * F[:self.chart.n_s] * self.vol
        if neumann is not None:
            b[0] -= np.asarray(neumann, dtype=float) * self.chart.h_theta
        return b

    def solve(self, b):
        """Solve A w = b for a raw right-hand side; returns the full grid
        (n_s+1, n_theta) including the zero Dirichlet row plus a report."""
        ns, nt = self.chart.n_s, self.chart.n_theta
        w = self.solve_modes(b)
        res = float(np.linalg.norm(self.matvec(w) - b))
        bn = float(np.linalg.norm(b))
        report = LinearSolveReport(1, res / bn if bn else 0.0)
        full = np.zeros((ns + 1, nt))
        full[:ns] = w
        return full, report

    def green_column(self, i0, j0):
        """Discrete Green kernel column k(., .; s_i0, theta_j0): the solve
        with a unit point load, so that sum(G * (J F) * vol) reproduces the
        solution value at (i0, j0) by symmetry of the stencil."""
        b = np.zeros((self.chart.n_s, self.chart.n_theta))
        b[i0, j0] = 1.0
        full, _ = self.solve(b)
        return full


# ----------------------------------------------------------------------
# image-method Green kernel (diagnostic)
# ----------------------------------------------------------------------

def green_kernel_image(s, theta, sp, thetap):
    """Half-plane Neumann image kernel in flattened collar coordinates:
    (1/4 pi)[log 1/((dtheta)^2+(s-s')^2) + log 1/((dtheta)^2+(s+s')^2)].
    """
    s = np.asarray(s, dtype=float)
    dthe = np.asarray(theta, dtype=float) - np.asarray(thetap, dtype=float)
    sp = np.asarray(sp, dtype=float)
    d_direct = dthe**2 + (s - sp) ** 2
    d_image = dthe**2 + (s + sp) ** 2
    if np.any(d_direct == 0.0):
        raise ValueError("image kernel is singular at coincident points")
    return (np.log(1.0 / d_direct) + np.log(1.0 / d_image)) / (4.0 * np.pi)
