"""Pressure pipeline: the Neumann pressure solve and the adjusted pressure,
collar flux identities, the slab split with its Green-term functionals,
boundary traces, field_record (the one record of solve and of a study row:
any field kind at any eta >= 0) and the eta sweep of one field.

Sign conventions (validated by the rigid-rotation oracle): interior normal,
gamma < 0 on convex boundaries, and Neumann data d_n p = gamma (u.tau)^2 on
the wall; the adjusted pressure P = p + phi(d) (u.n)^2 makes that normal
derivative well defined for rough velocities.

field_record owns a mollified record's one helper thread, which runs the
divergence probe beside the mollifier and the solve.  Each shift-sum and
the solve do the same operations in the same order as they would alone,
so every output is the serial one bit for bit.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import (GridField, InteriorChart, collar_components,
                     rhs_double_divergence, sample_velocity, _d_s, _d_theta)
from .geometry import CutoffProfile, GeodesicChart
from .elliptic import LinearSolveReport, SlabOperator, solve_neumann
from .mollify import RegularizedVelocity, divergence_probe, mollify_velocity
from .norms import h_minus2_norm, holder_norm, c0_distance


# largest |u.n| on the wall that solve_pressure accepts for a GridField
_TANGENCY_TOL = 1e-6


class PressureError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# pressure solve and adjusted pressure
# ----------------------------------------------------------------------

@dataclass
class PressureSolution:
    p: GridField
    P: GridField                    # p + phi(depth) (u.n)^2
    report: LinearSolveReport


def solve_pressure(u, chart: InteriorChart = None, collar: GeodesicChart = None,
                   cutoffs: CutoffProfile = None):
    """-Delta p = div div (u x u), d_n p = gamma (u.tau)^2, mean(p) = 0,
    then the adjusted pressure P = p + phi(depth) (u.n)^2.

    u: vector GridField on the interior chart, or a RegularizedVelocity.
    chart defaults to u's chart.  collar is not read (the chart owns the
    boundary frame); only perfbench/ and tests pass it.
    """
    if isinstance(u, RegularizedVelocity):
        ut_b = u.boundary_tangential
        un = u.normal_component
        ufield = u.u_eta
    else:
        ufield = u
        _, tau, nrm, _ = u.chart.collar_frame
        un = np.einsum("ijk,ijk->ij", u.values, nrm)
        ut_b = np.einsum("jk,jk->j", u.values[-1], tau[-1])
        tang = float(np.max(np.abs(un[-1])))
        if tang > _TANGENCY_TOL:
            raise PressureError(f"velocity is not tangential: |u.n| = "
                                f"{tang:.3e} on the boundary")
    chart = chart or ufield.chart
    gam = chart.curve.curvature(chart.theta)
    f = rhs_double_divergence(ufield)
    g = gam * ut_b**2
    p, report = solve_neumann(GridField(chart, f), g, chart)
    # the pole lies deeper than the collar on every supported chart, so the
    # adjustment phi * (u.n)^2 vanishes there and the pole value carries over
    P = GridField(chart, p.values + cutoffs.phi(chart.node_depth) * un**2,
                  pole=p.pole)
    return PressureSolution(p=p, P=P, report=report)


# ----------------------------------------------------------------------
# collar identities
# ----------------------------------------------------------------------

# InteriorChart.on_collar of a field; only perfbench/ and tests call it
def _collar_resample(fieldv: GridField, collar: GeodesicChart):
    return fieldv.chart.on_collar(fieldv.values, collar)


def _reste_term(un, ut, collar):
    """First-order remainder of the geodesic flux identity:

        R_b = (gamma/J) d_s((u.n)^2 - (u.tau)^2)
            + (2/J) d_theta((gamma/J) (u.n)(u.tau)).

    The factor 2 on the theta term follows from the frame derivatives
    n' = gamma tau, tau' = -gamma n; verified symbolically against the
    Cartesian double divergence on the disk.
    """
    J = collar.J
    gam = collar.gamma_b
    return (gam / J) * _d_s(collar, un**2 - ut**2) \
        + 2.0 * _d_theta(collar, (gam / J) * un * ut) / J


def collar_flux_residual(u, chart_rhs, collar: GeodesicChart):
    """Pointwise defect between the double divergence of u x u and its
    geodesic-coordinate flux expression on the collar.

    u: callable or GridField.  chart_rhs: the double-divergence reference,
    either a GridField on the interior chart (resampled here) or a callable
    of physical points (analytic reference, the clean choice for refinement
    studies).  Edge rows of the collar use one-sided stencils and should be
    excluded from refinement measurements.
    """
    un, ut = collar_components(u, collar)
    J = collar.J
    geodesic = (_d_s(collar, J * _d_s(collar, un**2))
                + 2.0 * _d_s(collar, _d_theta(collar, un * ut))
                + _d_theta(collar, _d_theta(collar, ut**2) / J)) / J \
        + _reste_term(un, ut, collar)
    if callable(chart_rhs):
        lhs = np.asarray(chart_rhs(collar.X), dtype=float)
    else:
        lhs = chart_rhs.chart.on_collar(chart_rhs.values, collar)
    return lhs - geodesic


def _slab_source(un, ut, P_collar, cutoffs: CutoffProfile,
                 collar: GeodesicChart):
    """The slab source of phi_b P from the collar components (u.n, u.tau)
    and its pieces, (values, phi_b, A, B, C, D) with phi_b = phi_b(s) a
    column, in the quadrature normalization

        values * J = phi_b (A + B - C) + phi_b (J R_b) - J D.

    No second s-derivative of a sample appears: the one d_s of B (the mixed
    d_s d_theta term), the one of R_b and the d_s P of D are each a single
    centred difference, so a sample reaches the rows next to its own only.
    """
    J = collar.J
    gam = collar.gamma_b
    s = collar.s[:, None]
    phi_b = cutoffs.phi_b(s)
    dphi_b = cutoffs.phi_b_d1(s)
    d2phi_b = cutoffs.phi_b_d2(s)
    A = _d_theta(collar, _d_theta(collar, ut**2) / J)
    B = 2.0 * _d_s(collar, _d_theta(collar, un * ut))
    C = _d_theta(collar, _d_theta(collar, un**2) / J)
    reste = _reste_term(un, ut, collar)
    D = d2phi_b * P_collar + 2.0 * dphi_b * _d_s(collar, P_collar) \
        + (gam / J) * P_collar * dphi_b
    values = (phi_b / J) * (A + B + J * reste - C) - D
    return values, phi_b, A, B, C, D


def sanss2_rhs(u, P_collar, cutoffs: CutoffProfile, collar: GeodesicChart):
    """Right-hand side of the no-second-s-derivative identity for the
    boundary piece phi_b P (the values of _slab_source)."""
    un, ut = collar_components(u, collar)
    return _slab_source(un, ut, np.asarray(P_collar, dtype=float), cutoffs,
                        collar)[0]


# ----------------------------------------------------------------------
# boundary-piece split and Green-term functionals
# ----------------------------------------------------------------------

@dataclass
class SplitPb:
    P_bb: np.ndarray                 # harmonic piece carrying the wall data
    P_bi: np.ndarray                 # slab-source piece
    target: np.ndarray               # phi_b(s) P on the collar grid
    probes: list                     # [(i, j), ...]
    I1: np.ndarray
    I2i: np.ndarray
    I2b: np.ndarray
    I3: np.ndarray
    P_bi_at_probes: np.ndarray

    @property
    def reconstruction_error(self):
        return float(np.max(np.abs(self.P_bb + self.P_bi - self.target)))

    @property
    def green_sum_error(self):
        total = self.I1 + self.I2i + self.I2b + self.I3
        return float(np.max(np.abs(total - self.P_bi_at_probes)))


def split_Pb(u, P_collar, cutoffs: CutoffProfile, collar: GeodesicChart,
             n_probes=10, seed=0):
    """Decompose phi_b P into the wall-data piece plus the slab-source piece
    and evaluate the Green-term functionals at seeded probe points."""
    un, ut = collar_components(u, collar)
    P_collar = np.asarray(P_collar, dtype=float)
    op = SlabOperator(collar)
    gam = collar.gamma_b
    ns, nt = collar.n_s, collar.n_theta
    ut0_sq = ut[0] ** 2

    P_bb = op.solve(op.rhs_from_source(np.zeros((ns + 1, nt)),
                                       neumann=gam * ut0_sq))

    source, phi_b, A, B, C, D = _slab_source(un, ut, P_collar, cutoffs,
                                             collar)
    P_bi = op.solve(op.rhs_from_source(source))
    target = phi_b * P_collar

    # the probe-independent factors of the four functionals, formed once
    # instead of per probe; the loop does not hold the slab source pieces
    J = collar.J
    rows = slice(0, ns)
    f1 = (phi_b * (A + B - C))[rows]
    f2 = (un**2 - ut**2)[rows]
    f3 = ((gam / J) * un * ut)[rows]
    f4 = (J * D)[rows]
    gam_phi_b = gam * phi_b
    del source, A, B, C, D

    rng = np.random.default_rng(seed)
    i_lo, i_hi = max(1, ns // 5), max(2, (3 * ns) // 5)
    probes = [(int(rng.integers(i_lo, i_hi)), int(rng.integers(0, nt)))
              for _ in range(n_probes)]
    vol = op.vol                      # height * h_theta, rows 0..ns-1
    I1 = np.empty(n_probes)
    I2i = np.empty(n_probes)
    I2b = np.empty(n_probes)
    I3 = np.empty(n_probes)
    at_probes = np.empty(n_probes)
    for k, (i0, j0) in enumerate(probes):
        G = op.green_column(i0, j0)       # (ns+1, nt), zero last row
        Gr = G[rows]
        I1[k] = float(np.sum(Gr * f1 * vol))
        # integration by parts in s' and theta' of the first-order terms
        by_s = np.sum(_d_s(collar, gam_phi_b * G)[rows] * f2 * vol)
        by_theta = np.sum(_d_theta(collar, phi_b * G)[rows] * f3 * vol)
        I2i[k] = float(-by_s - 2.0 * by_theta)
        I2b[k] = float(np.sum(gam * G[0] * ut0_sq * collar.h_theta))
        I3[k] = float(-np.sum(Gr * f4 * vol))
        at_probes[k] = P_bi[i0, j0]
    return SplitPb(P_bb=P_bb, P_bi=P_bi, target=target, probes=probes,
                   I1=I1, I2i=I2i, I2b=I2b, I3=I3,
                   P_bi_at_probes=at_probes)


# ----------------------------------------------------------------------
# boundary trace
# ----------------------------------------------------------------------

@dataclass
class TraceCurve:
    s: np.ndarray                    # sampled depths, decreasing toward 0
    distances: np.ndarray            # H^-2 distance to gamma (u.tau)^2 per s
    wall_value: np.ndarray           # extrapolated d_s P(0, .)
    wall_distance: float
    slope: float                     # LSQ slope of distance vs sample index
                                     # (s decreasing): negative = improving

    def as_rows(self):
        return [(float(si), float(di)) for si, di in zip(self.s, self.distances)]


_TRACE_ROWS = [4, 2, 1]              # depths 4h, 2h, h toward the wall


def boundary_trace(P_collar, u, collar: GeodesicChart):
    """d_s P(s, .) against the wall target gamma (u.tau)^2(0, .) in H^-2,
    at the collar rows _TRACE_ROWS and extrapolated to the wall."""
    P_collar = np.asarray(P_collar, dtype=float)
    un, ut = collar_components(u, collar)
    target = collar.gamma_b * ut[0] ** 2
    dP = _d_s(collar, P_collar)
    L = collar.curve.length
    dists = np.array([h_minus2_norm(dP[i] - target, L) for i in _TRACE_ROWS])
    wall = 2.0 * dP[1] - dP[2]       # second-order extrapolation to s = 0
    slope = float(np.polyfit(np.arange(len(dists)), dists, 1)[0])
    return TraceCurve(s=collar.s[_TRACE_ROWS], distances=dists,
                      wall_value=wall,
                      wall_distance=h_minus2_norm(wall - target, L),
                      slope=slope)


def bc_equivalence_check(p: GridField, u, collar: GeodesicChart):
    """sup_theta |d_s(p + (u.n)^2)(0, .) - gamma (u.tau)^2(0, .)|, with a
    second-order one-sided wall stencil.

    The stencil is exact when p + (u.n)^2 is quadratic in s, as for rigid
    rotation; the defect is then only the solver tolerance, so a refinement
    order must be measured on a pressure that is not quadratic in s.
    """
    un, ut = collar_components(u, collar)
    q = p.chart.on_collar(p.values, collar) + un**2
    h = collar.h_s
    dq0 = (-3.0 * q[0] + 4.0 * q[1] - q[2]) / (2.0 * h)
    target = collar.gamma_b * ut[0] ** 2
    return float(np.max(np.abs(dq0 - target)))


# ----------------------------------------------------------------------
# the record and the eta study
# ----------------------------------------------------------------------

def tensor_square(u: GridField) -> GridField:
    uv = u.values
    comps = np.stack([uv[..., 0] ** 2, uv[..., 0] * uv[..., 1],
                      uv[..., 1] ** 2], axis=-1)
    return GridField(u.chart, comps)


def per_uu(bound, uu_norm):
    """bound / |u x u|, the measured constant; NaN for a zero u x u."""
    return bound / uu_norm if uu_norm > 0 else float("nan")


def field_record(field, chart, alpha, seed, eta, cutoffs, collar, plan,
                 prev_p=None, mollify_kwargs=None):
    """(velocity, PressureSolution, ledger record) of one field at one eta:
    eta > 0 mollifies field.psi (mollify_kwargs may set n_sub and probe_n),
    eta = 0 solves field.velocity and records no mollifier diagnostics.
    alpha is the norms' exponent, alpha and seed label the record, and
    prev_p (the previous eta's pressure samples) adds p_c0_step.

    At eta > 0 the record owns one helper thread: divergence_probe of psi
    runs on it while the calling thread runs mollify_velocity and then the
    pressure solve of the mollified velocity.  The thread is joined before
    the record returns or raises, so none outlives it (a study forks its
    pool workers afterwards).  psi is called from both threads at once, so
    it must be a pure function of its points, as RoughStream.psi and
    RadialFlow.psi are.  If both sides raise, the probe's error is raised.
    Both check the same eta guard (eta <= epsilon/4) with the same
    MollifyError text, so a record that fails it fails with that text
    either way."""
    if eta > 0.0:
        psi = field.psi
        kwargs = mollify_kwargs or {}
        n_sub = kwargs.get("n_sub", 4)
        with ThreadPoolExecutor(max_workers=1) as helper:
            probe = helper.submit(divergence_probe, psi, chart, float(eta),
                                  cutoffs, n_sub=n_sub,
                                  probe_n=kwargs.get("probe_n", 128))
            try:
                rv = mollify_velocity(psi, chart, eta, cutoffs, collar,
                                      n_sub=n_sub)
                sol = solve_pressure(rv, chart=chart, cutoffs=cutoffs)
            except BaseException:
                probe.result()          # the probe's error wins
                raise
            divergence_max = probe.result()
        u = rv.u_eta
    else:
        u = sample_velocity(field.velocity, chart)
        sol = solve_pressure(u, chart=chart, cutoffs=cutoffs)
    uu = holder_norm(tensor_square(u), alpha, plan)
    hp = holder_norm(sol.p, alpha, plan)
    hP = holder_norm(sol.P, alpha, plan)
    sup_P = float(np.max(np.abs(sol.P.values)))
    rec = {
        "alpha": float(alpha), "seed": int(seed), "eta": float(eta),
        "n_rho": chart.n_rho, "n_theta": chart.n_theta,
        "uu_holder": uu.norm, "p_holder": hp.norm, "P_holder": hP.norm,
        "P_sup": sup_P,
        "C_meas": per_uu(hP.norm, uu.norm),
        "C1_meas": per_uu(sup_P, uu.norm),
        "plan_seed": plan.seed, "pair_count": plan.n_pairs,
        "solver_iterations": sol.report.iterations,
        "compat_defect": sol.report.compat_defect,
    }
    if eta > 0.0:
        rec.update(trace_max=rv.trace_max, tangency_max=rv.tangency_max,
                   divergence_max=divergence_max)
    if uu.norm == 0.0:
        rec["degenerate"] = True
    if prev_p is not None:
        rec["p_c0_step"] = c0_distance(sol.p.values, prev_p)
    return u, sol, rec


def eta_study_record(rough, eta, cutoffs, collar, plan, prev_p=None,
                     mollify_kwargs=None):
    """(record, p samples) of field_record of a RoughStream on its chart."""
    _, sol, rec = field_record(rough, rough.chart, rough.alpha, rough.seed,
                               eta, cutoffs, collar, plan, prev_p=prev_p,
                               mollify_kwargs=mollify_kwargs)
    return rec, sol.p.values


def eta_study(field, chart, alpha, seed, etas, cutoffs, collar, plan,
              mollify_kwargs=None):
    """field_record of one field at each eta, largest first, chained through
    prev_p; an error of any record ends the sweep."""
    records = []
    prev = None
    for eta in sorted(etas, reverse=True):
        _, sol, rec = field_record(field, chart, alpha, seed, eta, cutoffs,
                                   collar, plan, prev_p=prev,
                                   mollify_kwargs=mollify_kwargs)
        prev = sol.p.values
        records.append(rec)
    return records
