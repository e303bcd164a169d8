"""pressure-lab: pressure regularity experiments for 2D steady incompressible
flow on the disk.

Layout:
  geometry  the boundary circle, its closed-form collar (geodesic) chart,
            cutoff profiles
  fields    grid fields, analytic field families, collar frame components
  norms     Holder / sup / negative-Sobolev estimators
  elliptic  Neumann and collar-slab Poisson solvers
  mollify   tangency-preserving regularization
  pressure  pressure solves, collar identities, boundary traces, eta studies
  cli       configuration-driven runner (verify | solve | study)
"""

from .geometry import (
    BoundaryCurve,
    CutoffProfile,
    GeodesicChart,
    GeometryError,
    build_curve,
    build_cutoffs,
    default_cutoffs,
)
from .fields import (
    FieldError,
    GridField,
    InteriorChart,
    RadialFlow,
    RoughStream,
    make_rough_stream,
    radial_flow,
    rhs_double_divergence,
)
from .norms import (
    HolderEstimate,
    NegSobolevNorm,
    NormError,
    PairPlan,
    build_pair_plan,
    c0_distance,
    h_minus2_norm,
    holder_norm,
)
from .elliptic import (
    LinearSolveReport,
    SlabOperator,
    SolverError,
    solve_neumann,
)
from .mollify import (
    MollifierKernel,
    MollifyError,
    RegularizedVelocity,
    mollify_velocity,
)
from .pressure import (
    EstimateLedger,
    PressureError,
    PressureSolution,
    SplitPb,
    TraceCurve,
    bc_equivalence_check,
    boundary_trace,
    collar_flux_residual,
    eta_study,
    sanss2_rhs,
    solve_pressure,
    split_Pb,
)

__all__ = [
    "EstimateLedger",
    "HolderEstimate",
    "LinearSolveReport",
    "MollifierKernel",
    "MollifyError",
    "NegSobolevNorm",
    "NormError",
    "PairPlan",
    "PressureError",
    "PressureSolution",
    "RegularizedVelocity",
    "SlabOperator",
    "SolverError",
    "SplitPb",
    "TraceCurve",
    "bc_equivalence_check",
    "boundary_trace",
    "build_pair_plan",
    "c0_distance",
    "collar_flux_residual",
    "eta_study",
    "h_minus2_norm",
    "holder_norm",
    "mollify_velocity",
    "sanss2_rhs",
    "solve_neumann",
    "solve_pressure",
    "split_Pb",
    "BoundaryCurve",
    "CutoffProfile",
    "FieldError",
    "GeodesicChart",
    "GeometryError",
    "GridField",
    "InteriorChart",
    "RadialFlow",
    "RoughStream",
    "build_curve",
    "build_cutoffs",
    "default_cutoffs",
    "make_rough_stream",
    "radial_flow",
    "rhs_double_divergence",
]

__version__ = "0.1.0"
