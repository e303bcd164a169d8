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

__version__ = "0.1.0"
