"""The benchmark workloads: set-up, the op sequence made from the workload
seed, one op, and the check of each op's output.

Every workload calls pressure_lab through module attributes
(``pressure.solve_pressure``, not a name bound at import), so that the
traced run sees the calls it wraps.
"""

import contextlib
import io
import itertools
import os
import shutil
from dataclasses import dataclass

import numpy as np

from pressure_lab import fields, geometry, norms, pressure

ALPHAS = (0.25, 1.0 / 3.0, 0.5, 0.75)
ETAS = (0.0125, 0.00625, 0.003125)
# the CLI's default domain, cutoffs and mollifier settings
RADIUS = 1.0
CUTOFFS = (0.4, 0.05, 0.1, 0.2, 0.25)      # delta, epsilon, delta1..3
MOLLIFY = {"n_sub": 4, "probe_n": 128}
PLAN_SEED = 0

# relative tolerance of ensemble ledger floats against the frozen reference
REL_TOL = 1e-8
FLOAT_KEYS = ("uu_holder", "p_holder", "P_holder", "P_sup", "C_meas",
              "C1_meas", "p_c0_step")
EXACT_KEYS = ("alpha", "seed", "eta", "n_rho", "n_theta", "plan_seed",
              "pair_count")
# test_09 bounds on the mollifier's structural diagnostics
MOLLIFIER_BOUNDS = {"trace_max": 1e-10, "tangency_max": 1e-8,
                    "divergence_max": 1e-8}
# test_02 / test_03, test_11, test_13 bounds, and the wall defect of
# bc_equivalence_check as an absolute value
ORACLE_MAX = 1e-3
WALL_TRACE_MAX = 5e-2
RECONSTRUCTION_MAX = 2e-3
GREEN_SUM_MAX = 5e-3
BC_DEFECT_MAX = 1e-3


@dataclass(frozen=True)
class Op:
    index: int
    params: tuple


def build_geometry(n_rho, nodes):
    curve = geometry.build_curve({"kind": "circle", "radius": RADIUS}, nodes)
    chart = fields.InteriorChart(curve, n_rho, 2 * n_rho)
    cutoffs = geometry.build_cutoffs(*CUTOFFS)
    collar = geometry.GeodesicChart(curve, CUTOFFS[0], n_rho, 2 * n_rho)
    return chart, cutoffs, collar


def _key(params):
    return "/".join(str(p) for p in params)


def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


class Ensemble:
    """One op is one eta_study_record call on a seeded rough field; the
    three etas of a field are chained through prev_p as the study worker
    chains them, and alpha cycles through ALPHAS field by field."""

    count_window = len(ETAS)        # one field: its three chained records
    needs_reference = True

    def __init__(self, name, n_rho, field_seeds, n_random=20000, j_max=2,
                 nodes=256):
        self.name = name
        self.n_rho = n_rho
        self.field_seeds = tuple(field_seeds)
        self.n_random = n_random
        self.j_max = j_max
        self.nodes = nodes
        self.reference = None
        self._rough = None
        self._prev = None

    def setup(self):
        self.chart, self.cutoffs, self.collar = build_geometry(self.n_rho,
                                                               self.nodes)
        self.plan = norms.build_pair_plan(self.chart.points, seed=PLAN_SEED,
                                          n_random=self.n_random)

    def ops(self, seed):
        rng = np.random.default_rng(seed)
        first = int(rng.integers(len(ALPHAS)))
        index = itertools.count()
        for task in itertools.count():
            a = (first + task) % len(ALPHAS)
            field_seed = int(rng.choice(self.field_seeds))
            for e in range(len(ETAS)):
                yield Op(next(index), (a, field_seed, e))

    def run(self, op):
        a, field_seed, e = op.params
        if e == 0:
            self._rough = fields.make_rough_stream(ALPHAS[a], field_seed,
                                                   self.j_max, self.chart)
            self._prev = None
        rec, self._prev = pressure.eta_study_record(
            self._rough, ETAS[e], self.cutoffs, self.collar, self.plan,
            prev_p=self._prev, mollify_kwargs=MOLLIFY)
        return rec

    def check(self, op, rec):
        problems = []
        if rec.get("error"):
            problems.append(f"error row: {rec['error']}")
        if not np.isfinite(rec.get("C_meas", np.nan)):
            problems.append(f"C_meas not finite: {rec.get('C_meas')}")
        for k, bound in MOLLIFIER_BOUNDS.items():
            if not rec.get(k, np.inf) <= bound:
                problems.append(f"{k} = {rec.get(k)} > {bound}")
        ref = self.reference.get(_key(op.params))
        if ref is None:
            return problems + [f"no reference record for {op.params}"]
        for k in EXACT_KEYS:
            if rec.get(k) != ref.get(k):
                problems.append(f"{k} = {rec.get(k)} != reference {ref.get(k)}")
        for k in FLOAT_KEYS:
            if (k in rec) != (k in ref):
                problems.append(f"{k} present in only one of output/reference")
            elif k in ref and not _close(rec[k], ref[k]):
                problems.append(f"{k} = {rec[k]!r} differs from reference "
                                f"{ref[k]!r} by more than {REL_TOL} relative")
        return problems

    def make_reference(self):
        self.setup()
        out = {}
        for a in range(len(ALPHAS)):
            for field_seed in self.field_seeds:
                for e in range(len(ETAS)):
                    params = (a, field_seed, e)
                    out[_key(params)] = self.run(Op(0, params))
        return out


class Smooth:
    """One op on an analytic radial field V(r) e_theta (V = r or r^2):
    solve, collar resample, boundary trace, the BC check and the slab
    split with its Green columns.  No mollifier and no Hölder norms."""

    count_window = 2
    needs_reference = False
    PROFILES = {
        "r": (lambda r: r, lambda r: r**2 / 2.0 - 0.25),
        "r2": (lambda r: r**2, lambda r: r**4 / 4.0 - 1.0 / 12.0),
    }

    def __init__(self, name, n_rho, nodes=256, n_probes=10):
        self.name = name
        self.n_rho = n_rho
        self.nodes = nodes
        self.n_probes = n_probes

    def setup(self):
        self.chart, self.cutoffs, self.collar = build_geometry(self.n_rho,
                                                               self.nodes)
        self.radii = np.linalg.norm(self.chart.points - self.chart.center,
                                    axis=-1)

    def ops(self, seed):
        rng = np.random.default_rng(seed)
        names = sorted(self.PROFILES)
        first = int(rng.integers(len(names)))
        for index in itertools.count():
            # profiles alternate in pairs of ops, so that every run has the
            # same mix and the traced (even) and untraced ops see both
            profile = names[(first + index // 2) % len(names)]
            yield Op(index, (profile, int(rng.integers(2**31))))

    def run(self, op):
        profile, probe_seed = op.params
        u = fields.radial_flow(self.PROFILES[profile][0], self.chart)
        sol = pressure.solve_pressure(u, chart=self.chart, collar=self.collar,
                                      cutoffs=self.cutoffs)
        P_collar = pressure._collar_resample(sol.P, self.collar)
        trace = pressure.boundary_trace(P_collar, u, self.collar)
        bc_defect = pressure.bc_equivalence_check(sol.p, u, self.collar)
        split = pressure.split_Pb(u, P_collar, self.cutoffs, self.collar,
                                  n_probes=self.n_probes, seed=probe_seed)
        return sol, trace, bc_defect, split

    def check(self, op, result):
        sol, trace, bc_defect, split = result
        exact = self.PROFILES[op.params[0]][1](self.radii)
        measured = {
            "oracle_error": (float(np.max(np.abs(sol.p.values - exact))),
                             ORACLE_MAX),
            "bc_defect": (bc_defect, BC_DEFECT_MAX),
            "wall_distance": (trace.wall_distance, WALL_TRACE_MAX),
            "reconstruction_error": (split.reconstruction_error,
                                     RECONSTRUCTION_MAX),
            "green_sum_error": (split.green_sum_error, GREEN_SUM_MAX),
        }
        problems = [f"{k} = {v} > {bound}" for k, (v, bound) in measured.items()
                    if not v <= bound]
        if not np.all(np.diff(trace.distances) < 0):
            problems.append(f"trace distances not decreasing toward the "
                            f"wall: {trace.distances}")
        return problems


class StudyCli:
    """One op is one `pressure-lab study` call through cli.main: two alphas
    times two field seeds times the three etas, fanned out over a pool of
    JOBS workers."""

    JOBS = 2            # one worker per core of the 2-core reference machine
    count_window = 1
    needs_reference = True
    ALPHA_PAIRS = tuple((i, (i + 1) % len(ALPHAS)) for i in range(len(ALPHAS)))
    SEED_PAIRS = ((0, 1), (2, 3), (4, 5))
    WORKDIR = os.path.join(".perfbench_out", "work")

    def __init__(self, name, n_rho, n_random=20000, j_max=2, nodes=256):
        self.name = name
        self.n_rho = n_rho
        self.n_random = n_random
        self.j_max = j_max
        self.nodes = nodes
        self.reference = None

    def setup(self):
        # the CLI builds its geometry inside each call
        from pressure_lab import cli
        self.cli = cli

    def ops(self, seed):
        rng = np.random.default_rng(seed)
        first = int(rng.integers(len(self.ALPHA_PAIRS)))
        for index in itertools.count():
            pair = (first + index) % len(self.ALPHA_PAIRS)
            yield Op(index, (pair, int(rng.integers(len(self.SEED_PAIRS)))))

    def argv(self, params, out):
        a, b = self.ALPHA_PAIRS[params[0]]
        s, t = self.SEED_PAIRS[params[1]]
        sets = {
            "domain.nodes": self.nodes,
            "grid.n_rho": self.n_rho, "grid.n_theta": 2 * self.n_rho,
            "grid.collar_n_s": self.n_rho,
            "grid.collar_n_theta": 2 * self.n_rho,
            "norms.n_random": self.n_random, "field.j_max": self.j_max,
            "study.alphas": f"[{ALPHAS[a]!r}, {ALPHAS[b]!r}]",
            "study.seeds": f"[{s}, {t}]",
            "study.etas": "[" + ", ".join(repr(e) for e in ETAS) + "]",
        }
        argv = ["study"]
        for k, v in sets.items():
            argv += ["--set", f"{k}={v}"]
        return argv + ["--jobs", str(self.JOBS), "--out", out]

    def run(self, op):
        out = os.path.join(self.WORKDIR, f"{self.name}-op{op.index}")
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(self.argv(op.params, out))
        try:
            with open(os.path.join(out, "ledger.csv"), "rb") as fh:
                ledger = fh.read()
        except FileNotFoundError:
            ledger = None
        shutil.rmtree(out, ignore_errors=True)
        return code, ledger

    def check(self, op, result):
        code, ledger = result
        problems = [] if code == 0 else [f"exit code {code}"]
        ref = self.reference.get(_key(op.params))
        if ref is None:
            problems.append(f"no reference ledger for {op.params}")
        elif ledger is None:
            problems.append("no ledger.csv written")
        elif ledger.decode() != ref:
            problems.append("ledger.csv bytes differ from the reference")
        return problems

    def make_reference(self):
        self.setup()
        out = {}
        for pair in range(len(self.ALPHA_PAIRS)):
            for seeds in range(len(self.SEED_PAIRS)):
                code, ledger = self.run(Op(0, (pair, seeds)))
                if code != 0 or ledger is None:
                    raise RuntimeError(f"study failed for {(pair, seeds)}")
                out[_key((pair, seeds))] = ledger.decode()
        return out


def make(name, tiny=False):
    """The workload called `name`; tiny=True gives a cheaper variant for
    smoke tests (64x128, fewer pairs).  Coarser grids trip the solver's
    compatibility guard on some rough fields."""
    if tiny:
        return {
            "ensemble-64": lambda: Ensemble("ensemble-64-tiny", 64, range(2),
                                            n_random=2000),
            "smooth-128": lambda: Smooth("smooth-128-tiny", 64),
            "study-cli": lambda: StudyCli("study-cli-tiny", 64,
                                          n_random=2000),
        }[name]()
    return {
        "ensemble-64": lambda: Ensemble("ensemble-64", 64, range(8)),
        "smooth-128": lambda: Smooth("smooth-128", 128),
        "study-cli": lambda: StudyCli("study-cli", 64),
    }[name]()

