"""SHA-256 digests of the lab's outputs, one per output group.

Each digest is taken over the bytes of the values (float64 bytes, so the
sign of a zero counts), together with their shapes and names.  Two
checkouts whose digests agree produce the same outputs bit for bit on:

- eta_study_record records and pressures at 32x64 (j_max 1) and 64x128
  (j_max 2), for alpha in {0.25, 1/3, 0.75} x seeds {0, 5} x three etas,
  chained largest eta first as a study chains them; a run that fails with
  a domain error (such as the compatibility check) is compared by its
  error text;
- mollify_velocity on the analytic stream, on a recovered rough stream and
  on the stream that psi=None recovers;
- two smooth-128 ops (V = r and V = r^2 at 128x256): the pressure solution,
  the boundary trace, the BC defect and split_Pb;
- the ledger.csv of a small `pressure-lab study --jobs 2`.

The package is imported from the src/ directory next to this script, so a
copy of the script digests the checkout it sits in.  To compare two
checkouts:

    python tools/output_digest.py > before.txt           # in one checkout
    python tools/output_digest.py --against before.txt   # in the other

--against reports the groups that differ on standard error and exits 1 if
any does.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import struct
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from pressure_lab import (cli, fields, geometry, mollify,  # noqa: E402
                          norms, pressure)

ALPHAS = (0.25, 1.0 / 3.0, 0.75)
SEEDS = (0, 5)
ETAS = (0.0125, 0.00625, 0.003125)
CUTOFFS = (0.4, 0.05, 0.1, 0.2, 0.25)      # delta, epsilon, delta1..3
MOLLIFY = {"n_sub": 4, "probe_n": 128}


def _feed(h, x):
    """Add x to the hash h: arrays and floats by their bytes, containers
    and dataclasses member by member; a GridField by its values and pole."""
    if isinstance(x, fields.GridField):
        _feed(h, (x.values, x.pole))
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_, int, np.integer)):
        h.update(f"i{int(x)}".encode())
    elif isinstance(x, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(x)))
    elif isinstance(x, str):
        h.update(b"s" + x.encode())
    elif x is None:
        h.update(b"none")
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x):
            _feed(h, k)
            _feed(h, x[k])
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for item in x:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(x):
        _feed(h, {f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    else:
        raise TypeError(f"no digest rule for {type(x).__name__}")


def _digest(x):
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()


def _geometry(n_rho):
    curve = geometry.build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = fields.InteriorChart(curve, n_rho, 2 * n_rho)
    collar = geometry.GeodesicChart(curve, CUTOFFS[0], n_rho, 2 * n_rho)
    return chart, geometry.build_cutoffs(*CUTOFFS), collar


def study_groups():
    for n_rho, j_max in ((32, 1), (64, 2)):
        chart, cutoffs, collar = _geometry(n_rho)
        plan = norms.build_pair_plan(chart.points, seed=0, n_random=20000)
        for alpha in ALPHAS:
            records, pressures = [], []
            for seed in SEEDS:
                rough = fields.make_rough_stream(alpha, seed, j_max, chart)
                prev = None
                for eta in ETAS:
                    try:
                        rec, prev = pressure.eta_study_record(
                            rough, eta, cutoffs, collar, plan, prev_p=prev,
                            mollify_kwargs=MOLLIFY)
                    except pressure._DOMAIN_ERRORS as exc:
                        rec = f"{type(exc).__name__}: {exc}"
                    else:
                        pressures.append(prev)
                    records.append(rec)
            grid = f"{n_rho}x{2 * n_rho}/alpha={alpha:.4g}"
            yield f"study-records/{grid}", records
            yield f"study-pressures/{grid}", pressures


def _velocity_record(rv):
    return (rv.u_eta, rv.psi_eta.field, rv.boundary_tangential,
            rv.normal_component, rv.diagnostics())


def mollify_groups():
    chart, cutoffs, collar = _geometry(64)
    rough = fields.make_rough_stream(1.0 / 3.0, 3, 2, chart)
    u = rough.velocity_field()
    rv = mollify.mollify_velocity(u, 0.00625, cutoffs, collar,
                                  psi=rough.stream_field(), **MOLLIFY)
    yield "mollify/analytic", _velocity_record(rv)
    # the chart interpolant of a recovered rough stream (a field that is
    # discretely divergence-free to 1e-2)
    smooth = fields.make_rough_stream(0.5, 2, 1, chart).velocity_field()
    recovered = mollify.recover_stream(smooth, tol=1e-2)
    rv = mollify.mollify_velocity(smooth, 0.00625, cutoffs, collar,
                                  psi=recovered, **MOLLIFY)
    yield "mollify/recovered-rough", _velocity_record(rv)
    # psi=None: rigid rotation is discretely divergence-free
    pts = chart.points
    rigid = fields.GridField(chart, np.stack([pts[..., 1], -pts[..., 0]],
                                             axis=-1), pole=np.zeros(2))
    rv = mollify.mollify_velocity(rigid, 0.0125, cutoffs, collar, **MOLLIFY)
    yield "mollify/recovered-rigid", _velocity_record(rv)


def smooth_groups():
    chart, cutoffs, collar = _geometry(128)
    for name, profile, probe_seed in (("r", lambda r: r, 11),
                                      ("r2", lambda r: r**2, 12)):
        u = fields.radial_flow(profile, chart)
        sol = pressure.solve_pressure(u, chart=chart, collar=collar,
                                      cutoffs=cutoffs)
        P_collar = pressure._collar_resample(sol.P, collar)
        trace = pressure.boundary_trace(P_collar, u, collar)
        bc_defect = pressure.bc_equivalence_check(sol.p, u, collar)
        split = pressure.split_Pb(u, P_collar, cutoffs, collar, n_probes=10,
                                  seed=probe_seed)
        yield f"smooth-128/{name}", (sol, trace, bc_defect, split)


def ledger_groups():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "study")
        argv = ["study", "--set", "domain.nodes=128",
                "--set", "grid.n_rho=32", "--set", "grid.n_theta=64",
                "--set", "grid.collar_n_s=32",
                "--set", "grid.collar_n_theta=64",
                "--set", "norms.n_random=2000",
                "--set", "study.alphas=[0.25, 0.75]",
                "--set", "study.seeds=[0, 1]",
                "--jobs", "2", "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(os.path.join(out, "ledger.csv"), "rb") as fh:
            yield "study-cli/ledger.csv", (code, fh.read().decode())


def digests():
    for groups in (study_groups, mollify_groups, smooth_groups,
                   ledger_groups):
        for name, value in groups():
            yield name, _digest(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with the output of another run")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    now = {}
    for name, sha in digests():
        now[name] = sha
        print(f"{sha}  {name}", flush=True)
    print(f"{len(now)} groups in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    if args.against is None:
        return 0
    with open(args.against) as fh:
        before = {name: sha for sha, name in
                  (line.split("  ", 1) for line in fh.read().splitlines()
                   if "  " in line)}
    differing = sorted(name for name in before.keys() | now.keys()
                       if before.get(name) != now.get(name))
    for name in differing:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(differing)} differing groups of {len(now)}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
